"""End-to-end walkthrough: synthesize a corpus, train, score defects.

Run:  python3 demos/03_train_and_detect.py [--out demo-out] [--epochs 8]

Desk-scale settings throughout; it takes about 10 s on a 2-core machine.
"""

import argparse
from pathlib import Path

import numpy as np

from aift import (
    DatasetManifest,
    SynthConfig,
    TrainConfig,
    auroc,
    detect,
    load_image,
    normalize_patch,
    save_checkpoint,
    spectrum_image,
    synth_corpus,
    train,
    write_pgm,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo-out")
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()
    out = Path(args.out)

    print("== 1. synthetic corpus ==")
    corpus = out / "corpus"
    if not (corpus / "manifest.csv").exists():
        synth_corpus(SynthConfig(120, 30, 30, patch_size=32, seed=11), corpus)
    manifest = DatasetManifest.load(corpus)
    print(f"{len(manifest.train_entries())} training patches, "
          f"{len(manifest.test_entries())} test patches under {corpus}")

    print()
    print("== 2. training on normal patches only ==")
    patches = [normalize_patch(load_image(manifest.image_path(e)))
               for e in manifest.train_entries()]
    images = np.stack(patches)[:, None]
    freqs = np.stack([spectrum_image(p) for p in patches])[:, None]

    cfg = TrainConfig(epochs=args.epochs, batch_size=40, critic_iters=2,
                      lr=1e-3, base_channels=16, loss_mode="total", seed=0)

    def narrate(epoch, params, record):
        print(f"  epoch {epoch:2d}: generator={record.g_loss:7.4f} "
              f"reconstruction={record.recon:.4f}")

    params, log = train((images, freqs), cfg, epoch_callback=narrate)
    ckpt = out / "model.ckpt"
    save_checkpoint(params, ckpt)
    print(f"checkpoint -> {ckpt}")

    print()
    print("== 3. scoring the held-out split ==")
    scores, labels = [], []
    heat_written = False
    for entry in manifest.test_entries():
        patch = normalize_patch(load_image(manifest.image_path(entry)))
        result = detect(params, patch)
        scores.append(result.image_score)
        labels.append(entry.label == "defect")
        if entry.label == "defect" and not heat_written:
            heat = result.score_map / max(result.score_map.max(), 1e-12)
            write_pgm(out / "defect_heatmap.pgm", heat)
            write_pgm(out / "defect_patch.pgm", patch)
            heat_written = True

    scores = np.array(scores)
    labels = np.array(labels)
    print(f"mean score, normal patches: {scores[~labels].mean():.5f}")
    print(f"mean score, defect patches: {scores[labels].mean():.5f}")
    print(f"AUROC                     : {auroc(scores, labels):.4f}")
    print(f"wrote {out / 'defect_patch.pgm'} and {out / 'defect_heatmap.pgm'}")


if __name__ == "__main__":
    main()
