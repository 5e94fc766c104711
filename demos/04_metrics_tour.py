"""Tour of the evaluation metrics on toy prediction maps.

Run:  python3 demos/04_metrics_tour.py
"""

import numpy as np

from aift import THRESHOLDS, aiu, auroc, evaluate, f_measure


def toy_set(rng, n=4):
    """Noisy predictions that roughly agree with diagonal-stripe masks."""
    preds, gts = [], []
    for _ in range(n):
        gt = np.zeros((16, 16), dtype=bool)
        offset = int(rng.integers(0, 8))
        for i in range(16):
            gt[i, (i + offset) % 16] = True
            gt[i, (i + offset + 1) % 16] = True
        pred = np.where(gt, rng.uniform(0.55, 0.95, gt.shape),
                        rng.uniform(0.05, 0.45, gt.shape))
        preds.append(pred)
        gts.append(gt)
    return preds, gts


def main():
    rng = np.random.default_rng(3)
    preds, gts = toy_set(rng)

    print("== one image, one threshold ==")
    mask = preds[0] >= 0.5
    print(f"F-measure at 0.5      : {f_measure(mask, gts[0]):.4f}")

    print()
    print("== threshold sweeps ==")
    print(f"threshold grid        : {THRESHOLDS[0]:.2f} .. {THRESHOLDS[-1]:.2f} "
          f"({THRESHOLDS.size} points)")
    print(f"AIU (first image)     : {aiu(preds[0], gts[0]):.4f}")
    report = evaluate(preds, gts)
    print(f"ODS                   : F={report.ods:.4f} at shared threshold "
          f"{report.ods_threshold:.2f}")
    print(f"OIS                   : {report.ois:.4f} (per-image best, averaged)")

    print()
    print("== tolerance forgives small offsets ==")
    shifted = [np.roll(p, 1, axis=1) for p in preds]
    strict_f = evaluate(shifted, gts).ods
    loose_f = evaluate(shifted, gts, tolerance=1.5).ods
    print(f"ODS with 1px shift    : {strict_f:.4f} (strict)  {loose_f:.4f} (tol=1.5)")

    print()
    print("== image-level separability ==")
    normal_scores = rng.normal(0.02, 0.01, 40)
    defect_scores = rng.normal(0.05, 0.02, 40)
    scores = np.concatenate([normal_scores, defect_scores])
    labels = np.array([False] * 40 + [True] * 40)
    print(f"AUROC                 : {auroc(scores, labels):.4f}")

    print()
    print("== the full report in one call ==")
    report = evaluate(preds, gts, scores, labels)
    print(f"aiu={report.aiu:.4f} ods={report.ods:.4f} ois={report.ois:.4f} "
          f"auroc={report.auroc:.4f} over {report.n_images} images")
    print("first CSV lines:")
    for line in report.to_csv().splitlines()[:3]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
