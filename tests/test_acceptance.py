"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Paper-scale segmentation numbers need the full road datasets and GPU-scale
training, so the gate is property-based plus one scaled-down ablation on the
synthetic corpus.  Every tolerance is pinned here, not imported.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import aift.autodiff as ad
from aift import (
    TrainConfig,
    DatasetManifest,
    SynthConfig,
    Tensor,
    atcl_loss,
    auroc,
    aiu,
    conv2d,
    conv_transpose2d,
    dense,
    detect,
    dft2,
    evaluate,
    init_params,
    jeffrey_divergence,
    load_checkpoint,
    load_image,
    normalize_patch,
    recon_loss,
    save_checkpoint,
    spectrum_image,
    synth_corpus,
    total_loss,
    train,
)
from aift.cli import main

from oracles import (aiu_brute, check_gradients, dft2_loops, idft2, ods_brute,
                     ois_brute)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number, name, detail=""):
        suffix = f" [{detail}]" if detail else ""
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number} ({name}): FAIL{suffix}", flush=True)
            raise
        with capsys.disabled():
            print(f"criterion {number} ({name}): PASS{suffix}", flush=True)

    return _criterion


def ablation_detail(results):
    """Per-seed AUROCs and separations, per-mode means and elapsed time."""
    def row(values, fmt):
        return "/".join(format(v, fmt) for v in values)

    parts = [f"{mode} AUROC {row(results['auroc'][mode], '.3f')} "
             f"mean {np.mean(results['auroc'][mode]):.3f}" for mode in ("total", "re")]
    parts.append(f"total separation {row(results['separations'], '.2f')}")
    parts.append(f"{results['elapsed']:.0f} s")
    return "; ".join(parts)


@pytest.fixture(scope="session")
def ablation_results(tmp_path_factory):
    """Scaled-down ablation: 500/100/100 corpus, 30 epochs, 3 seeds, 2 modes."""
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("acceptance") / "corpus"
    synth_corpus(SynthConfig(500, 100, 100, patch_size=32, seed=11), root)
    manifest = DatasetManifest.load(root)
    train_patches = [normalize_patch(load_image(manifest.image_path(e)))
                     for e in manifest.train_entries()]
    images = np.stack(train_patches)[:, None]
    freqs = np.stack([spectrum_image(p) for p in train_patches])[:, None]
    test_patches = [(normalize_patch(load_image(manifest.image_path(e))),
                     e.label == "defect")
                    for e in manifest.test_entries()]

    aurocs = {"re": [], "total": []}
    separations = []
    logs = {}
    for seed in (0, 1, 2):
        for mode in ("re", "total"):
            cfg = TrainConfig(epochs=30, batch_size=50, lam=0.1, critic_iters=2,
                              lr=1e-3, base_channels=16, loss_mode=mode, seed=seed)
            params, log = train((images, freqs), cfg)
            scores = np.array([detect(params, p).image_score
                               for p, _ in test_patches])
            labels = np.array([lbl for _, lbl in test_patches])
            aurocs[mode].append(auroc(scores, labels))
            if mode == "total":
                separations.append(scores[labels].mean() - scores[~labels].mean())
            logs[(mode, seed)] = log
    return {"auroc": aurocs, "separations": separations, "logs": logs,
            "elapsed": time.perf_counter() - t0}


class TestCriterion1:
    def test_gradients_match_finite_differences(self, criterion):
        with criterion(1, "autodiff gradients vs central differences"):
            t0 = time.perf_counter()
            instances = 0
            for seed in range(4):
                rng = np.random.default_rng(seed)

                a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
                b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
                check_gradients(lambda: ad.mean(ad.sigmoid(a * b - a)), [a, b])
                instances += 1

                x = Tensor(rng.uniform(-1, 1, (2, 5)), requires_grad=True)
                w = Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
                bias = Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
                check_gradients(lambda: ad.tsum(ad.sigmoid(dense(x, w, bias))),
                                [x, w, bias])
                instances += 1

                p = Tensor(rng.uniform(0.1, 0.9, (4, 4)), requires_grad=True)
                check_gradients(lambda: -ad.mean(ad.log(ad.clip(p, 1e-7, 1.0))), [p])
                instances += 1

                xc = Tensor(rng.uniform(-1, 1, (1, 2, 6, 6)), requires_grad=True)
                kc = Tensor(rng.uniform(-1, 1, (3, 2, 4, 4)) * 0.5, requires_grad=True)
                bc = Tensor(rng.uniform(-1, 1, (3,)) * 0.5, requires_grad=True)
                check_gradients(
                    lambda: ad.mean(conv2d(xc, kc, stride=2, padding=1, bias=bc, leak=0.2)),
                    [xc, kc, bc])
                instances += 1

                xt = Tensor(rng.uniform(-1, 1, (1, 3, 3, 3)), requires_grad=True)
                kt = Tensor(rng.uniform(-1, 1, (3, 2, 4, 4)) * 0.5, requires_grad=True)
                check_gradients(
                    lambda: ad.mean(ad.sigmoid(
                        conv_transpose2d(xt, kt, stride=2, padding=1))), [xt, kt])
                instances += 1

            rng = np.random.default_rng(99)
            likes = [Tensor(rng.uniform(0.1, 0.9, (4, 1)), requires_grad=True)
                     for _ in range(4)]
            check_gradients(lambda: atcl_loss(*likes), likes)
            instances += 1

            quads = [Tensor(rng.uniform(0, 1, (2, 1, 4, 4)), requires_grad=True)
                     for _ in range(4)]
            check_gradients(lambda: recon_loss(*quads), quads)
            instances += 1

            elapsed = time.perf_counter() - t0
            assert instances >= 20
            assert elapsed < 10.0


class TestCriterion2:
    def test_spectral_oracles(self, criterion):
        with criterion(2, "fast spectral path vs direct DFT"):
            rng = np.random.default_rng(16)
            img = rng.uniform(0, 1, (16, 16))

            fast = dft2(img)
            direct = dft2_loops(img)
            assert np.max(np.abs(fast - direct)) < 1e-9

            spatial = np.sum(np.abs(img) ** 2)
            spectral = np.sum(np.abs(fast) ** 2) / img.size
            assert abs(spatial - spectral) < 1e-9

            back = idft2(fast)
            assert np.max(np.abs(back - img)) < 1e-9


class TestCriterion3:
    def test_loss_identities(self, criterion):
        with criterion(3, "adversarial and reconstruction loss identities"):
            half = Tensor(np.full((3, 1), 0.5))
            value = atcl_loss(half, half, half, half).item()
            assert abs(value - 4.0 * math.log(0.5)) <= 1e-12

            rng = np.random.default_rng(8)
            for _ in range(100):
                a = rng.uniform(-5, 5)
                r = rng.uniform(0, 5)
                lam = rng.uniform(0, 1)
                lhs = total_loss(a, r, lam) - total_loss(a, 0.0, lam)
                rhs = lam * r
                assert abs(lhs - rhs) <= math.ulp(max(abs(lhs), abs(rhs), abs(a)))

            x = Tensor(rng.uniform(0, 1, (2, 1, 4, 4)))
            f = Tensor(rng.uniform(0, 1, (2, 1, 4, 4)))
            assert recon_loss(x, f, f, x).item() == 0.0


class TestCriterion4:
    def test_jeffrey_divergence_properties(self, criterion):
        with criterion(4, "divergence score properties and pinned value"):
            value, _ = jeffrey_divergence(np.array([[0.2]]), np.array([[0.8]]))
            assert abs(value - 0.19274) < 1e-5

            rng = np.random.default_rng(12)
            for _ in range(50):
                x = rng.uniform(0, 1, (6, 6))
                y = rng.uniform(0, 1, (6, 6))
                fwd, _ = jeffrey_divergence(x, y)
                rev, _ = jeffrey_divergence(y, x)
                assert fwd >= 0.0
                assert abs(fwd - rev) <= math.ulp(max(fwd, rev))
                if not np.array_equal(np.clip(x, 1e-7, 1), np.clip(y, 1e-7, 1)):
                    assert fwd > 0.0

            same = rng.uniform(0, 1, (5, 5))
            assert jeffrey_divergence(same, same)[0] == 0.0
            below = jeffrey_divergence(np.full((2, 2), 1e-9),
                                       np.full((2, 2), 1e-8))[0]
            assert below == 0.0


class TestCriterion5:
    def test_metrics_match_brute_force(self, criterion):
        with criterion(5, "segmentation metrics vs exhaustive sweeps"):
            for seed in range(6):
                rng = np.random.default_rng(seed)
                preds = [np.round(rng.uniform(0, 1, (8, 8)), 2) for _ in range(3)]
                gts = [rng.uniform(0, 1, (8, 8)) < 0.3 for _ in range(3)]
                assert aiu(preds[0], gts[0]) == aiu_brute(preds[0], gts[0])
                r = evaluate(preds, gts)
                assert (r.ods_threshold, r.ods) == ods_brute(preds, gts)
                assert r.ois == ois_brute(preds, gts)

            rng = np.random.default_rng(42)
            gt = rng.uniform(0, 1, (8, 8)) < 0.4
            assert aiu(gt.astype(float), gt) == 1.0

            for seed in range(100):
                rng = np.random.default_rng(1000 + seed)
                preds = [np.round(rng.uniform(0, 1, (8, 8)), 2) for _ in range(4)]
                gts = [rng.uniform(0, 1, (8, 8)) < 0.3 for _ in range(4)]
                r = evaluate(preds, gts)
                assert r.ois >= r.ods

            half = np.zeros((8, 8), dtype=bool)
            half[:4] = True
            assert abs(aiu(np.full((8, 8), 0.5), half) - 25.0 / 99.0) <= 1e-12


@pytest.mark.slow
class TestCriterion6:
    def test_ablation_direction(self, criterion, ablation_results):
        with criterion(6, "adversarial mode lifts synthetic-corpus AUROC",
                       ablation_detail(ablation_results)):
            mean_total = float(np.mean(ablation_results["auroc"]["total"]))
            mean_re = float(np.mean(ablation_results["auroc"]["re"]))
            assert mean_total >= 0.70
            assert mean_total >= mean_re - 0.05
            assert ablation_results["elapsed"] < 1800.0
            # trained models should also separate the class means outright
            assert all(s > 0 for s in ablation_results["separations"])


@pytest.mark.slow
class TestCriterion7:
    def test_training_sanity(self, criterion, ablation_results):
        records = ablation_results["logs"][("total", 0)].records
        detail = (f"total seed 0 g_loss {records[0].g_loss:.4f} -> {records[-1].g_loss:.4f}; "
                  + ablation_detail(ablation_results))
        with criterion(7, "seeded training converges with finite logs", detail):
            for log in ablation_results["logs"].values():
                for record in log.records:
                    assert np.isfinite([record.g_loss, record.d_image_loss,
                                        record.d_freq_loss, record.recon]).all()
            log = ablation_results["logs"][("total", 0)]
            assert log.records[-1].g_loss < log.records[0].g_loss


class TestCriterion8:
    def test_seeded_cli_runs_are_byte_identical(self, criterion, tmp_path):
        with criterion(8, "seeded pipeline reruns byte-identical"):
            corpus = tmp_path / "corpus"
            assert main(["synth", "--normal", "6", "--defect", "2",
                         "--patch-size", "16", "--seed", "3",
                         "--out", str(corpus)]) == 0

            outputs = {}
            for tag in ("a", "b"):
                run = tmp_path / f"train_{tag}"
                det = tmp_path / f"detect_{tag}"
                ev = tmp_path / f"eval_{tag}"
                assert main(["train", "--data", str(corpus), "--epochs", "2",
                             "--batch", "4", "--critic-iters", "1",
                             "--base-channels", "4", "--lr", "1e-3", "--seed", "0",
                             "--ckpt-every", "1", "--out", str(run)]) == 0
                assert main(["detect", "--ckpt", str(run / "model.ckpt"),
                             "--data", str(corpus), "--out", str(det)]) == 0
                assert main(["eval", "--scores", str(det / "scores.csv"),
                             "--maps", str(det / "maps"),
                             "--gt", str(corpus / "masks"), "--out", str(ev)]) == 0
                outputs[tag] = (run, det, ev)

            run_a, det_a, ev_a = outputs["a"]
            run_b, det_b, ev_b = outputs["b"]
            for name in ("model.ckpt", "model_epoch0001.ckpt"):
                assert (run_a / name).read_bytes() == (run_b / name).read_bytes()

            # the seconds column is wall-clock by design; every other cell
            # of the train log must agree byte for byte
            def drop_seconds(path):
                return [line.rsplit(",", 1)[0]
                        for line in (path / "train_log.csv").read_text().splitlines()]

            assert drop_seconds(run_a) == drop_seconds(run_b)

            assert ((det_a / "scores.csv").read_bytes()
                    == (det_b / "scores.csv").read_bytes())
            maps_a = sorted((det_a / "maps").glob("*.csv"))
            assert maps_a
            for path in maps_a:
                assert path.read_bytes() == (det_b / "maps" / path.name).read_bytes()
            for name in ("report.csv", "summary.csv"):
                assert (ev_a / name).read_bytes() == (ev_b / name).read_bytes()


class TestCriterion9:
    def test_checkpoint_roundtrip_preserves_detection(self, criterion, tmp_path):
        with criterion(9, "checkpoint round-trip keeps score maps bit-identical"):
            first = tmp_path / "first.ckpt"
            save_checkpoint(init_params(16, seed=4, base_channels=4), first)
            params = load_checkpoint(first)

            rng = np.random.default_rng(0)
            patches = [normalize_patch(rng.uniform(0, 1, (16, 16)))
                       for _ in range(3)]
            before = [detect(params, p).score_map for p in patches]

            second = tmp_path / "second.ckpt"
            save_checkpoint(params, second)
            reloaded = load_checkpoint(second)
            after = [detect(reloaded, p).score_map for p in patches]

            for x, y in zip(before, after):
                assert x.tobytes() == y.tobytes()

            third = tmp_path / "third.ckpt"
            save_checkpoint(reloaded, third)
            assert second.read_bytes() == third.read_bytes()
