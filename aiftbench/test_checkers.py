"""Tests of the benchmark's own checkers and tracer.

Each checker accepts real outputs of the program and rejects one planted
fault.  Run from the repository root:

    python3 -m pytest -q aiftbench/test_checkers.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import aift  # noqa: E402
import checkers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PATCH = 16


@pytest.fixture(scope="module")
def oracles():
    return checkers.load_oracles()


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """Maps, masks, scores and reports of a small untrained model."""
    root = tmp_path_factory.mktemp("corpus")
    manifest = aift.synth_corpus(aift.SynthConfig(4, 6, 6, PATCH, seed=3), root)
    params = aift.init_params(PATCH, 0, base_channels=4)
    images, maps, gts, scores, labels = [], [], [], [], []
    for entry in manifest.test_entries():
        image = aift.normalize_patch(aift.load_image(manifest.image_path(entry)))
        result = aift.detect(params, image)
        images.append(image)
        maps.append(result.score_map)
        gts.append(aift.load_image(manifest.mask_path(entry)) > 0.5)
        scores.append(result.image_score)
        labels.append(entry.label == "defect")
    reports = {tol: aift.evaluate(maps, gts, np.array(scores), np.array(labels), tolerance=tol)
               for tol in (0.0, 2.0)}
    return dict(params=params, images=images, maps=maps, gts=gts, scores=scores,
                labels=labels, reports=reports)


def test_maps_accept_real_and_reject_perturbed_map(scored):
    checkers.check_maps(scored["maps"], scored["scores"])
    perturbed = [m.copy() for m in scored["maps"]]
    perturbed[2][3, 4] += 1e-3
    with pytest.raises(checkers.CheckFailed):
        checkers.check_maps(perturbed, scored["scores"])


def test_full_image_accepts_stitched_map_and_rejects_perturbed_one(scored):
    params = scored["params"]
    road = np.kron(np.eye(2), np.ones((PATCH, PATCH))) * 0.5 + 0.25
    road[3:7, 20:23] = 0.0
    stitched = aift.detect_full_image(params, road, stride=PATCH // 2).score_map

    def detect_patch(tile):
        return aift.detect(params, tile).score_map

    checkers.check_full_image(detect_patch, road, stitched, PATCH, PATCH // 2)
    stitched[5, 5] *= 1.01
    with pytest.raises(checkers.CheckFailed):
        checkers.check_full_image(detect_patch, road, stitched, PATCH, PATCH // 2)


def test_spectra_accept_real_and_reject_perturbed(scored):
    spectra = [aift.spectrum_image(p) for p in scored["images"]]
    checkers.check_spectra(scored["images"], spectra)
    spectra[1] = spectra[1].copy()
    spectra[1][0, 0] += 1e-6
    with pytest.raises(checkers.CheckFailed):
        checkers.check_spectra(scored["images"], spectra)


def _shift_ods(report):
    t = round(report.ods_threshold + 0.01, 2) if report.ods_threshold < 0.99 else 0.98
    return type(report)(**dict(vars(report), ods_threshold=t))


def test_tol0_metrics_accept_real_and_reject_shifted_ods(scored, oracles):
    args = (scored["maps"], scored["gts"], scored["scores"], scored["labels"])
    report = scored["reports"][0.0]
    checkers.check_metrics_tol0(oracles, report, *args)
    with pytest.raises(checkers.CheckFailed):
        checkers.check_metrics_tol0(oracles, _shift_ods(report), *args)


def test_tolerance_matcher_accepts_evaluate_and_rejects_shifted_ods(scored):
    report = scored["reports"][2.0]
    checkers.check_tolerance_matching(report, scored["maps"], scored["gts"], 2.0)
    with pytest.raises(checkers.CheckFailed):
        checkers.check_tolerance_matching(_shift_ods(report), scored["maps"], scored["gts"], 2.0)


def test_tolerance_matcher_scans_the_disk():
    assert len(checkers.disk_offsets(2.0)) == 13
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    near = checkers.near(mask, 2.0)
    ys, xs = np.nonzero(near)
    assert near.sum() == 13 and np.all((ys - 3) ** 2 + (xs - 3) ** 2 <= 4)
    corner = np.zeros((4, 4), dtype=bool)
    corner[0, 0] = True
    assert checkers.near(corner, 1.0).sum() == 3


def test_f_measure_at_tolerance_matches_matcher_on_a_shifted_crack():
    gt = np.zeros((12, 12), dtype=bool)
    gt[2:10, 5] = True
    pred = np.zeros((12, 12), dtype=bool)
    pred[2:10, 7] = True
    for tol, expected in ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0)):
        table = checkers.brute_tolerance_table([pred.astype(float)], [gt], tol or 1e-9)
        f = checkers._prf(*table[0, 49])[2]
        assert f == expected == aift.f_measure(pred, gt, tolerance=tol)


def test_conv_checks_accept_the_engine(oracles):
    rng = np.random.default_rng(1)
    checkers.check_conv(oracles, rng.uniform(size=(2, 3, 8, 8)), rng.normal(size=(4, 3, 4, 4)),
                        transpose=False)
    checkers.check_conv(oracles, rng.uniform(size=(2, 4, 4, 4)), rng.normal(size=(4, 3, 4, 4)),
                        transpose=True)


def test_conv_check_rejects_a_wrong_kernel_gradient(oracles, monkeypatch):
    from aift import autodiff as ad
    real = ad.conv2d

    def faulty(x, k, stride=1, padding=0):
        out = real(x, k, stride, padding)
        inner = out._backward

        def backward(g):
            inner(g)
            k.grad = k.grad * 1.001

        out._backward = backward
        return out

    monkeypatch.setattr(ad, "conv2d", faulty)
    rng = np.random.default_rng(2)
    with pytest.raises(checkers.CheckFailed, match="kernel gradient"):
        checkers.check_conv(oracles, rng.uniform(size=(1, 2, 6, 6)),
                            rng.normal(size=(3, 2, 4, 4)), transpose=False)


def test_re_step_checks_accept_real_step_and_reject_changed_disc():
    params = aift.init_params(PATCH, 0, base_channels=4)
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(4, 1, PATCH, PATCH))
    freqs = np.stack([aift.spectrum_image(im[0]) for im in images])[:, None]
    cfg = aift.TrainConfig(batch_size=4, base_channels=4, critic_iters=1, lr=1e-3,
                           loss_mode="re")
    g_opt = aift.Adam(params.generator_tensors(), lr=1e-3)
    d_opt = aift.Adam(params.discriminator_tensors(), lr=1e-3)
    before = {k: t.data.copy() for k, t in params.discriminator_tensors().items()}
    recons = []
    for _ in range(4):
        losses = aift.train_step(params, (images, freqs), cfg, g_opt, d_opt)
        checkers.check_losses_finite(losses)
        recons.append(losses.recon)
    checkers.check_disc_untouched(before, params)
    checkers.check_recon_falls(recons)
    params.tensors["disc.trunk.2.b"].data = params.tensors["disc.trunk.2.b"].data + 1e-12
    with pytest.raises(checkers.CheckFailed):
        checkers.check_disc_untouched(before, params)
    with pytest.raises(checkers.CheckFailed):
        checkers.check_recon_falls(recons[::-1])
    with pytest.raises(checkers.CheckFailed):
        checkers.check_losses_finite(aift.StepLosses(float("nan"), 0.0, 0.0, 0.0))


def _aift(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "aift.cli", *argv], capture_output=True,
                          text=True, env=env)


def test_stage_check_accepts_success_and_rejects_nonzero_exit():
    ok = _aift("--version")
    checkers.check_stage("version", ok.returncode, ok.stderr)
    bad = _aift("synth", "--out", "unused")  # --normal and --defect missing
    assert bad.returncode == 2
    with pytest.raises(checkers.CheckFailed, match="exited 2"):
        checkers.check_stage("synth", bad.returncode, bad.stderr)


def test_same_tree_ignores_only_the_seconds_column(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, secs in ((a, "0.5"), (b, "0.7")):
        (d / "train").mkdir(parents=True)
        (d / "train" / "train_log.csv").write_text(f"epoch,g_loss,seconds\n1,0.25,{secs}\n")
        (d / "scores.csv").write_text("path,label,image_score\nx.pgm,normal,1.5\n")
    checkers.check_same_tree(a, b)
    (b / "scores.csv").write_text("path,label,image_score\nx.pgm,normal,1.6\n")
    with pytest.raises(checkers.CheckFailed):
        checkers.check_same_tree(a, b)


def test_cli_report_reader_round_trips(scored, tmp_path):
    report = scored["reports"][2.0]
    (tmp_path / "summary.csv").write_text(report.summary_csv())
    (tmp_path / "report.csv").write_text(report.to_csv())
    back = workloads.read_report(tmp_path)
    assert (back.aiu, back.ods_threshold, back.ods, back.ois, back.auroc) == \
        (report.aiu, report.ods_threshold, report.ods, report.ois, report.auroc)
    checkers.check_tolerance_matching(back, scored["maps"], scored["gts"], 2.0)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


TRACE_SCRIPT = """
import json, numpy as np, aift, tracing
tracer = tracing.Tracer().install()
params = aift.init_params(16, 0, base_channels=4)
rng = np.random.default_rng(0)
images = rng.uniform(size=(4, 1, 16, 16))
freqs = np.stack([aift.spectrum_image(im[0]) for im in images])[:, None]
cfg = aift.TrainConfig(batch_size=4, base_channels=4, critic_iters=2, lr=1e-3)
g_opt = aift.Adam(params.generator_tensors(), lr=1e-3)
d_opt = aift.Adam(params.discriminator_tensors(), lr=1e-3)
tracer.round = 1
aift.train_step(params, (images, freqs), cfg, g_opt, d_opt)
aift.training.train_step(params, (images, freqs), cfg, g_opt, d_opt)
print(json.dumps(tracing.layer_metrics(tracer.spans, 2)))
"""


def test_tracer_times_every_conv_layer_and_splits_the_step():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", TRACE_SCRIPT], capture_output=True,
                          text=True, env=env, check=True)
    m = {k: v["value"] for k, v in json.loads(proc.stdout).items()}
    for layer in tracing.CONV_LAYERS:
        assert m[f"model.{layer}.fwd_ms"] > 0 and m[f"model.{layer}.bwd_ms"] > 0, layer
    # critic: 2 no_grad generate + 2 iterations x 4 discriminate; generator:
    # 2 generate + 2 discriminate; generate runs 8 convs, discriminate 4
    assert m["autodiff.conv_calls"] == 2 * 8 + 2 * 4 * 4 + 2 * 8 + 2 * 4
    split = m["training.critic_phase_ms"] + m["training.generator_phase_ms"]
    assert split == pytest.approx(m["training.step_total_ms"], rel=1e-9)
    assert m["training.critic_phase_ms"] > 0 and m["training.generator_phase_ms"] > 0
    assert m["detection.detect_ms"] == 0.0
