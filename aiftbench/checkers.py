"""Output checks of the benchmark, made apart from the code they check.

Each checker raises ``CheckFailed`` with a message, or returns None.  The
references are the explicit-loop and brute-force oracles of
``tests/oracles.py``, ``numpy.fft``, a brute-force tolerance matcher kept
here, and properties the method must have (score maps bounded by ln 2,
image score equal to the map sum, stitched maps equal to the mean of the
overlapping patch maps, ``re`` steps leaving the critic untouched).
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LN2 = math.log(2.0)
THRESHOLDS = [i / 100.0 for i in range(1, 100)]
TOL = 1e-12
AIU_BRUTE_MAPS = 4


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def load_oracles():
    """tests/oracles.py, loaded by path (tests/ is not a package)."""
    spec = importlib.util.spec_from_file_location("aift_test_oracles",
                                                  ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- spectra and convolutions ------------------------------------------------------


def check_spectra(patches, spectra) -> None:
    """spectrum_image against numpy.fft: log1p |FFT|, centred, min-max scaled."""
    for i, (patch, spec) in enumerate(zip(patches, spectra)):
        mag = np.fft.fftshift(np.log1p(np.abs(np.fft.fft2(patch))))
        ref = (mag - mag.min()) / (mag.max() - mag.min())
        err = float(np.max(np.abs(ref - spec)))
        _require(err < 1e-9, f"spectrum of patch {i} differs from numpy.fft by {err:.3g}")


def _kernel_grad(x, g, kshape, stride, padding, transpose):
    """Kernel gradient of sum(out * g), one kernel tap at a time."""
    grad = np.zeros(kshape)
    if transpose:
        # out_full[b, o, i*s + u, j*s + v] += x[b, c, i, j] * k[c, o, u, v]
        gp = np.pad(g, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        h, w = x.shape[2:]
        for c in range(kshape[0]):
            for o in range(kshape[1]):
                for u in range(kshape[2]):
                    for v in range(kshape[3]):
                        taps = gp[:, o, u:u + h * stride:stride, v:v + w * stride:stride]
                        grad[c, o, u, v] = np.sum(x[:, c] * taps)
    else:
        # out[b, o, i, j] = sum xp[b, c, i*s + u, j*s + v] * k[o, c, u, v]
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        ho, wo = g.shape[2:]
        for o in range(kshape[0]):
            for c in range(kshape[1]):
                for u in range(kshape[2]):
                    for v in range(kshape[3]):
                        taps = xp[:, c, u:u + ho * stride:stride, v:v + wo * stride:stride]
                        grad[o, c, u, v] = np.sum(taps * g[:, o])
    return grad


def check_conv(oracles, x, k, transpose: bool) -> None:
    """A conv layer's output and kernel gradient against explicit loops.

    Every conv layer of the model has stride 2 and padding 1.
    """
    from aift import autodiff as ad
    stride, padding = 2, 1
    op = ad.conv_transpose2d if transpose else ad.conv2d
    kt = ad.Tensor(k, requires_grad=True)
    out = op(ad.Tensor(x), kt, stride=stride, padding=padding)
    loops = oracles.conv_transpose2d_loops if transpose else oracles.conv2d_loops
    ref = loops(x, k, stride=stride, padding=padding)
    err = float(np.max(np.abs(out.data - ref)))
    _require(err < 1e-10, f"{op.__name__} output differs from the loop oracle by {err:.3g}")
    g = np.random.default_rng(0).standard_normal(out.shape)
    ad.tsum(ad.mul(out, ad.Tensor(g))).backward()
    ref_grad = _kernel_grad(x, g, k.shape, stride, padding, transpose)
    err = float(np.max(np.abs(kt.grad - ref_grad)))
    _require(err < 1e-9, f"{op.__name__} kernel gradient differs by {err:.3g}")


# -- training -------------------------------------------------------------------


def check_losses_finite(losses) -> None:
    for name in ("g_loss", "d_image_loss", "d_freq_loss", "recon"):
        _require(math.isfinite(getattr(losses, name)), f"non-finite {name}: {losses}")


def check_disc_untouched(before: dict, params) -> None:
    """An re step must leave every disc.* tensor bit-identical."""
    after = params.discriminator_tensors()
    _require(sorted(before) == sorted(after), "discriminator tensor set changed")
    for name, data in before.items():
        _require(after[name].data.tobytes() == data.tobytes(),
                 f"re step changed discriminator tensor {name}")


def check_recon_falls(recons) -> None:
    _require(all(math.isfinite(r) for r in recons), f"non-finite recon loss: {recons}")
    _require(recons[-1] < recons[0], f"re reconstruction loss did not fall: {recons}")


# -- detection ------------------------------------------------------------------


def check_maps(maps, scores) -> None:
    """Every map value in [0, ln 2]; each image score is its map's sum."""
    for i, (m, s) in enumerate(zip(maps, scores)):
        _require(np.all(np.isfinite(m)) and m.min() >= 0.0 and m.max() <= LN2,
                 f"map {i} leaves [0, ln 2]: [{m.min()}, {m.max()}]")
        _require(s == float(m.sum()), f"image score {i} ({s}) is not its map sum ({m.sum()})")


def _starts(extent: int, patch: int, stride: int) -> list[int]:
    return sorted(set(range(0, extent - patch + 1, stride)) | {extent - patch})


def check_full_image(detect_patch, road, road_map, patch: int, stride: int) -> None:
    """The stitched map equals the mean of the overlapping per-patch maps.

    ``detect_patch`` maps one normalized patch to its score map.
    """
    acc = np.zeros(road.shape)
    cover = np.zeros(road.shape)
    for y in _starts(road.shape[0], patch, stride):
        for x in _starts(road.shape[1], patch, stride):
            tile = road[y:y + patch, x:x + patch]
            lo, hi = tile.min(), tile.max()
            tile = (tile - lo) / (hi - lo) if hi > lo else np.zeros_like(tile)
            acc[y:y + patch, x:x + patch] += detect_patch(tile)
            cover[y:y + patch, x:x + patch] += 1.0
    err = float(np.max(np.abs(acc / cover - road_map)))
    _require(err < TOL, f"stitched map differs from the patch-map mean by {err:.3g}")


# -- metrics --------------------------------------------------------------------


def aiu_map(pred, gt) -> float:
    """AIU of one map, vectorized over the threshold grid."""
    t = np.array(THRESHOLDS)[:, None, None]
    binary = pred[None] >= t
    inter = np.logical_and(binary, gt).sum(axis=(1, 2))
    union = np.logical_or(binary, gt).sum(axis=(1, 2))
    iou = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    return float(iou.sum() / len(THRESHOLDS))


def disk_offsets(tol: float) -> list[tuple[int, int]]:
    r = int(math.floor(tol))
    return [(dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1)
            if dy * dy + dx * dx <= tol * tol]


def near(mask, tol: float):
    """Pixels with a mask pixel at some integer offset dy^2 + dx^2 <= tol^2."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    for dy, dx in disk_offsets(tol):
        # out[y, x] |= mask[y + dy, x + dx], for every pixel at once
        ys, yd = slice(max(0, dy), h + min(0, dy)), slice(max(0, -dy), h - max(0, dy))
        xs, xd = slice(max(0, dx), w + min(0, dx)), slice(max(0, -dx), w - max(0, dx))
        out[yd, xd] |= mask[ys, xs]
    return out


def _prf(n_pred, n_gt, m_pred, m_gt):
    if n_pred == 0:
        p = 1.0 if n_gt == 0 else 0.0
    else:
        p = m_pred / n_pred
    if n_gt == 0:
        r = 1.0 if n_pred == 0 else 0.0
    else:
        r = m_gt / n_gt
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def brute_tolerance_table(preds, gts, tol: float):
    """[images, thresholds, 4] counts (n_pred, n_gt, matched_pred, matched_gt)."""
    table = np.zeros((len(preds), len(THRESHOLDS), 4))
    for i, (pred, gt) in enumerate(zip(preds, gts)):
        near_gt = near(gt, tol)
        for j, t in enumerate(THRESHOLDS):
            binary = pred >= t
            table[i, j] = (binary.sum(), gt.sum(), np.logical_and(binary, near_gt).sum(),
                           np.logical_and(gt, near(binary, tol)).sum())
    return table


def check_tolerance_matching(report, preds, gts, tol: float) -> None:
    """ODS, OIS and the precision/recall curve at tolerance ``tol``, by brute matching."""
    table = brute_tolerance_table(preds, gts, tol)
    per_image = np.array([[_prf(*table[i, j])[2] for j in range(len(THRESHOLDS))]
                          for i in range(len(preds))])
    means = sum(per_image) / len(preds)
    j = int(np.argmax(means))
    _require(report.ods_threshold == THRESHOLDS[j],
             f"tol {tol}: ODS threshold {report.ods_threshold}, brute force {THRESHOLDS[j]}")
    _require(abs(report.ods - means[j]) < TOL, f"tol {tol}: ODS {report.ods} vs {means[j]}")
    ois = sum(row.max() for row in per_image) / len(preds)
    _require(abs(report.ois - ois) < TOL, f"tol {tol}: OIS {report.ois} vs {ois}")
    _require(len(report.curve) == len(THRESHOLDS), "precision/recall curve length")
    for j, point in enumerate(report.curve):
        p, r, f = _prf(*table[:, j].sum(axis=0))
        _require(abs(point.precision - p) < TOL and abs(point.recall - r) < TOL
                 and abs(point.f - f) < TOL,
                 f"tol {tol}: curve point {point.threshold} differs from brute force")


def check_metrics_tol0(oracles, report, preds, gts, scores, labels) -> None:
    """AIU, ODS, OIS and AUROC at tolerance 0 against the brute-force oracles.

    AIU is checked map by map with a vectorized sweep, itself checked
    against ``aiu_brute`` on AIU_BRUTE_MAPS maps spread over the list
    (``aiu_brute`` is a pure-Python pixel loop, too slow for every map).
    """
    per_map = [aiu_map(p, g) for p, g in zip(preds, gts)]
    for i in np.linspace(0, len(preds) - 1, AIU_BRUTE_MAPS).astype(int):
        brute = oracles.aiu_brute(preds[i], gts[i])
        _require(abs(per_map[i] - brute) < TOL, f"AIU sweep of map {i}: {per_map[i]} vs {brute}")
    aiu = sum(per_map) / len(per_map)
    _require(abs(report.aiu - aiu) < TOL, f"AIU {report.aiu}, oracle {aiu}")
    t, f = oracles.ods_brute(preds, gts)
    _require(report.ods_threshold == t, f"ODS threshold {report.ods_threshold}, oracle {t}")
    _require(abs(report.ods - f) < TOL, f"ODS {report.ods}, oracle {f}")
    ois = oracles.ois_brute(preds, gts)
    _require(abs(report.ois - ois) < TOL, f"OIS {report.ois}, oracle {ois}")
    area = oracles.auroc_pairs(scores, labels)
    _require(abs(report.auroc - area) < TOL, f"AUROC {report.auroc}, oracle {area}")


# -- command line -----------------------------------------------------------------


def check_stage(name: str, returncode: int, stderr: str = "") -> None:
    _require(returncode == 0, f"aift {name} exited {returncode}: {stderr.strip()[-300:]}")


def _drop_seconds(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def check_same_tree(ref: Path, other: Path) -> None:
    """Byte-identical files, except the seconds column of train_log.csv."""
    ref_files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    other_files = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    _require(ref_files == other_files, f"file sets differ under {other}")
    for rel in ref_files:
        a, b = (ref / rel).read_bytes(), (other / rel).read_bytes()
        if rel.name == "train_log.csv":
            a, b = _drop_seconds(a.decode()), _drop_seconds(b.decode())
        _require(a == b, f"{rel} differs between rounds")


def check_same(label: str, digest: str, ref: str) -> None:
    _require(digest == ref, f"{label} does not reproduce the first round bit for bit")
