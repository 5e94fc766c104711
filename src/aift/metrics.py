"""Segmentation and ranking metrics for defect maps.

All threshold sweeps share one fixed grid, 0.01 to 0.99 in steps of 0.01.
Predictions are float maps in [0, 1]; a pixel is positive at threshold t
when its value is >= t.  Ground truth is boolean.

Each image yields one count table, a row per threshold with the columns
n_pred, n_gt, inter, matched_pred and matched_gt; every segmentation metric
is read from it.  A column counts the values >= t in one pixel subset (all
pixels, GT pixels, pixels near GT, and GT pixels under the disk-max of the
prediction), for the whole grid at once by sorting the subset and searching
it.  Pixels are near when their integer offset has sqrt(dy^2 + dx^2) <=
``tolerance``, the test a Euclidean distance transform makes.

* AIU: the interval-averaged intersection over union.
* ODS / OIS: best F-measure at a single dataset-wide threshold versus the
  mean of per-image best F-measures.
* AUROC: Mann-Whitney statistic computed from tie-averaged ranks.

Sums over thresholds and images run in sequence, so results equal
loop-based references bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, MetricError

# Score maps from aift.detection lie in [0, ln 2] ~ [0, 0.693], so the 30
# thresholds from 0.70 to 0.99 never fire on them.  They stay in the grid:
# AIU averages over all 99, so dropping them would move every reported AIU.
THRESHOLDS = np.arange(1, 100) / 100.0


def _as_pred(pred: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 2:
        raise DimensionError(f"prediction map must be 2-D, got shape {pred.shape}")
    if not np.all(np.isfinite(pred)) or pred.min() < 0.0 or pred.max() > 1.0:
        raise MetricError("prediction map values must lie in [0, 1]")
    return pred


def _as_gt(gt: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    gt = np.asarray(gt)
    if gt.shape != shape:
        raise DimensionError(f"ground truth shape {gt.shape} does not match prediction {shape}")
    return gt.astype(bool)


def _disk(tolerance: float, shape: tuple[int, int]) -> list[tuple[int, int]]:
    """Integer offsets (dy, dx) with sqrt(dy^2 + dx^2) <= tolerance that fit in ``shape``."""
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise MetricError(f"matching tolerance must be finite and >= 0, got {tolerance}")
    ry = min(int(tolerance), shape[0] - 1)
    rx = min(int(tolerance), shape[1] - 1)
    dy, dx = np.mgrid[-ry:ry + 1, -rx:rx + 1]
    keep = np.sqrt(dy * dy + dx * dx) <= tolerance
    return list(zip(dy[keep].tolist(), dx[keep].tolist()))


def _disk_max(values: np.ndarray, disk) -> np.ndarray:
    """Each pixel's maximum over the in-bounds pixels at the ``disk`` offsets."""
    h, w = values.shape
    out = values.copy()
    for dy, dx in disk:
        dst = out[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)]
        np.maximum(dst, values[max(0, dy):h - max(0, -dy), max(0, dx):w - max(0, -dx)], out=dst)
    return out


def _count_table(pred: np.ndarray, gt: np.ndarray, tolerance: float,
                 thresholds=THRESHOLDS) -> np.ndarray:
    """[thresholds, 5] counts of one map: n_pred, n_gt, inter, matched_pred, matched_gt."""
    disk = _disk(tolerance, pred.shape)
    subsets = (pred, pred[gt], pred[_disk_max(gt, disk)], _disk_max(pred, disk)[gt])
    n_pred, inter, matched_pred, matched_gt = (
        v.size - np.searchsorted(np.sort(v, axis=None), thresholds, side="left")
        for v in subsets)
    n_gt = np.full_like(n_pred, np.count_nonzero(gt))
    return np.stack([n_pred, n_gt, inter, matched_pred, matched_gt], axis=-1)


def _tables(preds, gts, tolerance: float) -> np.ndarray:
    """Count tables of every image; shape [n_images, n_thresholds, 5]."""
    if len(preds) != len(gts):
        raise DimensionError(f"{len(preds)} predictions vs {len(gts)} ground truths")
    if not preds:
        raise MetricError("no prediction maps to evaluate")
    preds = [_as_pred(pred) for pred in preds]
    return np.stack([_count_table(pred, _as_gt(gt, pred.shape), tolerance)
                     for pred, gt in zip(preds, gts)])


def _iou(table: np.ndarray) -> np.ndarray:
    """IoU of each count row; an empty union gives 1."""
    n_pred, n_gt, inter = table[..., 0], table[..., 1], table[..., 2]
    union = n_pred + n_gt - inter
    return np.divide(inter, union, out=np.ones(union.shape), where=union > 0)


def _prf(table: np.ndarray):
    """Precision, recall and F of each count row.

    An empty prediction has precision 1 only against empty ground truth,
    and empty ground truth has recall 1 only for an empty prediction.
    """
    n_pred, n_gt, matched_pred, matched_gt = (table[..., k] for k in (0, 1, 3, 4))
    precision = np.divide(matched_pred, n_pred, out=np.asarray(n_gt == 0, dtype=np.float64),
                          where=n_pred > 0)
    recall = np.divide(matched_gt, n_gt, out=np.asarray(n_pred == 0, dtype=np.float64),
                       where=n_gt > 0)
    denom = precision + recall
    f = np.divide(2.0 * precision * recall, denom, out=np.zeros(denom.shape), where=denom > 0.0)
    return precision, recall, f


def _aiu(tables: np.ndarray) -> np.ndarray:
    return np.cumsum(_iou(tables), axis=-1)[..., -1] / THRESHOLDS.size


def _mean(values: np.ndarray) -> np.ndarray:
    """Mean over the first axis, accumulated image by image."""
    return np.cumsum(values, axis=0)[-1] / values.shape[0]


def aiu(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean IoU over the fixed threshold grid for one image."""
    pred = _as_pred(pred)
    return float(_aiu(_count_table(pred, _as_gt(gt, pred.shape), 0.0)))


def f_measure(pred_bin: np.ndarray, gt: np.ndarray, tolerance: float = 0.0) -> float:
    """F-measure of one binarized map against ground truth.

    The map's positives are its values >= 1, so its count table has one row.
    """
    pred = _as_pred(np.asarray(pred_bin, dtype=bool))
    return float(_prf(_count_table(pred, _as_gt(gt, pred.shape), tolerance, thresholds=1.0))[2])


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the rank-based Mann-Whitney statistic."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise DimensionError(f"{scores.size} scores vs {labels.size} labels")
    if not np.all(np.isfinite(scores)):
        raise MetricError("auroc: non-finite score")
    labels = labels.astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auroc needs both positive and negative samples")
    # tied scores share the mean of the 1-based ranks their group spans
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    ranks = 0.5 * (bounds[group + 1] + bounds[group] + 1)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class PRPoint:
    threshold: float
    precision: float
    recall: float
    f: float


def _fmt(value) -> str:
    return "" if value is None else repr(value)


@dataclass
class MetricsReport:
    aiu: float | None
    ods_threshold: float | None
    ods: float | None
    ois: float | None
    auroc: float | None
    n_images: int
    tolerance: float
    curve: list[PRPoint] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["threshold,precision,recall,f_measure"]
        for p in self.curve:
            lines.append(f"{repr(p.threshold)},{repr(p.precision)},{repr(p.recall)},{repr(p.f)}")
        summary = (f"# aiu={_fmt(self.aiu)} ods_threshold={_fmt(self.ods_threshold)}"
                   f" ods={_fmt(self.ods)} ois={_fmt(self.ois)} auroc={_fmt(self.auroc)}"
                   f" n_images={self.n_images} tolerance={repr(self.tolerance)}")
        lines.append(summary)
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        header = "aiu,ods_threshold,ods,ois,auroc,n_images,tolerance"
        row = ",".join([_fmt(self.aiu), _fmt(self.ods_threshold), _fmt(self.ods),
                        _fmt(self.ois), _fmt(self.auroc), str(self.n_images),
                        repr(self.tolerance)])
        return header + "\n" + row + "\n"


def evaluate(preds=None, gts=None, scores=None, labels=None,
             tolerance: float = 0.0) -> MetricsReport:
    """Full report over prediction maps and/or per-image scores.

    Segmentation metrics (AIU, ODS, OIS and the aggregate PR curve) come
    from ``preds``/``gts``; AUROC from ``scores``/``labels``.  Either side
    may be omitted, but not both.  ODS is the best mean per-image F at one
    shared threshold, ties resolving to the lowest; OIS is the mean of each
    image's best F on the grid.
    """
    if preds is None and scores is None:
        raise MetricError("evaluate needs prediction maps, per-image scores, or both")

    aiu_value = ods_t = ods_f = ois_value = None
    n_images = 0
    curve: list[PRPoint] = []
    if preds is not None:
        if gts is None:
            raise MetricError("prediction maps need matching ground-truth masks")
        tables = _tables(preds, gts, tolerance)
        f = _prf(tables)[2]
        aiu_value = float(_mean(_aiu(tables)))
        means = _mean(f)
        j = int(np.argmax(means))
        ods_t, ods_f = float(THRESHOLDS[j]), float(means[j])
        ois_value = float(_mean(f.max(axis=1)))
        n_images = tables.shape[0]
        points = np.stack([THRESHOLDS, *_prf(tables.sum(axis=0))], axis=1)
        curve = [PRPoint(*point) for point in points.tolist()]

    area = None
    if scores is not None or labels is not None:
        if scores is None or labels is None:
            raise MetricError("auroc needs both scores and labels")
        area = auroc(scores, labels)
        n_images = max(n_images, np.asarray(scores).size)

    return MetricsReport(
        aiu=aiu_value,
        ods_threshold=ods_t,
        ods=ods_f,
        ois=ois_value,
        auroc=area,
        n_images=n_images,
        tolerance=float(tolerance),
        curve=curve,
    )
