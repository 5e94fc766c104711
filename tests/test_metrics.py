"""Metric implementations against exhaustive brute-force sweeps."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aift
import aift.metrics as metrics
from aift import THRESHOLDS, aiu, auroc, evaluate, f_measure
from aift.errors import DimensionError, MetricError

from oracles import (aiu_brute, auroc_pairs, curve_tolerance_brute, f_brute,
                     f_tolerance_brute, iou_brute, ods_brute, ods_tolerance_brute,
                     ois_brute, ois_tolerance_brute)

RNG = np.random.default_rng(314)


def random_case(rng, shape=(8, 8), p_gt=0.3):
    pred = np.round(rng.uniform(0, 1, shape), 2)
    gt = rng.uniform(0, 1, shape) < p_gt
    return pred, gt


class TestAiu:
    def test_matches_brute_force_on_toys(self):
        for seed in range(10):
            pred, gt = random_case(np.random.default_rng(seed))
            assert aiu(pred, gt) == aiu_brute(pred, gt)

    def test_binary_map_matches_brute_force(self):
        # every threshold of a boolean map sees the same mask, so AIU is its IoU
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.uniform(0, 1, (8, 8)) > 0.5
            b = rng.uniform(0, 1, (8, 8)) > 0.5
            assert aiu(a, b) == aiu_brute(a, b)
            assert aiu(a, b) == pytest.approx(iou_brute(a, b), abs=1e-15)

    def test_binary_empty_union_is_one(self):
        z = np.zeros((4, 4), dtype=bool)
        assert aiu(z, z) == aiu_brute(z, z) == 1.0

    def test_binary_disjoint_is_zero(self):
        a = np.zeros((2, 2), dtype=bool)
        a[0, 0] = True
        b = np.zeros((2, 2), dtype=bool)
        b[1, 1] = True
        assert aiu(a, b) == aiu_brute(a, b) == 0.0

    def test_perfect_binary_prediction_is_one(self):
        gt = np.random.default_rng(1).uniform(0, 1, (8, 8)) < 0.4
        assert aiu(gt.astype(float), gt) == 1.0

    def test_half_intensity_half_mask_case(self):
        # constant 0.5 prediction, ground truth covering half the pixels:
        # thresholds up to 0.50 see IoU 0.5, the rest see IoU 0
        pred = np.full((8, 8), 0.5)
        gt = np.zeros((8, 8), dtype=bool)
        gt[:4, :] = True
        assert aiu(pred, gt) == pytest.approx(25.0 / 99.0, abs=1e-12)

    def test_threshold_grid_is_99_points(self):
        assert THRESHOLDS.size == 99
        assert THRESHOLDS[0] == pytest.approx(0.01)
        assert THRESHOLDS[-1] == pytest.approx(0.99)

    @pytest.mark.parametrize("value", [1.5, -0.1, math.nan, math.inf, -math.inf])
    def test_rejects_out_of_range_maps(self, value):
        pred = np.full((4, 4), 0.5)
        pred[2, 1] = value
        with pytest.raises(MetricError, match=r"prediction map values must lie in \[0, 1\]"):
            aiu(pred, np.zeros((4, 4), dtype=bool))

    @pytest.mark.parametrize("pred_shape, gt_shape, message", [
        ((4, 4), (4, 5), r"ground truth shape \(4, 5\) does not match prediction \(4, 4\)"),
        ((1, 4, 4), (1, 4, 4), r"prediction map must be 2-D, got shape \(1, 4, 4\)"),
    ], ids=["gt-shape", "map-3-d"])
    def test_rejects_misshaped_maps(self, pred_shape, gt_shape, message):
        with pytest.raises(DimensionError, match=message):
            aiu(np.full(pred_shape, 0.5), np.zeros(gt_shape, dtype=bool))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)], ids=["0x4", "4x0", "0x0"])
    @pytest.mark.parametrize("call", [
        lambda pred, gt: aiu(pred, gt),
        lambda pred, gt: f_measure(pred, gt),
        lambda pred, gt: f_measure(pred, gt, tolerance=2.0),
        lambda pred, gt: evaluate([pred], [gt]),
    ], ids=["aiu", "f_measure", "f_measure-tol2", "evaluate"])
    def test_map_without_pixels_is_a_dimension_error(self, call, shape):
        with pytest.raises(DimensionError, match="has no pixels"):
            call(np.zeros(shape), np.zeros(shape, dtype=bool))


class TestFMeasures:
    def test_f_matches_brute_force(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pred = rng.uniform(0, 1, (8, 8)) > 0.6
            gt = rng.uniform(0, 1, (8, 8)) > 0.6
            assert f_measure(pred, gt) == pytest.approx(f_brute(pred, gt), abs=1e-15)

    def test_empty_prediction_conventions(self):
        empty = np.zeros((4, 4), dtype=bool)
        full = np.ones((4, 4), dtype=bool)
        assert f_measure(empty, empty) == 1.0  # both empty: precision = recall = 1
        assert f_measure(empty, full) == 0.0
        assert f_measure(full, empty) == 0.0

    def test_ods_matches_brute_force(self):
        rng = np.random.default_rng(7)
        preds = [np.round(rng.uniform(0, 1, (8, 8)), 2) for _ in range(4)]
        gts = [rng.uniform(0, 1, (8, 8)) < 0.3 for _ in range(4)]
        r = evaluate(preds, gts)
        t_slow, f_slow = ods_brute(preds, gts)
        assert (r.ods_threshold, r.ods) == (pytest.approx(t_slow), pytest.approx(f_slow, abs=1e-15))

    def test_ois_matches_brute_force(self):
        rng = np.random.default_rng(8)
        preds = [np.round(rng.uniform(0, 1, (8, 8)), 2) for _ in range(4)]
        gts = [rng.uniform(0, 1, (8, 8)) < 0.3 for _ in range(4)]
        assert evaluate(preds, gts).ois == pytest.approx(ois_brute(preds, gts), abs=1e-15)

    def test_ois_never_below_ods(self):
        # max-then-mean dominates mean-then-max; checked on 100 random sets
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            preds = [rng.uniform(0, 1, (6, 6)) for _ in range(n)]
            gts = [rng.uniform(0, 1, (6, 6)) < 0.35 for _ in range(n)]
            r = evaluate(preds, gts)
            assert r.ois >= r.ods - 1e-12

    def test_perfect_maps_score_one_everywhere(self):
        gts = [np.random.default_rng(s).uniform(0, 1, (8, 8)) < 0.4 for s in range(3)]
        preds = [g.astype(float) for g in gts]
        assert aiu(preds[0], gts[0]) == 1.0
        r = evaluate(preds, gts)
        assert r.ods == 1.0
        assert r.ois == 1.0

    def test_tolerance_forgives_small_offsets(self):
        gt = np.zeros((9, 9), dtype=bool)
        gt[4, 4] = True
        pred = np.zeros((9, 9), dtype=bool)
        pred[4, 5] = True  # one pixel off
        assert f_measure(pred, gt, tolerance=0.0) == 0.0
        assert f_measure(pred, gt, tolerance=1.0) == 1.0
        assert f_measure(pred, gt, tolerance=0.5) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionError):
            evaluate([np.zeros((4, 4))], [])

    @pytest.mark.parametrize("tol", [-1.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_bad_tolerance_rejected(self, tol):
        gt = np.zeros((4, 4), dtype=bool)
        gt[1, 1] = True
        with pytest.raises(MetricError):
            f_measure(gt, gt, tolerance=tol)
        with pytest.raises(MetricError):
            evaluate([gt.astype(float)], [gt], tolerance=tol)


TOLERANCES = [1.0, 1.5, math.sqrt(2), 2.0]


class TestToleranceMatching:
    """Distance-tolerance matching against pairwise-distance brute force."""

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_f_measure(self, tol):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pred = rng.uniform(0, 1, (9, 9)) > 0.85
            gt = rng.uniform(0, 1, (9, 9)) > (0.85 if seed else 1.0)
            assert f_measure(pred, gt, tolerance=tol) == f_tolerance_brute(pred, gt, tol)

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_ods_ois_and_curve(self, tol):
        rng = np.random.default_rng(11)
        preds = [np.round(rng.uniform(0, 1, (6, 7)), 1) for _ in range(3)]
        gts = [rng.uniform(0, 1, (6, 7)) < 0.2 for _ in range(2)]
        gts.append(np.zeros((6, 7), dtype=bool))  # one map without GT
        r = evaluate(preds, gts, tolerance=tol)
        assert (r.ods_threshold, r.ods) == ods_tolerance_brute(preds, gts, tol)
        assert r.ois == ois_tolerance_brute(preds, gts, tol)
        curve = [(p.threshold, p.precision, p.recall, p.f) for p in r.curve]
        assert curve == curve_tolerance_brute(preds, gts, tol)


class TestAuroc:
    def test_matches_pair_counting(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            scores = np.round(rng.uniform(0, 1, 30), 2)  # rounding forces ties
            labels = rng.uniform(0, 1, 30) < 0.4
            if labels.all() or not labels.any():
                continue
            assert auroc(scores, labels) == pytest.approx(
                auroc_pairs(scores, labels), abs=1e-12)

    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0])
        assert auroc(scores, labels) == 1.0
        assert auroc(-scores, labels) == 0.0

    def test_all_tied_scores_give_half(self):
        assert auroc(np.ones(10), np.arange(10) % 2 == 0) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auroc(np.arange(5.0), np.ones(5, dtype=bool))

    @pytest.mark.parametrize("scores, error, message", [
        ([0.1, 0.2, 0.3], DimensionError, "3 scores vs 4 labels"),
        ([0.1, np.nan, 0.3, 0.4], MetricError, "auroc: non-finite score"),
        ([0.1, 0.2, np.inf, 0.4], MetricError, "auroc: non-finite score"),
    ], ids=["size-mismatch", "nan-score", "inf-score"])
    def test_rejects_malformed_scores(self, scores, error, message):
        with pytest.raises(error, match=message):
            auroc(scores, [True, False, True, False])

    def test_shuffled_labels_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, 200)
        labels = rng.permutation(np.arange(200) < 100)
        assert abs(auroc(scores, labels) - 0.5) < 0.1


class TestEvaluate:
    def test_full_report(self):
        rng = np.random.default_rng(4)
        gts = [rng.uniform(0, 1, (8, 8)) < 0.4 for _ in range(3)]
        preds = [np.clip(g + rng.normal(0, 0.2, g.shape), 0, 1) for g in gts]
        report = evaluate(preds, gts, scores=[3.0, 1.0, 2.0], labels=[1, 0, 1])
        assert len(report.curve) == 99
        assert 0.0 <= report.aiu <= 1.0
        assert report.ois >= report.ods - 1e-12
        assert report.auroc == 1.0
        assert report.n_images == 3

    def test_scores_only_report(self):
        report = evaluate(scores=[0.9, 0.1, 0.8, 0.2], labels=[1, 0, 1, 0])
        assert report.aiu is None and report.ods is None and report.ois is None
        assert report.auroc == 1.0
        assert report.curve == []

    def test_needs_some_input(self):
        with pytest.raises(MetricError):
            evaluate()

    @pytest.mark.parametrize("preds, gts", [([], []), ((), ())], ids=["lists", "tuples"])
    def test_rejects_an_empty_map_set(self, preds, gts):
        with pytest.raises(MetricError, match="no prediction maps to evaluate"):
            evaluate(preds, gts)

    @pytest.mark.parametrize("inputs, message", [
        ({"preds": [np.zeros((4, 4))]}, "prediction maps need matching ground-truth masks"),
        ({"scores": [0.9, 0.1]}, "auroc needs both scores and labels"),
        ({"preds": [np.zeros((4, 4))], "gts": [np.zeros((4, 4), dtype=bool)],
          "labels": [1, 0]}, "auroc needs both scores and labels"),
    ], ids=["maps-without-masks", "scores-without-labels", "labels-without-scores"])
    def test_rejects_one_sided_inputs(self, inputs, message):
        with pytest.raises(MetricError, match=message):
            evaluate(**inputs)

    def test_csv_round_numbers(self):
        gt = np.zeros((4, 4), dtype=bool)
        gt[0, 0] = True
        report = evaluate([gt.astype(float)], [gt])
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "threshold,precision,recall,f_measure"
        assert len(lines) == 101  # header + 99 rows + summary line
        assert lines[-1].startswith("# aiu=1.0")
        summary = report.summary_csv().splitlines()
        assert summary[0].startswith("aiu,")

    def test_csv_cells_parse_back_as_plain_floats(self):
        rng = np.random.default_rng(6)
        pred = np.round(rng.uniform(0, 1, (8, 8)), 2)
        gt = rng.uniform(0, 1, (8, 8)) < 0.3
        labels = np.array([True, False, True])
        report = evaluate([pred], [gt], np.array([0.8, 0.1, 0.6]), labels)
        for text in (report.to_csv(), report.summary_csv()):
            assert "np." not in text
            for line in text.splitlines()[1:]:
                if line.startswith("#"):
                    continue
                for cell in line.split(","):
                    assert cell == "" or np.isfinite(float(cell))


class TestSplitCounting:
    """A split is counted in stacks of same-shape maps, one histogram bin per value."""

    def test_bin_is_the_number_of_thresholds_reached(self):
        values = np.concatenate([THRESHOLDS, np.nextafter(THRESHOLDS, 0.0),
                                 np.nextafter(THRESHOLDS, 1.0), [0.0, -0.0, 1.0],
                                 np.random.default_rng(5).uniform(0, 1, 100_000)])
        assert np.array_equal(metrics._bins(values),
                              np.searchsorted(THRESHOLDS, values, side="right"))

    def test_mixed_split_across_stacks_matches_brute_force(self, monkeypatch):
        # a 256-pixel bound: four 8x8 maps fill a stack, the 6x5 run takes
        # two, and the 20x18 map exceeds the bound and is a stack alone
        monkeypatch.setattr(metrics, "_STACK", 256)
        rng = np.random.default_rng(21)
        shapes = [(8, 8)] * 6 + [(6, 5)] * 9 + [(20, 18)] + [(8, 8)] * 2
        preds = [np.round(rng.uniform(0, 1, shape), 2) for shape in shapes]
        gts = [rng.uniform(0, 1, shape) < 0.2 for shape in shapes]
        gts[3][:] = False  # one map without GT
        assert metrics._stacks(preds) == [(0, 4), (4, 6), (6, 14), (14, 15), (15, 16), (16, 18)]
        r = evaluate(preds, gts)
        assert r.aiu == sum(aiu_brute(p, g) for p, g in zip(preds, gts)) / len(preds)
        assert (r.ods_threshold, r.ods) == ods_brute(preds, gts)
        assert r.ois == ois_brute(preds, gts)
        small = [k for k, shape in enumerate(shapes) if shape != (20, 18)]
        preds, gts = [preds[k] for k in small], [gts[k] for k in small]
        r = evaluate(preds, gts, tolerance=2.0)
        assert (r.ods_threshold, r.ods) == ods_tolerance_brute(preds, gts, 2.0)
        assert r.ois == ois_tolerance_brute(preds, gts, 2.0)
        curve = [(p.threshold, p.precision, p.recall, p.f) for p in r.curve]
        assert curve == curve_tolerance_brute(preds, gts, 2.0)

    def test_peak_memory_of_a_score_sized_split(self):
        # the score benchmark's split: 80 test patches and 2 roads.  Its
        # traced peak was 0.68 MB counted map by map, 2.35 MB with every map
        # of one shape in a single stack, and 1.13 MB in bounded stacks
        rng = np.random.default_rng(0)
        shapes = [(32, 32)] * 80 + [(96, 96)] * 2
        preds = [rng.uniform(0, 0.7, shape) for shape in shapes]
        gts = [rng.uniform(0, 1, shape) < 0.1 for shape in shapes]
        tracemalloc.start()
        try:
            evaluate(preds, gts, tolerance=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, f"traced peak {peak / 1e6:.2f} MB"


def test_import_loads_no_scipy():
    code = ("import aift, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(aift.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == "[]"
