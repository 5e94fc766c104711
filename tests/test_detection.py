"""Jeffrey divergence properties and the detection pipeline."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aift
from aift import (detect, detect_full_image, detect_images, init_params, jeffrey_divergence,
                  normalize_patch)
from aift.detection import _CHUNK
from aift.errors import ConfigurationError, DimensionError, DomainError

from oracles import jeffrey_reference, tile_grid

RNG = np.random.default_rng(99)


class TestJeffreyDivergence:
    def test_single_pixel_hand_value(self):
        # 0.8*ln(1.6) + 0.2*ln(0.4) computed by hand
        total, per_element = jeffrey_divergence(np.array([[0.2]]), np.array([[0.8]]))
        want = 0.8 * math.log(0.8 / 0.5) + 0.2 * math.log(0.2 / 0.5)
        assert total == pytest.approx(want, abs=1e-12)
        assert total == pytest.approx(0.19274, abs=1e-5)
        assert per_element.shape == (1, 1)

    def test_matches_loop_reference(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, (6, 6))
            y = rng.uniform(0, 1, (6, 6))
            total, _ = jeffrey_divergence(x, y)
            assert total == pytest.approx(jeffrey_reference(x, y), rel=1e-12)

    def test_non_negative(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, (4, 4))
            y = rng.uniform(0, 1, (4, 4))
            total, per_element = jeffrey_divergence(x, y)
            assert total >= 0.0
            assert np.all(per_element >= 0.0)

    def test_symmetry_to_the_bit(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x = rng.uniform(0, 1, (5, 5))
            y = rng.uniform(0, 1, (5, 5))
            a, amap = jeffrey_divergence(x, y)
            b, bmap = jeffrey_divergence(y, x)
            np.testing.assert_array_equal(amap, bmap)
            assert a == b

    def test_zero_iff_equal_after_clamp(self):
        x = RNG.uniform(0, 1, (4, 4))
        total, _ = jeffrey_divergence(x, x.copy())
        assert total == 0.0
        # sub-clamp values collapse to eps, so they also compare equal
        total2, _ = jeffrey_divergence(np.full((2, 2), 1e-12), np.zeros((2, 2)))
        assert total2 == 0.0
        total3, _ = jeffrey_divergence(np.array([[0.3]]), np.array([[0.300001]]))
        assert total3 > 0.0

    def test_per_element_bounded_by_log2(self):
        _, per_element = jeffrey_divergence(np.array([[1.0]]), np.array([[0.0]]))
        assert per_element[0, 0] <= math.log(2.0)

    def test_rejects_mismatched_shapes_and_nan(self):
        with pytest.raises(DimensionError):
            jeffrey_divergence(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(DomainError):
            jeffrey_divergence(np.array([np.inf]), np.array([0.5]))


@pytest.fixture(scope="module")
def params16():
    return init_params(16, 5, base_channels=4)


class TestDetect:
    def test_result_fields(self, params16):
        img = RNG.uniform(0, 1, (16, 16))
        res = detect(params16, img)
        assert res.score_map.shape == (16, 16)
        assert res.image_score == pytest.approx(res.score_map.sum())
        assert res.image_score >= 0.0

    def test_deterministic(self, params16):
        img = RNG.uniform(0, 1, (16, 16))
        a = detect(params16, img)
        b = detect(params16, img)
        np.testing.assert_array_equal(a.score_map, b.score_map)

    def test_rejects_bad_inputs(self, params16):
        with pytest.raises(DimensionError):
            detect(params16, np.zeros((8, 8)))
        with pytest.raises(DomainError):
            detect(params16, np.full((16, 16), 2.0))

    def test_nan_pixel_fails_the_range_check(self, params16):
        img = RNG.uniform(0, 1, (16, 16))
        img[3, 4] = np.nan
        with pytest.raises(DomainError, match=r"^image values must lie in \[0, 1\]; "
                                              r"normalize first \(image 0\)$"):
            detect(params16, img)

    def test_raw_patch_scores_as_its_normalized_self(self, params16):
        img = np.random.default_rng(3).uniform(0, 1, (16, 16))  # min > 0, max < 1
        assert not np.array_equal(img, normalize_patch(img))
        raw = detect(params16, img)
        for other in (detect(params16, normalize_patch(img)), detect_full_image(params16, img)):
            assert raw.score_map.tobytes() == other.score_map.tobytes()
            assert raw.image_score == other.image_score


class TestDetectFullImage:
    def test_exact_tiling_shape(self, params16):
        img = RNG.uniform(0, 1, (32, 48))
        res = detect_full_image(params16, img)
        assert res.score_map.shape == (32, 48)
        assert np.all(np.isfinite(res.score_map))

    def test_remainder_edges_are_covered(self, params16):
        img = RNG.uniform(0, 1, (24, 40))  # not a multiple of 16
        res = detect_full_image(params16, img, stride=16)
        assert res.score_map.shape == (24, 40)
        assert np.all(res.score_map >= 0.0)

    def test_single_patch_equals_detect(self, params16):
        img = RNG.uniform(0, 1, (16, 16))
        whole = detect_full_image(params16, img)
        single = detect(params16, normalize_patch(img))
        np.testing.assert_array_equal(whole.score_map, single.score_map)

    def test_overlap_averages(self, params16):
        img = RNG.uniform(0, 1, (16, 24))
        res = detect_full_image(params16, img, stride=8)
        # interior columns are covered by two patches; all values stay finite
        assert res.score_map.shape == (16, 24)
        assert np.all(res.score_map >= 0.0)

    def test_nan_pixel_fails_the_range_check(self, params16):
        img = RNG.uniform(0, 1, (16, 32))
        img[3, 20] = np.nan
        with pytest.raises(DomainError, match=r"^image values must lie in \[0, 1\]; "
                                              r"normalize first \(image 0\)$"):
            detect_full_image(params16, img)

    @pytest.mark.parametrize("shape", [(1, 16, 16), (16,)], ids=["3-d", "1-d"])
    def test_non_2d_image_rejected(self, params16, shape):
        with pytest.raises(DimensionError, match="expects a 2-D image"):
            detect_full_image(params16, np.zeros(shape))

    def test_too_small_image_rejected(self, params16):
        with pytest.raises(DimensionError):
            detect_full_image(params16, np.zeros((8, 8)))

    @pytest.mark.parametrize("stride", [0, 17, 8.0, np.float64(4), True])
    def test_stride_bounds(self, params16, stride, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a generator pass ran before the stride check")

        monkeypatch.setattr(aift.detection, "generate", no_pass)
        with pytest.raises(ConfigurationError, match="stride"):
            detect_full_image(params16, np.zeros((16, 16)), stride=stride)
        with pytest.raises(ConfigurationError, match="stride"):
            detect_images(params16, [np.zeros((16, 16))], stride=stride)


def _road():
    """80 x 96 px: at 16 px and stride 8, 99 tiles, more than one chunk and
    a partial last chunk, with a constant tile at the top left."""
    image = np.random.default_rng(7).uniform(0, 1, (80, 96))
    image[:16, :16] = 0.3
    return image


def _split():
    """Images of 1, 6, 8 and 4 tiles at 16 px and stride 8: chunks of 8 end
    inside the second and third images, the last chunk is partial, and the
    second image is constant."""
    rng = np.random.default_rng(8)
    return [rng.uniform(0, 1, (16, 16)), np.full((20, 30), 0.3),
            rng.uniform(0, 1, (24, 40)), rng.uniform(0, 1, (35, 16))]


def _tile_mean(params, image, stride):
    """The mean of the per-tile ``detect`` maps, added in grid order."""
    p = params.patch_size
    acc = np.zeros(image.shape)
    cover = np.zeros(image.shape)
    for y, x in tile_grid(image.shape, p, stride):
        acc[y:y + p, x:x + p] += detect(params, normalize_patch(image[y:y + p, x:x + p])).score_map
        cover[y:y + p, x:x + p] += 1.0
    return acc / cover


class TestBatchedTiles:
    # base 16 at 16 px: the first decoder layer sees one pixel row per tile,
    # where one GEMM over a batch's rows gives other bits than a row alone
    @pytest.fixture(scope="class")
    def params(self):
        return init_params(16, 5, base_channels=16)

    def test_full_image_is_the_per_tile_mean_bit_for_bit(self, params):
        image = _road()
        tiles = len(tile_grid(image.shape, 16, 8))
        assert tiles > _CHUNK and tiles % _CHUNK
        result = detect_full_image(params, image, stride=8)
        assert np.array_equal(result.score_map, _tile_mean(params, image, 8))
        assert result.image_score == float(result.score_map.sum())

    def test_two_blas_threads_keep_the_per_tile_bits(self, params):
        # the thread count is read when numpy loads, so it needs a fresh process
        code = ("import numpy as np, test_detection as t; "
                "params = t.init_params(16, 5, base_channels=16); image = t._road(); "
                "whole = t.detect_full_image(params, image, stride=8).score_map; "
                "print(np.array_equal(whole, t._tile_mean(params, image, 8)), "
                "all(np.array_equal(r.score_map, t._tile_mean(params, i, 8)) for r, i "
                "in zip(t.detect_images(params, t._split(), 8), t._split())))")
        paths = [str(Path(aift.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parent)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=env)
        assert proc.stdout.strip() == "True True"


class TestDetectImages:
    @pytest.fixture(scope="class")
    def params(self):
        return init_params(16, 5, base_channels=16)

    def test_mixed_split_is_each_images_tile_mean_bit_for_bit(self, params):
        split = _split()
        assert [len(tile_grid(image.shape, 16, 8)) for image in split] == [1, 6, 8, 4]
        results = detect_images(params, split, stride=8)
        assert len(results) == len(split)
        for result, image in zip(results, split):
            want = _tile_mean(params, image, 8)
            assert result.score_map.tobytes() == want.tobytes()
            assert result.image_score == float(want.sum())

    def test_normalized_patches_equal_detect(self, params):
        patches = [normalize_patch(p) for p in RNG.uniform(0, 1, (11, 16, 16))]
        patches.append(np.zeros((16, 16)))
        for result, patch in zip(detect_images(params, patches), patches):
            single = detect(params, patch)
            assert result.score_map.tobytes() == single.score_map.tobytes()
            assert result.image_score == single.image_score

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((1, 16, 16)), DimensionError),
        (np.zeros((8, 40)), DimensionError),
        (np.full((16, 16), np.nan), DomainError),
        (np.full((16, 16), 1.5), DomainError),
    ], ids=["3-d", "too-small", "nan", "above-one"])
    def test_invalid_image_raises_before_any_generator_pass(self, params, bad, error,
                                                            monkeypatch):
        calls = []
        monkeypatch.setattr("aift.detection.generate", lambda *a: calls.append(a))
        split = [*_split(), bad, RNG.uniform(0, 1, (16, 16))]
        with pytest.raises(error, match=r"\(image 4\)"):
            detect_images(params, split, stride=8)
        assert calls == []

    def test_errors_name_the_image_not_an_entry(self, params):
        # the errors do not name detect_full_image when detect_images raises them
        with pytest.raises(DimensionError, match=r"^scoring expects a 2-D image at least 16px "
                           r"on each side, got shape \(8, 8\) \(image 1\)$"):
            detect_images(params, [np.zeros((16, 16)), np.zeros((8, 8))])

    def test_empty_list_gives_no_results(self, params):
        assert detect_images(params, []) == []
