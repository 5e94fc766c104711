"""Jeffrey divergence properties and the detection pipeline."""

import math

import numpy as np
import pytest

from aift import detect, detect_full_image, init_params, jeffrey_divergence
from aift.errors import ConfigurationError, DimensionError, DomainError

from oracles import jeffrey_reference

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
        with pytest.raises(DomainError, match=r"detect: image values must lie in \[0, 1\]"):
            detect(params16, img)


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
        from aift import normalize_patch
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
        with pytest.raises(DomainError, match=r"detect_full_image: image values must lie"):
            detect_full_image(params16, img)

    @pytest.mark.parametrize("shape", [(1, 16, 16), (16,)], ids=["3-d", "1-d"])
    def test_non_2d_image_rejected(self, params16, shape):
        with pytest.raises(DimensionError, match="expects a 2-D image"):
            detect_full_image(params16, np.zeros(shape))

    def test_too_small_image_rejected(self, params16):
        with pytest.raises(DimensionError):
            detect_full_image(params16, np.zeros((8, 8)))

    def test_stride_bounds(self, params16):
        with pytest.raises(ConfigurationError):
            detect_full_image(params16, np.zeros((16, 16)), stride=0)
        with pytest.raises(ConfigurationError):
            detect_full_image(params16, np.zeros((16, 16)), stride=17)
