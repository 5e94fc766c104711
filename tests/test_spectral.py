"""Fourier-transform routes against a quadruple-loop DFT oracle."""

import numpy as np
import pytest

from aift import center_shift, dft2, spectrum_image
from aift.errors import DimensionError, DomainError

from oracles import conjugate_symmetry_error, dft2_loops, fft_pow2_recursive, idft2

RNG = np.random.default_rng(77)


class TestDftRoutes:
    def test_fast_route_matches_loops_8x8(self):
        img = RNG.uniform(0, 1, (8, 8))
        np.testing.assert_allclose(dft2(img), dft2_loops(img), atol=1e-10)

    @pytest.mark.parametrize("shape", [(6, 10), (5, 7)])
    def test_non_pow2_extents_are_rejected(self, shape):
        with pytest.raises(DimensionError):
            dft2(np.zeros(shape))

    def test_routes_agree_on_16x16(self):
        # same array through the radix-2 path and a dense DFT-matrix product
        img = RNG.uniform(0, 1, (16, 16))
        k = np.arange(16)
        matrix = np.exp(-2j * np.pi * np.outer(k, k) / 16)
        direct = matrix @ img.astype(complex) @ matrix.T
        np.testing.assert_allclose(dft2(img), direct, atol=1e-9)

    @pytest.mark.parametrize("h,w", [(1, 1), (2, 2), (4, 4), (16, 16), (32, 32),
                                     (64, 64), (8, 32)])
    def test_fast_route_equals_recursion_bit_for_bit(self, h, w):
        img = RNG.uniform(0, 1, (h, w))
        rows = fft_pow2_recursive(img.astype(complex))
        assert np.array_equal(dft2(img), fft_pow2_recursive(rows.T).T)

    def test_fast_route_on_a_batch_axis_equals_recursion(self):
        from aift.spectral import _fft_pow2
        stack = RNG.standard_normal((5, 3, 32)) + 1j * RNG.standard_normal((5, 3, 32))
        assert np.array_equal(_fft_pow2(stack), fft_pow2_recursive(stack))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_input_is_not_modified(self, dtype):
        img = RNG.uniform(0, 1, (16, 16)).astype(dtype)
        before = img.copy()
        dft2(img)
        dft2(img.T)
        assert np.array_equal(img, before)

    def test_impulse_has_flat_spectrum(self):
        img = np.zeros((8, 8))
        img[0, 0] = 1.0
        np.testing.assert_allclose(dft2(img), np.ones((8, 8)), atol=1e-12)

    def test_constant_image_concentrates_at_dc(self):
        img = np.full((8, 8), 0.5)
        spec = dft2(img)
        assert spec[0, 0] == pytest.approx(0.5 * 64)
        off_dc = np.abs(spec).sum() - abs(spec[0, 0])
        assert off_dc < 1e-10

    def test_linearity(self):
        a = RNG.uniform(0, 1, (8, 8))
        b = RNG.uniform(0, 1, (8, 8))
        np.testing.assert_allclose(dft2(2.0 * a + 3.0 * b),
                                   2.0 * dft2(a) + 3.0 * dft2(b), atol=1e-10)

    def test_parseval(self):
        img = RNG.uniform(0, 1, (16, 16))
        spec = dft2(img)
        energy_space = (img ** 2).sum()
        energy_freq = (np.abs(spec) ** 2).sum() / img.size
        assert abs(energy_space - energy_freq) < 1e-9

    def test_roundtrip(self):
        img = RNG.uniform(0, 1, (16, 16))
        np.testing.assert_allclose(idft2(dft2(img)), img, atol=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DimensionError):
            dft2(np.zeros(8))
        with pytest.raises(DimensionError):
            dft2(np.zeros((2, 3, 4)))
        with pytest.raises(DomainError):
            dft2(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestCenterShift:
    def test_moves_dc_to_center(self):
        a = np.zeros((8, 8))
        a[0, 0] = 1.0
        shifted = center_shift(a)
        assert shifted[4, 4] == 1.0

    def test_odd_extents(self):
        a = np.zeros((5, 7))
        a[0, 0] = 1.0
        shifted = center_shift(a)
        assert shifted[2, 3] == 1.0


class TestSpectrumImage:
    def test_range_and_shape(self):
        img = RNG.uniform(0, 1, (32, 32))
        out = spectrum_image(img)
        assert out.shape == (32, 32)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_dc_lands_in_center(self):
        # a smooth image is dominated by its DC bin
        img = np.full((16, 16), 0.7)
        img[3, 4] = 0.71
        out = spectrum_image(img)
        assert out[8, 8] == 1.0

    def test_all_zero_image_convention(self):
        out = spectrum_image(np.zeros((16, 16)))
        expected = np.zeros((16, 16))
        expected[8, 8] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_constant_image_convention(self):
        # any constant image has the same flat-off-DC spectrum shape
        out = spectrum_image(np.full((16, 16), 0.4))
        assert out[8, 8] == 1.0
        assert np.count_nonzero(out) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            spectrum_image(np.full((8, 8), 1.5))
        with pytest.raises(DomainError):
            spectrum_image(np.full((8, 8), -0.1))

    def test_conjugate_symmetry_of_real_input(self):
        for seed in range(5):
            img = np.random.default_rng(seed).uniform(0, 1, (16, 16))
            assert conjugate_symmetry_error(spectrum_image(img)) < 1e-9

    def test_deterministic(self):
        img = RNG.uniform(0, 1, (16, 16))
        np.testing.assert_array_equal(spectrum_image(img), spectrum_image(img))
