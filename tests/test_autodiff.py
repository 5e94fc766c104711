"""Gradient and shape checks for the autodiff engine."""

import numpy as np
import pytest

import aift.autodiff as ad
from aift.autodiff import Tensor, no_grad
from aift.errors import ContractError, DimensionError, DomainError

from oracles import (check_gradients, conv2d_loops, conv_transpose2d_loops,
                     conv_transpose2d_tap_major)

RNG = np.random.default_rng(20240811)


def _t(*shape, lo=-1.0, hi=1.0):
    return Tensor(RNG.uniform(lo, hi, shape), requires_grad=True)


class TestForwardValues:
    def test_add_mul_sub(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.5, -1.0], [2.0, 0.0]])
        np.testing.assert_array_equal(ad.add(a, b).data, [[1.5, 1.0], [5.0, 4.0]])
        np.testing.assert_array_equal(ad.mul(a, b).data, [[0.5, -2.0], [6.0, 0.0]])
        np.testing.assert_array_equal(ad.sub(a, b).data, [[0.5, 3.0], [1.0, 4.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(DimensionError):
            ad.mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_scalar_operators(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        out = ad.mean(2.0 * a + 1.0)
        assert out.item() == pytest.approx(0.0)
        out.backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ad.log(Tensor([1.0, 0.0]))
        with pytest.raises(DomainError):
            ad.log(Tensor([-0.5]))

    def test_sigmoid_extremes_are_stable(self):
        out = ad.sigmoid(Tensor([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("slope", [1e-300, 0.01, 0.2, 0.5, 1.0])
    def test_leaky_relu_equals_where_form_bit_for_bit(self, slope):
        rng = np.random.default_rng(5)
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.concatenate([[-0.0, 0.0, tiny, -tiny, 3 * tiny, -3 * tiny,
                             np.inf, -np.inf, 1e308, -1e308],
                            rng.standard_normal(50)])
        a = Tensor(x, requires_grad=True)
        out = ad.leaky_relu(a, slope)
        ref = np.where(x > 0.0, x, slope * x)
        # uint64 views, so that -0.0 and 0.0 count as different
        assert np.array_equal(out.data.view(np.uint64), ref.view(np.uint64))
        g = rng.standard_normal(x.shape)
        out._backward(g)
        expected = np.where(x > 0.0, g, slope * g)
        assert np.array_equal(a.grad.view(np.uint64), expected.view(np.uint64))

    def test_leaky_relu_with_zero_slope_on_finite_input(self):
        x = np.array([-0.0, 0.0, -2.0, 3.0, -np.finfo(np.float64).smallest_subnormal])
        ref = np.where(x > 0.0, x, 0.0 * x)
        assert np.array_equal(ad.leaky_relu(Tensor(x), 0.0).data.view(np.uint64),
                              ref.view(np.uint64))

    def test_mean_and_sum(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert ad.mean(a).item() == pytest.approx(2.5)
        assert ad.tsum(a).item() == pytest.approx(15.0)

    def test_backward_requires_scalar(self):
        a = _t(2, 2)
        with pytest.raises(ContractError):
            ad.mul(a, a).backward()


class TestBackwardBasics:
    def test_misshaped_gradient_is_a_contract_error(self):
        # a backward closure handing back the wrong shape must not go unseen
        x = _t(3, 3)
        y = ad._record(x.data.copy(), (x,), lambda g: ad._accumulate(x, g[:2, :2]))
        with pytest.raises(ContractError):
            ad.tsum(y).backward()

    def test_grad_accumulates_over_reuse(self):
        # d/dx of x*x at 3 is 6: the same leaf feeds mul twice
        x = Tensor([3.0], requires_grad=True)
        ad.tsum(ad.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_graph_released_after_backward(self):
        x = _t(3)
        y = ad.mean(ad.mul(x, x))
        y.backward()
        assert y._parents == () and y._backward is None
        # the leaf can be reused in a fresh graph
        x.grad = None
        ad.mean(x).backward()
        np.testing.assert_allclose(x.grad, np.full(3, 1.0 / 3.0))

    def test_no_grad_suppresses_recording(self):
        x = _t(4)
        with no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad and y._backward is None

    def test_detach_breaks_the_graph(self):
        x = _t(4)
        y = ad.mul(x, x).detach()
        assert not y.requires_grad
        z = ad.mean(ad.mul(y, y))
        assert not z.requires_grad

    def test_backward_order_is_reverse_insertion(self):
        # a diamond: x -> (u, v) -> w; both branches must contribute to x
        x = Tensor([2.0], requires_grad=True)
        u = ad.mul_scalar(x, 3.0)
        v = ad.mul(x, x)
        w = ad.tsum(ad.add(u, v))
        w.backward()
        np.testing.assert_allclose(x.grad, [3.0 + 4.0])


class TestGradChecks:
    """Central finite differences, step 1e-5, relative error < 1e-4."""

    @pytest.mark.parametrize("seed", range(3))
    def test_elementwise_chain(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        check_gradients(lambda: ad.mean(ad.mul(ad.add(a, b), ad.sub(a, b))), [a, b])

    @pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh,
                                    lambda t: ad.leaky_relu(t, 0.2)])
    def test_nonlinearities(self, op):
        x = _t(2, 5)
        check_gradients(lambda: ad.mean(op(x)), [x])

    def test_log_gradient(self):
        x = _t(6, lo=0.1, hi=0.9)
        check_gradients(lambda: ad.mean(ad.log(x)), [x])

    def test_clip_gradient_masks_boundary(self):
        x = Tensor([-0.5, 0.2, 0.8, 1.5], requires_grad=True)
        ad.tsum(ad.clip(x, 0.0, 1.0)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 0.0])

    def test_dense_gradients(self):
        x = _t(3, 4)
        w = _t(4, 2)
        b = _t(2)
        check_gradients(lambda: ad.mean(ad.dense(x, w, b)), [x, w, b])

    def test_reshape_and_flatten(self):
        x = _t(2, 3, 2, 2)
        check_gradients(lambda: ad.mean(ad.flatten(x)), [x])

    def test_add_channel_bias(self):
        x = _t(2, 3, 4, 4)
        b = _t(3)
        check_gradients(lambda: ad.mean(ad.add_channel_bias(x, b)), [x, b])

    # 9x9 with a 4x4 kernel at stride 2 leaves a last row and column that no
    # window reads; their gradient is zero but must still be there
    @pytest.mark.parametrize("stride,padding,size,ksize",
                             [(1, 0, 6, 3), (1, 1, 6, 3), (2, 1, 6, 3), (2, 0, 6, 3),
                              (3, 2, 6, 3), (2, 0, 9, 4), (1, 0, 4, 4)],
                             ids=["1-0", "1-1", "2-1", "2-0", "3-2", "2-0-9x9-k4",
                                  "1-0-4x4-k4"])
    def test_conv2d_gradients(self, stride, padding, size, ksize):
        x = _t(2, 2, size, size)
        k = _t(3, 2, ksize, ksize)
        check_gradients(lambda: ad.mean(ad.conv2d(x, k, stride, padding)), [x, k])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0), (3, 1)])
    def test_conv_transpose2d_gradients(self, stride, padding):
        x = _t(2, 3, 3, 3)
        k = _t(3, 2, 4, 4)
        check_gradients(lambda: ad.mean(ad.conv_transpose2d(x, k, stride, padding)), [x, k])

    def test_two_layer_composite(self):
        x = _t(2, 1, 8, 8)
        k1 = _t(4, 1, 4, 4)
        b1 = _t(4)
        k2 = _t(4, 2, 4, 4)

        def forward():
            h = ad.leaky_relu(ad.add_channel_bias(ad.conv2d(x, k1, 2, 1), b1), 0.2)
            return ad.mean(ad.sigmoid(ad.conv_transpose2d(h, k2, 2, 1)))

        check_gradients(forward, [x, k1, b1, k2])


class TestConvolutionValues:
    """The vectorized forward passes agree with explicit-loop references."""

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 0)])
    def test_conv2d_matches_loops(self, stride, padding):
        rng = np.random.default_rng(1000 + stride * 10 + padding)
        x = rng.standard_normal((2, 3, 7, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        fast = ad.conv2d(Tensor(x), Tensor(k), stride, padding).data
        slow = conv2d_loops(x, k, stride, padding)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    # kernels that are not a multiple of the stride: 3x3 at 2, 4x4 at 3
    @pytest.mark.parametrize("stride,padding,ksize",
                             [(1, 0, 4), (2, 1, 4), (2, 0, 4), (2, 0, 3), (3, 1, 4)],
                             ids=["1-0", "2-1", "2-0", "2-0-k3", "3-1-k4"])
    def test_conv_transpose2d_matches_loops(self, stride, padding, ksize):
        rng = np.random.default_rng(2000 + stride * 10 + padding)
        x = rng.standard_normal((2, 3, 4, 5))
        k = rng.standard_normal((3, 2, ksize, ksize))
        fast = ad.conv_transpose2d(Tensor(x), Tensor(k), stride, padding).data
        slow = conv_transpose2d_loops(x, k, stride, padding)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    # the last case has fewer GEMM rows (pixels) than input channels, as in
    # the first decoder layer at batch 1
    @pytest.mark.parametrize("shape,ksize,stride,padding",
                             [((2, 3, 4, 5), 4, 2, 1), ((2, 3, 4, 5), 3, 2, 0),
                              ((2, 3, 4, 5), 4, 3, 1), ((1, 8, 1, 2), 4, 2, 1)],
                             ids=["k4-s2", "k3-s2", "k4-s3", "1x2-c8"])
    def test_conv_transpose2d_bit_for_bit(self, shape, ksize, stride, padding):
        rng = np.random.default_rng(2100 + ksize * 10 + stride)
        x = rng.standard_normal(shape)
        k = rng.standard_normal((shape[1], 3, ksize, ksize))
        fast = ad.conv_transpose2d(Tensor(x), Tensor(k), stride, padding).data
        assert np.array_equal(fast, conv_transpose2d_tap_major(x, k, stride, padding))

    # the last case has fewer GEMM rows (output pixels) than kernels
    @pytest.mark.parametrize("batch,size,kernels,stride,padding",
                             [(2, 8, 5, 2, 1), (2, 8, 5, 1, 0), (1, 4, 40, 2, 1)],
                             ids=["2-1", "1-0", "few-rows"])
    def test_conv2d_input_gradient_bit_for_bit(self, batch, size, kernels, stride, padding):
        # the input gradient is the transposed convolution of the output
        # gradient with the same kernel; every case has size - 4 + 2 * padding
        # divisible by the stride, so every input row is read by some window
        rng = np.random.default_rng(2200 + kernels + stride)
        x = Tensor(rng.standard_normal((batch, 3, size, size)), requires_grad=True)
        k = rng.standard_normal((kernels, 3, 4, 4))
        y = ad.conv2d(x, Tensor(k), stride, padding)
        g = rng.standard_normal(y.shape)
        ad.tsum(ad.mul(y, Tensor(g))).backward()
        assert np.array_equal(x.grad, conv_transpose2d_tap_major(g, k, stride, padding))

    def test_output_shape_formulas(self):
        x = Tensor(np.zeros((1, 1, 32, 32)))
        k = Tensor(np.zeros((8, 1, 4, 4)))
        assert ad.conv2d(x, k, 2, 1).shape == (1, 8, 16, 16)
        kt = Tensor(np.zeros((1, 8, 4, 4)))
        assert ad.conv_transpose2d(Tensor(np.zeros((1, 1, 16, 16))), kt, 2, 1).shape \
            == (1, 8, 32, 32)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 1), (3, 2)])
    def test_adjoint_identity(self, stride, padding):
        # <conv2d(x, k), y> == <x, conv_transpose2d(y, k)> with the same kernel
        # array; spatial size chosen so the strided window grid fits exactly
        size = stride * 3 + 4 - 2 * padding
        rng = np.random.default_rng(42 + stride + padding)
        x = rng.standard_normal((2, 3, size, size))
        k = rng.standard_normal((4, 3, 4, 4))
        y_shape = ad.conv2d(Tensor(x), Tensor(k), stride, padding).shape
        y = rng.standard_normal(y_shape)
        lhs = float((ad.conv2d(Tensor(x), Tensor(k), stride, padding).data * y).sum())
        back = ad.conv_transpose2d(Tensor(y), Tensor(k), stride, padding)
        rhs = float((x * back.data).sum())
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_kernel_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((3, 1, 3, 3))))

    def test_kernel_larger_than_input(self):
        with pytest.raises(DimensionError):
            ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))
