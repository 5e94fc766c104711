"""Gradient and shape checks for the autodiff engine."""

import tracemalloc
import weakref

import numpy as np
import pytest

import aift.autodiff as ad
from aift.autodiff import Tensor, no_grad
from aift.errors import ContractError, DimensionError, DomainError

from oracles import (check_gradients, conv2d_kernel_grad_channel_major, conv2d_loops,
                     conv2d_tap_major, conv_transpose2d_loops, conv_transpose2d_tap_major,
                     leaky_relu_where)

RNG = np.random.default_rng(20240811)


def _t(*shape, lo=-1.0, hi=1.0):
    return Tensor(RNG.uniform(lo, hi, shape), requires_grad=True)


def _tap_major(x, k, stride, padding):
    """oracles.conv_transpose2d_tap_major, summed in the inputs' dtype.

    The oracle sums its float32 taps in float64.  Run with a kernel that
    keeps only tap (u, v), it returns that tap's term alone, exactly; the
    terms are then added in the oracle's tap order in the inputs' dtype."""
    if x.dtype == np.float64:
        return conv_transpose2d_tap_major(x, k, stride, padding)
    out = 0.0
    for u, v in np.ndindex(*k.shape[2:]):
        one = np.zeros_like(k)
        one[:, :, u, v] = k[:, :, u, v]
        out = out + conv_transpose2d_tap_major(x, one, stride, padding).astype(x.dtype)
    return out


def _channel_last(k):
    """k with the same shape and values, stored (K, kh, kw, C) in memory."""
    return np.ascontiguousarray(k.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _bits(a):
    """The unsigned view of a float array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(f"u{a.itemsize}")


# the smallest float32 slope is 1e-30, since 1e-300 rounds to 0 there
_SLOPES = pytest.mark.parametrize(
    "slope, dtype", [(s, np.float64) for s in (1e-300, 0.01, 0.2, 0.5, 1.0)]
    + [(s, np.float32) for s in (1e-30, 0.01, 0.2, 0.5, 1.0)],
    ids=["1e-300", "0.01", "0.2", "0.5", "1.0"]
    + [f"float32-{s}" for s in ("1e-30", "0.01", "0.2", "0.5", "1.0")])


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

    @_SLOPES
    def test_leaky_equals_where_form_bit_for_bit(self, slope, dtype):
        info = np.finfo(dtype)
        tiny = info.smallest_subnormal
        x = np.concatenate([[-0.0, 0.0, tiny, -tiny, 3 * tiny, -3 * tiny,
                             np.inf, -np.inf, info.max, -info.max],
                            np.random.default_rng(5).standard_normal(50)]).astype(dtype)
        # _leaky writes its output into its argument
        out, _ = ad._leaky(x.copy(), slope)
        ref, _ = leaky_relu_where(x, x, slope)
        assert out.dtype == dtype
        assert np.array_equal(_bits(out), _bits(ref))

    @_SLOPES
    def test_leaky_gradient_equals_where_form_bit_for_bit(self, slope, dtype):
        # the gradient reads the output's signs, which for a slope in (0, 1]
        # are the input's, also for -0.0, negative subnormals whose output
        # underflows to -0.0, infinities and NaN; a gradient of the other
        # dtype keeps its own
        info = np.finfo(dtype)
        tiny = info.smallest_subnormal
        x = np.concatenate([[-0.0, 0.0, tiny, -tiny, 3 * tiny, -3 * tiny, np.inf, -np.inf,
                             info.max, -info.max, np.nan],
                            np.random.default_rng(7).standard_normal(50)]).astype(dtype)
        _, grad = ad._leaky(x.copy(), slope)
        for gtype in (np.float64, np.float32):
            g = np.random.default_rng(8).standard_normal(x.shape).astype(gtype)
            g[:4] = [0.0, -0.0, -0.0, 0.0]
            _, ref = leaky_relu_where(x, g, slope)
            assert grad(g).dtype == gtype
            assert np.array_equal(_bits(grad(g)), _bits(ref))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_equals_boolean_mask_form_bit_for_bit(self, dtype):
        def mask_form(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        tiny = np.finfo(dtype).smallest_subnormal
        x = np.concatenate([[-0.0, 0.0, 800.0, -800.0, np.inf, -np.inf,
                             tiny, -tiny, 3 * tiny, -3 * tiny],
                            np.random.default_rng(6).standard_normal(50) * 20]).astype(dtype)
        uint = np.uint64 if dtype == np.float64 else np.uint32
        out = ad.sigmoid(Tensor(x)).data
        assert out.dtype == dtype
        assert np.array_equal(out.view(uint), mask_form(x).view(uint))
        assert np.isnan(ad.sigmoid(Tensor(np.array([np.nan], dtype=dtype))).data).all()

    def test_mean_and_sum(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert ad.mean(a).item() == pytest.approx(2.5)
        assert ad.tsum(a).item() == pytest.approx(15.0)

    def test_backward_requires_scalar(self):
        a = _t(2, 2)
        with pytest.raises(ContractError):
            ad.mul(a, a).backward()

    @pytest.mark.parametrize("call, error, message", [
        (lambda: ad.clip(Tensor([0.5]), 1.0, 1.0), DomainError, "clip needs lo < hi"),
        (lambda: ad.clip(Tensor([0.5]), 1.0, 0.0), DomainError, "clip needs lo < hi"),
        (lambda: ad.mean(Tensor(np.zeros((2, 0)))), DimensionError, "mean of an empty tensor"),
        (lambda: ad.flatten(Tensor(np.zeros(3))), DimensionError, "flatten needs rank >= 2"),
        (lambda: ad.dense(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2))),
         DimensionError, "dense expects 2-D operands"),
        (lambda: ad.dense(Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 2))),
                          Tensor(np.zeros(2))), DimensionError, "inner axes differ, 3 vs 4"),
        (lambda: ad.dense(Tensor(np.zeros((1, 3))), Tensor(np.zeros((3, 2))),
                          Tensor(np.zeros(1))), DimensionError, r"bias must have shape \(2,\)"),
        (lambda: Tensor(np.zeros(2)).item(), DimensionError, r"item\(\) needs a single value"),
        (lambda: ad.mean(Tensor(np.zeros(2))).backward(), ContractError,
         "does not require gradients"),
    ], ids=["clip-lo-equals-hi", "clip-lo-above-hi", "mean-empty", "flatten-1-d",
            "dense-1-d-input", "dense-inner-axes", "dense-bias", "item-of-two-values",
            "backward-without-gradients"])
    def test_rejects_misuse(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


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

    def test_sigmoid_gradient(self):
        x = _t(2, 5)
        check_gradients(lambda: ad.mean(ad.sigmoid(x)), [x])

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

    # 9x9 with a 4x4 kernel at stride 2 leaves a last row and column that no
    # window reads; their gradient is zero but must still be there
    @pytest.mark.parametrize("stride,padding,size,ksize,bias",
                             [(1, 0, 6, 3, False), (1, 1, 6, 3, False), (2, 1, 6, 3, False),
                              (2, 0, 6, 3, False), (3, 2, 6, 3, False), (2, 0, 9, 4, False),
                              (1, 0, 4, 4, False), (2, 1, 6, 3, True), (2, 0, 9, 4, True)],
                             ids=["1-0", "1-1", "2-1", "2-0", "3-2", "2-0-9x9-k4",
                                  "1-0-4x4-k4", "2-1-bias", "2-0-9x9-k4-bias"])
    def test_conv2d_gradients(self, stride, padding, size, ksize, bias):
        x = _t(2, 2, size, size)
        k = _t(3, 2, ksize, ksize)
        b = _t(3) if bias else None
        check_gradients(lambda: ad.mean(ad.conv2d(x, k, stride, padding, bias=b)),
                        [x, k, b] if bias else [x, k])

    @pytest.mark.parametrize("stride,padding,bias",
                             [(1, 0, False), (2, 1, False), (2, 0, False), (3, 1, False),
                              (2, 1, True), (3, 1, True)],
                             ids=["1-0", "2-1", "2-0", "3-1", "2-1-bias", "3-1-bias"])
    def test_conv_transpose2d_gradients(self, stride, padding, bias):
        x = _t(2, 3, 3, 3)
        k = _t(3, 2, 4, 4)
        b = _t(2) if bias else None
        check_gradients(lambda: ad.mean(ad.conv_transpose2d(x, k, stride, padding, bias=b)),
                        [x, k, b] if bias else [x, k])

    @pytest.mark.parametrize("transpose", [False, True], ids=["conv2d", "conv_transpose2d"])
    def test_conv_leak_gradients(self, transpose):
        x = _t(2, 3, 4, 4)
        k = _t(3, 2, 4, 4) if transpose else _t(2, 3, 4, 4)
        b = _t(2)
        op = ad.conv_transpose2d if transpose else ad.conv2d
        check_gradients(lambda: ad.mean(op(x, k, 2, 1, bias=b, leak=0.2)), [x, k, b])

    def test_two_layer_composite(self):
        x = _t(2, 1, 8, 8)
        k1 = _t(4, 1, 4, 4)
        b1 = _t(4)
        k2 = _t(4, 2, 4, 4)

        def forward():
            h = ad.conv2d(x, k1, 2, 1, bias=b1, leak=0.2)
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

    # "1x2-c8" has fewer GEMM rows (pixels) than input channels, as does the
    # first decoder layer at batch 1 ("dec0"); the last decoder layer
    # ("dec3") takes the kernel route at either batch size
    @pytest.mark.parametrize("shape,kernels,ksize,stride,padding,dtype",
                             [((2, 3, 4, 5), 3, 4, 2, 1, np.float64),
                              ((2, 3, 4, 5), 3, 3, 2, 0, np.float64),
                              ((2, 3, 4, 5), 3, 4, 3, 1, np.float64),
                              ((1, 8, 1, 2), 3, 4, 2, 1, np.float64),
                              ((1, 128, 2, 2), 64, 4, 2, 1, np.float32),
                              ((1, 16, 16, 16), 1, 4, 2, 1, np.float32),
                              ((50, 16, 16, 16), 1, 4, 2, 1, np.float32)],
                             ids=["k4-s2", "k3-s2", "k4-s3", "1x2-c8", "dec0-b1-float32",
                                  "dec3-b1-float32", "dec3-b50-float32"])
    def test_conv_transpose2d_bit_for_bit(self, shape, kernels, ksize, stride, padding, dtype):
        rng = np.random.default_rng(2100 + ksize * 10 + stride + kernels - 3)
        x = rng.standard_normal(shape).astype(dtype)
        k = rng.standard_normal((shape[1], kernels, ksize, ksize)).astype(dtype)
        fast = ad.conv_transpose2d(Tensor(x), Tensor(k), stride, padding).data
        assert fast.dtype == dtype
        assert np.array_equal(fast, _tap_major(x, k, stride, padding))

    # "few-rows" has fewer GEMM rows (output pixels) than kernels; "trunk1" is
    # the discriminator's 16 -> 32 channel layer at batch 50
    @pytest.mark.parametrize("batch,channels,size,kernels,stride,padding,dtype",
                             [(2, 3, 8, 5, 2, 1, np.float64), (2, 3, 8, 5, 1, 0, np.float64),
                              (1, 3, 4, 40, 2, 1, np.float64),
                              (50, 16, 16, 32, 2, 1, np.float32)],
                             ids=["2-1", "1-0", "few-rows", "trunk1-b50-float32"])
    def test_conv2d_input_gradient_bit_for_bit(self, batch, channels, size, kernels, stride,
                                               padding, dtype):
        # the input gradient is the transposed convolution of the output
        # gradient with the same kernel; every case has size - 4 + 2 * padding
        # divisible by the stride, so every input row is read by some window
        rng = np.random.default_rng(2200 + kernels + stride)
        x = Tensor(rng.standard_normal((batch, channels, size, size)).astype(dtype),
                   requires_grad=True)
        k = rng.standard_normal((kernels, channels, 4, 4)).astype(dtype)
        y = ad.conv2d(x, Tensor(k), stride, padding)
        g = rng.standard_normal(y.shape).astype(dtype)
        ad.tsum(ad.mul(y, Tensor(g))).backward()
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, _tap_major(g, k, stride, padding))

    # the model's conv2d layers enc0, enc1 and enc3 at 32 px: 4x4 kernels at
    # stride 2 with padding 1; the kernel as a caller builds it and as the
    # model stores it
    @pytest.mark.parametrize("layout", ["c-order", "channel-last"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 50])
    @pytest.mark.parametrize("channels,size,kernels", [(1, 32, 16), (16, 16, 32), (64, 4, 128)],
                             ids=["enc0", "enc1", "enc3"])
    def test_conv2d_bit_for_bit(self, channels, size, kernels, batch, dtype, layout):
        rng = np.random.default_rng(2800 + channels + kernels + batch)
        x = rng.standard_normal((batch, channels, size, size)).astype(dtype)
        k = rng.standard_normal((kernels, channels, 4, 4)).astype(dtype)
        kt = Tensor(k if layout == "c-order" else _channel_last(k))
        fast = ad.conv2d(Tensor(x), kt, 2, 1).data
        assert fast.dtype == dtype
        assert np.array_equal(fast, conv2d_tap_major(x, k, 2, 1))

    # conv_transpose2d's input gradient is conv2d of the output gradient with
    # the same kernel; the decoder layers dec0, dec2 and dec3 at base 16
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 50])
    @pytest.mark.parametrize("channels,size,kernels", [(128, 2, 64), (32, 8, 16), (16, 16, 1)],
                             ids=["dec0", "dec2", "dec3"])
    def test_conv_transpose2d_input_gradient_bit_for_bit(self, channels, size, kernels, batch,
                                                         dtype):
        rng = np.random.default_rng(2900 + channels + kernels + batch)
        x = Tensor(rng.standard_normal((batch, channels, size, size)).astype(dtype),
                   requires_grad=True)
        k = rng.standard_normal((channels, kernels, 4, 4)).astype(dtype)
        y = ad.conv_transpose2d(x, Tensor(k), 2, 1)
        g = rng.standard_normal(y.shape).astype(dtype)
        ad.tsum(ad.mul(y, Tensor(g))).backward()
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, conv2d_tap_major(g, k, 2, 1))

    # the model's conv2d layers: 4x4 kernels at stride 2 with padding 1, on
    # the stage shapes of a 32 px patch; one output channel is the smallest case
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 50])
    @pytest.mark.parametrize("channels,size,kernels", [(1, 32, 16), (16, 16, 1), (64, 4, 128)],
                             ids=["1-16", "16-1", "64-128"])
    def test_conv2d_kernel_gradient_bit_for_bit(self, channels, size, kernels, batch, dtype):
        rng = np.random.default_rng(2300 + channels + kernels + batch)
        x = rng.standard_normal((batch, channels, size, size)).astype(dtype)
        k = Tensor(rng.standard_normal((kernels, channels, 4, 4)).astype(dtype),
                   requires_grad=True)
        y = ad.conv2d(Tensor(x), k, 2, 1)
        g = rng.standard_normal(y.shape).astype(dtype)
        ad.tsum(ad.mul(y, Tensor(g))).backward()
        assert k.grad.dtype == dtype and k.grad.transpose(0, 2, 3, 1).flags.c_contiguous
        assert np.array_equal(k.grad, conv2d_kernel_grad_channel_major(x, g, 4, 4, 2, 1))

    # the model's conv_transpose2d layers at base 16: 4x4 kernels at stride 2
    # with padding 1, from the first decoder stage to the last; the kernel
    # gradient is conv2d's with the input and the output gradient swapped
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 50])
    @pytest.mark.parametrize("channels,size,kernels", [(128, 2, 64), (64, 4, 32), (16, 16, 1)],
                             ids=["128-64", "64-32", "16-1"])
    def test_conv_transpose2d_kernel_gradient_bit_for_bit(self, channels, size, kernels, batch,
                                                          dtype):
        rng = np.random.default_rng(2600 + channels + kernels + batch)
        x = rng.standard_normal((batch, channels, size, size)).astype(dtype)
        k = Tensor(rng.standard_normal((channels, kernels, 4, 4)).astype(dtype),
                   requires_grad=True)
        y = ad.conv_transpose2d(Tensor(x), k, 2, 1)
        g = rng.standard_normal(y.shape).astype(dtype)
        ad.tsum(ad.mul(y, Tensor(g))).backward()
        assert k.grad.dtype == dtype and k.grad.transpose(0, 2, 3, 1).flags.c_contiguous
        assert np.array_equal(k.grad, conv2d_kernel_grad_channel_major(g, x, 4, 4, 2, 1))

    @pytest.mark.parametrize("transpose", [False, True], ids=["conv2d", "conv_transpose2d"])
    def test_kernel_gradient_reads_the_input_of_the_forward_pass(self, transpose):
        # the backward pass rebuilds its columns from the input array the
        # forward pass read, even if the tensor's data is rebound meanwhile
        rng = np.random.default_rng(2400)
        x = rng.standard_normal((2, 3, 8, 8))
        k = rng.standard_normal((3, 5, 4, 4) if transpose else (5, 3, 4, 4))
        op = ad.conv_transpose2d if transpose else ad.conv2d
        grads = []
        for rebind in (False, True):
            xt, kt = Tensor(x), Tensor(k, requires_grad=True)
            y = op(xt, kt, 2, 1)
            if rebind:
                xt.data = np.zeros_like(x)
            ad.tsum(y).backward()
            grads.append(kt.grad)
        assert np.array_equal(grads[0], grads[1])

    # a 3x4 kernel, so that window rows and columns differ in length
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("channels", [1, 3, 16])
    def test_im2col_is_the_window_view_reshaped_bit_for_bit(self, channels, stride, padding,
                                                            batch, dtype):
        rng = np.random.default_rng(2450 + channels + 10 * stride + padding)
        x = rng.standard_normal((batch, channels, 7, 6)).astype(dtype)
        x[0, 0, 0, :2] = [-0.0, np.nan]
        xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (padding,) * 2, (padding,) * 2, (0, 0)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 4), axis=(1, 2))
        want = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3).reshape(-1, 3 * 4 * channels)
        cols = ad._im2col(x, 3, 4, stride, padding)
        assert cols.dtype == dtype and cols.flags.c_contiguous
        assert cols.shape == want.shape
        assert np.array_equal(_bits(cols), _bits(want))

    def test_conv_transpose2d_backward_builds_its_columns_once(self, monkeypatch):
        # the kernel gradient and the input gradient read one column matrix of g
        calls = []
        im2col = ad._im2col

        def counting(*args):
            calls.append(args[1:])
            return im2col(*args)

        monkeypatch.setattr(ad, "_im2col", counting)
        rng = np.random.default_rng(2460)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 5, 4, 4)), requires_grad=True)
        y = ad.conv_transpose2d(x, k, 2, 1)
        assert calls == []
        ad.tsum(y).backward()
        assert calls == [(4, 4, 2, 1)]
        assert x.grad is not None and k.grad is not None

    @pytest.mark.parametrize("transpose", [False, True], ids=["conv2d", "conv_transpose2d"])
    def test_input_gradient_is_stored_channel_last(self, transpose):
        # both input gradients come out of a channel-last product; conv2d's
        # is a crop of it, copied in its own memory order
        rng = np.random.default_rng(2401)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 5, 4, 4) if transpose else (5, 3, 4, 4)))
        op = ad.conv_transpose2d if transpose else ad.conv2d
        ad.tsum(op(x, k, 2, 1, bias=Tensor(np.zeros(5)), leak=0.2)).backward()
        assert x.grad.transpose(0, 2, 3, 1).flags.c_contiguous
        assert x.grad.base is None or x.grad.base.nbytes == x.grad.nbytes

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

    @pytest.mark.parametrize("transpose", [False, True], ids=["conv2d", "conv_transpose2d"])
    @pytest.mark.parametrize("bias_shape", [(2,), (3, 1), ()], ids=["length", "rank-2", "rank-0"])
    def test_bias_must_have_one_value_per_output_channel(self, transpose, bias_shape):
        # three output channels either way
        op, kshape = (ad.conv_transpose2d, (1, 3, 2, 2)) if transpose else (ad.conv2d, (3, 1, 2, 2))
        with pytest.raises(DimensionError, match=r"bias must have shape \(3,\)"):
            op(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros(kshape)),
               bias=Tensor(np.zeros(bias_shape)))

    @pytest.mark.parametrize("transpose", [False, True], ids=["conv2d", "conv_transpose2d"])
    @pytest.mark.parametrize("leak", [0.0, -0.2, 1.5, np.nan, np.inf])
    def test_leak_must_lie_in_zero_one(self, transpose, leak):
        op, kshape = (ad.conv_transpose2d, (1, 3, 2, 2)) if transpose else (ad.conv2d, (3, 1, 2, 2))
        name = "conv_transpose2d" if transpose else "conv2d"
        with pytest.raises(DomainError, match=rf"^{name}: leak must lie in \(0, 1\], got "):
            op(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros(kshape)), leak=leak)

    # the model's layers at 32 px: 4x4 kernels at stride 2 with padding 1;
    # "dec0" takes _correlate_adjoint's product route at batch 1
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 50])
    @pytest.mark.parametrize("transpose,channels,size,kernels",
                             [(False, 1, 32, 16), (False, 64, 4, 128),
                              (True, 128, 2, 64), (True, 32, 8, 16)],
                             ids=["enc0", "enc3", "dec0", "dec2"])
    def test_leak_matches_where_form_bit_for_bit(self, transpose, channels, size, kernels,
                                                 batch, dtype):
        rng = np.random.default_rng(2700 + channels + kernels + batch)
        x = rng.standard_normal((batch, channels, size, size)).astype(dtype)
        k = rng.standard_normal((channels, kernels, 4, 4) if transpose
                                else (kernels, channels, 4, 4)).astype(dtype)
        b = rng.standard_normal(kernels).astype(dtype)
        # channels 0-2 have zero kernels, so their pre-activation is the
        # product's zero plus the bias: +0.0; +0.0 or -0.0, as that zero is;
        # and the smallest negative subnormal, whose output is -0.0
        (k[:, :3] if transpose else k[:3])[...] = 0.0
        b[:3] = [0.0, -0.0, -np.finfo(dtype).smallest_subnormal]
        op = ad.conv_transpose2d if transpose else ad.conv2d
        results = []
        for fused in (True, False):
            xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, k, b))
            if fused:
                y = op(xt, kt, 2, 1, bias=bt, leak=0.2)
            else:
                pre = op(xt, kt, 2, 1, bias=bt)
                assert (_bits(pre.data) == 0).any() and (pre.data < 0).any()

                def backward(g):
                    # the where form's values, laid out in memory as the
                    # fused op's gradient is (numpy picks that order from g
                    # and the output), so that the sums behind it add in the
                    # same order
                    grad = np.empty_like(ad._leaky(pre.data.copy(order="K"), 0.2)[1](g))
                    grad[...] = leaky_relu_where(pre.data, g, 0.2)[1]
                    ad._accumulate(pre, grad)

                y = ad._record(leaky_relu_where(pre.data, pre.data, 0.2)[0], (pre,), backward)
            g = np.random.default_rng(2701).standard_normal(y.shape).astype(dtype)
            g[:, :, 0], g[:, :, 1] = 0.0, -0.0
            ad.tsum(ad.mul(y, Tensor(g))).backward()
            results.append([y.data, xt.grad, kt.grad, bt.grad])
        assert (_bits(results[0][0]) == _bits(np.array(-0.0, dtype))).any()
        for fused, composed in zip(*results):
            assert fused.dtype == dtype and fused.shape == composed.shape
            assert np.array_equal(_bits(fused), _bits(composed))

    def test_kernel_larger_than_input(self):
        with pytest.raises(DimensionError):
            ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    # a (1, 1, 2, 2) kernel has one input and one output channel for either op
    @pytest.mark.parametrize("op, x_shape, k_shape, stride, padding, message", [
        (ad.conv2d, (1, 1, 4, 4), (1, 1, 2, 2), 0, 0, "stride must be >= 1, got 0"),
        (ad.conv_transpose2d, (1, 1, 4, 4), (1, 1, 2, 2), 0, 0, "stride must be >= 1, got 0"),
        (ad.conv2d, (1, 1, 4, 4), (1, 1, 2, 2), 1, -1, "padding must be >= 0, got -1"),
        (ad.conv_transpose2d, (1, 1, 4, 4), (1, 1, 2, 2), 1, -1,
         "padding must be >= 0, got -1"),
        (ad.conv2d, (1, 4, 4), (1, 1, 2, 2), 1, 0, r"conv2d input must be \[N, C, H, W\]"),
        (ad.conv_transpose2d, (1, 4, 4), (1, 1, 2, 2), 1, 0,
         r"conv_transpose2d input must be \[N, C, H, W\]"),
        (ad.conv2d, (1, 1, 4, 4), (1, 2, 2), 1, 0, r"conv2d kernel must be \[K, C, kh, kw\]"),
        (ad.conv_transpose2d, (1, 1, 4, 4), (1, 2, 2), 1, 0,
         r"conv_transpose2d kernel must be \[C, K, kh, kw\]"),
        (ad.conv_transpose2d, (1, 1, 1, 1), (1, 1, 2, 2), 1, 1,
         "padding 1 consumes the whole 2x2 output"),
        (ad.conv2d, (0, 3, 8, 8), (4, 3, 4, 4), 2, 1,
         r"conv2d input has no samples or no channels, got shape \(0, 3, 8, 8\)"),
        (ad.conv2d, (2, 0, 8, 8), (4, 0, 4, 4), 2, 1,
         r"conv2d input has no samples or no channels, got shape \(2, 0, 8, 8\)"),
        (ad.conv_transpose2d, (0, 3, 4, 4), (3, 4, 4, 4), 2, 1,
         r"conv_transpose2d input has no samples or no channels, got shape \(0, 3, 4, 4\)"),
        (ad.conv_transpose2d, (2, 0, 4, 4), (0, 4, 4, 4), 2, 1,
         r"conv_transpose2d input has no samples or no channels, got shape \(2, 0, 4, 4\)"),
    ], ids=["conv2d-stride-0", "conv_transpose2d-stride-0", "conv2d-padding-minus-1",
            "conv_transpose2d-padding-minus-1", "conv2d-3-d-input", "conv_transpose2d-3-d-input",
            "conv2d-3-d-kernel", "conv_transpose2d-3-d-kernel",
            "conv_transpose2d-padding-consumes-output", "conv2d-no-samples",
            "conv2d-no-channels", "conv_transpose2d-no-samples", "conv_transpose2d-no-channels"])
    def test_rejects_bad_geometry(self, op, x_shape, k_shape, stride, padding, message):
        with pytest.raises(DimensionError, match=message):
            op(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)), stride, padding)


class TestPerSample:
    """Under per_sample every sample of a batch gets the bytes it gets alone."""

    # the base-16 layers enc2, enc3, dec0 and dec1 at 32 px, and dec0 at
    # 16 px, where a sample has one pixel row and a product over a batch's
    # rows gives other bits than a row alone; with the model's bias and leak
    @pytest.mark.parametrize("batch", [1, 2, 8, 50])
    @pytest.mark.parametrize("transpose,channels,size,kernels", [
        (False, 32, 8, 64), (False, 64, 4, 128), (True, 128, 2, 64), (True, 64, 4, 32),
        (True, 128, 1, 64)], ids=["enc2", "enc3", "dec0", "dec1", "dec0-16px"])
    def test_each_sample_gets_its_own_bits(self, transpose, channels, size, kernels, batch):
        rng = np.random.default_rng(3100 + channels + size + batch)
        op = ad.conv_transpose2d if transpose else ad.conv2d
        shape = (channels, kernels, 4, 4) if transpose else (kernels, channels, 4, 4)
        k = Tensor(_channel_last(rng.uniform(-0.1, 0.1, shape).astype(np.float32)))
        b = Tensor(rng.uniform(-0.1, 0.1, kernels).astype(np.float32))
        x = rng.uniform(-1.0, 1.0, (batch, channels, size, size)).astype(np.float32)
        with ad.per_sample():
            out = op(Tensor(x), k, 2, 1, bias=b, leak=0.2).data
        for i in range(batch):
            alone = op(Tensor(x[i:i + 1]), k, 2, 1, bias=b, leak=0.2).data
            assert out[i:i + 1].tobytes() == alone.tobytes()

    def test_flag_is_restored_after_an_exception(self):
        assert not ad._per_sample
        with pytest.raises(RuntimeError):
            with ad.per_sample():
                assert ad._per_sample
                raise RuntimeError("inside")
        assert not ad._per_sample


class TestGraphMemory:
    """A conv node keeps its input array and its kernel, which the graph
    holds anyway; it keeps no column matrix and no copy of its input, with
    a bias no pre-bias copy of its output, and with a leak no
    pre-activation."""

    @staticmethod
    def _held_bytes(op, x, k, bias, leak):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            b = Tensor(np.ones(k.shape[1 if op is ad.conv_transpose2d else 0]),
                       requires_grad=True) if bias else None
            y = op(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True), 2, 1, bias=b,
                   leak=leak)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return held, y.data.nbytes

    def test_conv2d_holds_only_its_output(self):
        rng = np.random.default_rng(2500)
        x, k = rng.standard_normal((8, 16, 16, 16)), rng.standard_normal((32, 16, 4, 4))
        for bias, leak in ((False, None), (True, None), (True, 0.2)):
            held, out = self._held_bytes(ad.conv2d, x, k, bias, leak)
            assert held <= out + 8192, (bias, leak, held, out)

    def test_conv_transpose2d_holds_only_its_output(self):
        # a [N, C, H, W] input is not channel-last, so its GEMM rows are a copy
        rng = np.random.default_rng(2501)
        x, k = rng.standard_normal((8, 16, 8, 8)), rng.standard_normal((16, 8, 4, 4))
        for bias, leak in ((False, None), (True, None), (True, 0.2)):
            held, out = self._held_bytes(ad.conv_transpose2d, x, k, bias, leak)
            assert held <= out + 8192, (bias, leak, held, out)

    # batch 1 with kernels as the model stores them: enc3's conv2d forward
    # pass and input gradient, and dec0's transposed-conv forward pass; the
    # last two take _correlate_adjoint's product route
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("case", ["conv2d", "conv2d-input-gradient", "conv_transpose2d"])
    def test_channel_last_kernel_is_read_without_a_copy(self, case, dtype):
        rng = np.random.default_rng(2502)
        shape = (1, 128, 2, 2) if case == "conv_transpose2d" else (1, 64, 4, 4)
        x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
        k = Tensor(_channel_last(rng.standard_normal((128, 64, 4, 4)).astype(dtype)))
        op = ad.conv_transpose2d if case == "conv_transpose2d" else ad.conv2d
        if case == "conv2d-input-gradient":
            run = ad.tsum(op(x, k, 2, 1)).backward
        else:
            def run():
                with no_grad():
                    op(x, k, 2, 1)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k.data.nbytes, (peak, k.data.nbytes)

    def test_backward_frees_later_activations_before_earlier_closures(self):
        # a chain of 1 MB activations: by the time the bottom node's closure
        # runs, every activation above it has been differentiated and must
        # be gone, so the graph's memory falls while backward runs
        x = Tensor(np.ones((128, 1024)), requires_grad=True)
        dead = []

        def bottom_backward(g):
            alive = sum(ref() is not None for ref in dead)
            assert alive == 0, f"{alive} of {len(dead)} later activations still alive"
            ad._accumulate(x, g)

        h = ad._record(x.data * 1.0, (x,), bottom_backward)
        for _ in range(4):
            for op in (lambda t: ad.mul_scalar(t, 0.5), ad.sigmoid):
                h = op(h)
                dead.append(weakref.ref(h.data))
        loss = ad.mean(h)
        del h
        loss.backward()
        np.testing.assert_allclose(x.grad, np.full(x.shape, x.grad[0, 0]))


def _kernel_grad_loops(x, g, kshape, stride, padding, transpose):
    """Kernel gradient of sum(op(x, k) * g), one kernel tap at a time."""
    grad = np.zeros(kshape)
    if transpose:
        # out_full[n, o, i * s + u, j * s + v] += x[n, c, i, j] * k[c, o, u, v]
        gp = np.pad(g, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        h, w = x.shape[2:]
        for c, o, u, v in np.ndindex(*kshape):
            taps = gp[:, o, u:u + h * stride:stride, v:v + w * stride:stride]
            grad[c, o, u, v] = np.sum(x[:, c] * taps)
    else:
        # out[n, o, i, j] = sum xp[n, c, i * s + u, j * s + v] * k[o, c, u, v]
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        ho, wo = g.shape[2:]
        for o, c, u, v in np.ndindex(*kshape):
            taps = xp[:, c, u:u + ho * stride:stride, v:v + wo * stride:stride]
            grad[o, c, u, v] = np.sum(taps * g[:, o])
    return grad


# name: (seed, leaf shapes, scalar loss through the op, range of the leaf values);
# each case keeps its seed when another is added or removed
_OPS = {
    "add": (0, [(2, 3), (2, 3)], lambda a, b: ad.mean(ad.add(a, b)), (-1, 1)),
    "sub": (17, [(2, 3), (2, 3)], lambda a, b: ad.mean(ad.sub(a, b)), (-1, 1)),
    "mul": (14, [(2, 3), (2, 3)], lambda a, b: ad.tsum(ad.mul(a, b)), (-1, 1)),
    "neg-scalars": (15, [(4,)], lambda a: ad.mean(1.5 - 2.0 * (-a) + 0.5), (-1, 1)),
    "log": (13, [(5,)], lambda a: ad.mean(ad.log(a)), (0.1, 1)),
    "sigmoid": (16, [(5,)], lambda a: ad.mean(ad.sigmoid(a)), (-30, 30)),
    "clip": (1, [(5,)], lambda a: ad.mean(ad.clip(a, -0.5, 0.5)), (-1, 1)),
    "flatten": (11, [(2, 3, 2)], lambda a: ad.mean(ad.flatten(a)), (-1, 1)),
    "dense": (10, [(3, 4), (4, 2), (2,)], lambda x, w, b: ad.mean(ad.dense(x, w, b)), (-1, 1)),
    "conv2d-bias": (2, [(2, 3, 8, 8), (5, 3, 4, 4), (5,)],
                    lambda x, k, b: ad.mean(ad.conv2d(x, k, 2, 1, bias=b)), (-1, 1)),
    "conv_transpose2d-bias": (6, [(2, 5, 3, 3), (5, 3, 4, 4), (3,)],
                              lambda x, k, b: ad.mean(ad.conv_transpose2d(x, k, 2, 1, bias=b)),
                              (-1, 1)),
    "conv2d-leak": (19, [(2, 3, 8, 8), (5, 3, 4, 4), (5,)],
                    lambda x, k, b: ad.mean(ad.conv2d(x, k, 2, 1, bias=b, leak=0.2)), (-1, 1)),
    "conv_transpose2d-leak": (20, [(2, 5, 3, 3), (5, 3, 4, 4), (3,)],
                              lambda x, k, b: ad.mean(
                                  ad.conv_transpose2d(x, k, 2, 1, bias=b, leak=0.2)),
                              (-1, 1)),
    # conv2d's input gradient takes _correlate_adjoint's kernel route when
    # there are more output pixels than kernels
    "conv2d-kernel-route": (4, [(2, 3, 8, 8), (5, 3, 4, 4)],
                            lambda x, k: ad.mean(ad.conv2d(x, k, 2, 1)), (-1, 1)),
    # fewer output pixels than kernels: the product route
    "conv2d-product-route": (5, [(1, 3, 4, 4), (40, 3, 4, 4)],
                             lambda x, k: ad.mean(ad.conv2d(x, k, 2, 1)), (-1, 1)),
    # a 3x3 kernel at stride 2 is zero-padded to 4x4 in the scatter
    "conv2d-k3-s2": (3, [(2, 3, 7, 7), (4, 3, 3, 3)],
                     lambda x, k: ad.mean(ad.conv2d(x, k, 2, 0)), (-1, 1)),
    # conv_transpose2d's forward pass takes the kernel route when there are
    # more input pixels than input channels, and the product route otherwise
    "conv_transpose2d-kernel-route": (8, [(2, 5, 3, 3), (5, 3, 4, 4)],
                                      lambda x, k: ad.mean(ad.conv_transpose2d(x, k, 2, 1)),
                                      (-1, 1)),
    "conv_transpose2d-product-route": (9, [(1, 8, 1, 2), (8, 3, 4, 4)],
                                       lambda x, k: ad.mean(ad.conv_transpose2d(x, k, 2, 1)),
                                       (-1, 1)),
    "conv_transpose2d-k3-s2": (7, [(2, 3, 4, 5), (3, 2, 3, 3)],
                               lambda x, k: ad.mean(ad.conv_transpose2d(x, k, 2, 0)), (-1, 1)),
}


def _run_op(name, dtype):
    """The loss and leaf gradients of one _OPS case, on seeded values in ``dtype``."""
    seed, shapes, loss_of, (lo, hi) = _OPS[name]
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.uniform(lo, hi, shape).astype(dtype), requires_grad=True)
              for shape in shapes]
    loss = loss_of(*leaves)
    loss.backward()
    return loss.data, [leaf.grad for leaf in leaves]


class TestDtypePolicy:
    @pytest.mark.parametrize("name", list(_OPS))
    def test_float32_in_float32_out(self, name):
        loss, grads = _run_op(name, np.float32)
        assert loss.dtype == np.float32
        assert [g.dtype for g in grads] == [np.float32] * len(grads)
        # and the values are those of the float64 computation, to float32 precision
        loss64, grads64 = _run_op(name, np.float64)
        np.testing.assert_allclose(loss, loss64, rtol=1e-5, atol=1e-6)
        for g, g64 in zip(grads, grads64):
            np.testing.assert_allclose(g, g64, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("data", [np.arange(6).reshape(2, 3), np.ones((2, 2), dtype=bool),
                                      np.linspace(0, 1, 5).astype(np.float16), [1, 2, 3], 3, 2.5],
                             ids=["int", "bool", "float16", "int-list", "int-scalar", "py-float"])
    def test_other_inputs_become_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    def test_float32_and_float64_are_kept_as_given(self):
        x32 = np.ones(3, dtype=np.float32)
        x64 = np.ones(3)
        assert Tensor(x32).data is x32
        assert Tensor(x64).data is x64

    @pytest.mark.parametrize("transpose", [False, True], ids=["conv2d", "conv_transpose2d"])
    def test_float64_input_with_float32_kernel_is_float64(self, transpose):
        # the trained kernels are float32 while callers may pass float64 data;
        # the op promotes to float64 and keeps the float64 loop accuracy
        rng = np.random.default_rng(77)
        if transpose:
            x = rng.uniform(0, 1, (2, 6, 5, 5))
            k = rng.standard_normal((6, 3, 4, 4)).astype(np.float32)
            op, loops = ad.conv_transpose2d, conv_transpose2d_loops
        else:
            x = rng.uniform(0, 1, (2, 1, 8, 8))
            k = rng.standard_normal((6, 1, 4, 4)).astype(np.float32)
            op, loops = ad.conv2d, conv2d_loops
        kt = Tensor(k, requires_grad=True)
        out = op(Tensor(x), kt, 2, 1)
        assert out.data.dtype == np.float64
        assert np.max(np.abs(out.data - loops(x, k, 2, 1))) < 1e-10
        g = rng.standard_normal(out.shape)
        ad.tsum(ad.mul(out, Tensor(g))).backward()
        assert kt.grad.dtype == np.float64
        ref = _kernel_grad_loops(x, g, k.shape, 2, 1, transpose)
        assert np.max(np.abs(kt.grad - ref)) < 1e-9
        # a float64 bias promotes a float32 map: the float32 sum plus the bias
        x32 = Tensor(x.astype(np.float32))
        b = rng.standard_normal(out.shape[1])
        biased = op(x32, Tensor(k), 2, 1, bias=Tensor(b))
        assert biased.data.dtype == np.float64
        want = op(x32, Tensor(k), 2, 1).data + b[:, None, None]
        assert np.array_equal(_bits(biased.data), _bits(want))

    def test_mixed_gradients_are_not_cast_down(self):
        a = Tensor(RNG.uniform(-1, 1, 4).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.uniform(-1, 1, 4), requires_grad=True)
        loss = ad.tsum(ad.mul(a, b))
        assert loss.data.dtype == np.float64
        loss.backward()
        assert a.grad.dtype == np.float64
        np.testing.assert_array_equal(a.grad, b.data)
        # a reduction hands a float64 gradient on as float64 too
        c = Tensor(RNG.uniform(-1, 1, 4).astype(np.float32), requires_grad=True)
        ad.mul(ad.mean(c), Tensor(3.0)).backward()
        assert c.grad.dtype == np.float64
        np.testing.assert_array_equal(c.grad, np.full(4, 0.75))
