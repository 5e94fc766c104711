"""Minimal reverse-mode automatic differentiation on float32 or float64 numpy
arrays.

The engine is define-by-run: every operation immediately computes its value
and, when gradients are enabled, records a backward closure plus references
to its parents.  Calling ``backward()`` on a scalar replays those closures in
exact reverse creation order (a global monotonically increasing id doubles
as the tape position), accumulating ``.grad`` arrays on every tensor that
requires gradients.  Each node's graph and gradient are released as soon
as its closure has run, so the activations behind a loss are freed while
its gradients are built, and a tensor can be reused as a fresh leaf.

Only the operations needed by the models in this package are provided.
Shapes are checked strictly: apart from the bias of the dense and conv
layers there is no broadcasting.

A transposed convolution is a convolution's input gradient, so conv2d and
conv_transpose2d share three array kernels.  Each runs its GEMM channel-last:
the im2col columns are tap-major (kh, kw, C), built once per GEMM input by
copying each window row, kw pixels of C channels, as one item, and the
product is an [N, H, W, K] array seen as [N, K, H, W].  Outputs and
gradients keep that memory order, so the next GEMM reads them as pixel rows
without a transposing copy.  Every kernel [A, B, kh, kw] is read tap-major,
without a copy when it is laid out (A, kh, kw, B) in memory, as the model
stores all of its kernels, and its gradient comes out in that layout.

The BLAS may sum a product with more rows in another order, so one GEMM
over a batch need not give each sample the bits it gets alone.  Under
``per_sample()`` the correlation and its adjoint, the products of both
forward passes and both input gradients, run one GEMM per sample, so a
batch of patches is scored to the bits of per-patch calls.  Training does
not use it: one GEMM over the batch is faster.

A conv op adds its layer's bias and applies its LeakyReLU, where(y > 0, y,
slope * y) of the pre-activation y, itself, so a layer keeps one output map,
not a pre-bias or pre-activation copy too: for a slope in (0, 1] the output
has y's signs, which are all the activation's gradient reads.  conv2d adds
the bias into its fresh GEMM product unless the bias promotes the dtype,
and the LeakyReLU overwrites y, so neither allocates another map.
It holds its input array and its kernel, which the graph keeps anyway, and
no column matrix; the backward pass rebuilds the columns of the kernel
gradient, which costs a copy per step but cuts a training step's peak
memory by about a third.  conv_transpose2d's backward pass builds the
columns of its output gradient once for both of its GEMMs.

Dtypes follow the data.  A tensor keeps float32 or float64 values as given
(anything else becomes float64), every buffer an operation allocates takes
its operands' dtype, and an operation that mixes the two follows numpy
promotion, so float64 wins.  Gradients are never cast down: a float32 leaf
used in a float64 computation receives a float64 gradient.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError, DomainError

_tape_counter = itertools.count()
_grad_enabled = True
_per_sample = False


@contextmanager
def no_grad():
    """Context manager that suspends graph recording.

    Values computed inside come out as plain leaves.  It is the engine's
    one way to cut the graph: generated samples are made under it before a
    critic scores them, and logged losses are computed under it.
    """
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def per_sample():
    """Context manager under which the conv products run one GEMM per sample.

    Inside, ``_correlate`` and ``_correlate_adjoint`` take their products as
    stacked matmuls, one [rows per sample, D] matrix per sample, which numpy
    hands to the BLAS one sample at a time, so each sample of a batch gets
    the bits it gets alone (see the module docstring).  Batched scoring runs
    under it; training does not.
    """
    global _per_sample
    prev = _per_sample
    _per_sample = True
    try:
        yield
    finally:
        _per_sample = prev


class Tensor:
    """A float32 or float64 array with an optional gradient and graph
    bookkeeping; any other input is cast to float64."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_tape_id")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self._tape_id = next(_tape_counter)

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single value, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward pass -------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar with respect to all leaves.

        Closures run in exact reverse insertion order, so the result is
        deterministic for a deterministic forward pass.  Each node is
        dropped once its closure has run (no pending closure reads it), so
        only the caller's references keep its data alive from then on.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor that does not require gradients")

        nodes: list[Tensor] = []
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            for parent in node._parents:
                if parent.requires_grad:
                    stack.append(parent)
        nodes.sort(key=lambda n: n._tape_id)

        self.grad = np.ones_like(self.data)
        while nodes:
            node = nodes.pop()
            if node._backward is not None:
                node._backward(node.grad)
                # interior nodes will not be revisited; release graph + grad
                node._backward = None
                node._parents = ()
                if node is not self:
                    node.grad = None

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(neg(self), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return mul_scalar(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)


def _record(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    if not tensor.requires_grad:
        return
    if np.shape(grad) != tensor.shape:
        raise ContractError(
            f"gradient of shape {np.shape(grad)} for a tensor of shape {tensor.shape}")
    if tensor.grad is None:
        # no code writes into a .grad, so it may share its buffer; only a
        # crop or a broadcast of another buffer is copied, in its own memory
        # order, so that a channel-last gradient stays channel-last
        grad = np.asarray(grad)  # a 0-d result can be a numpy scalar
        if grad.base is not None and getattr(grad.base, "nbytes", 0) != grad.nbytes:
            grad = grad.copy(order="K")
        tensor.grad = grad
    else:
        tensor.grad = tensor.grad + grad


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# -- elementwise arithmetic ------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _record(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _record(a.data * b.data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, -g)

    return _record(-a.data, (a,), backward)


def add_scalar(a: Tensor, c: float) -> Tensor:
    def backward(g):
        _accumulate(a, g)

    return _record(a.data + c, (a,), backward)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    def backward(g):
        _accumulate(a, g * c)

    return _record(a.data * c, (a,), backward)


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, np.full(a.shape, g))

    return _record(np.asarray(a.data.sum()), (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise DimensionError("mean of an empty tensor")

    def backward(g):
        _accumulate(a, np.full(a.shape, g / n))

    return _record(np.asarray(a.data.mean()), (a,), backward)


# -- nonlinearities ----------------------------------------------------------


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log of a non-positive value; clamp before taking log")
    out = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return _record(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so that
    # exp never overflows
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def backward(g):
        _accumulate(a, g * out * (1.0 - out))

    return _record(out, (a,), backward)


def _leaky(x: np.ndarray, slope: float):
    """max(x, slope * x), which equals where(x > 0, x, slope * x) bit for bit
    for a slope in (0, 1], and its gradient function grad(g).

    It consumes x: the output is written into x's buffer, which the caller
    must own, and x is the output.  The gradient g * fmax(sign(out), slope)
    equals where(x > 0, g, slope * g) bit for bit: the output is positive
    exactly where x was and NaN exactly where x was, so the factor is
    exactly 1 above zero and exactly the slope, rounded to g's dtype, at or
    below zero and at NaN (whose sign is NaN).  The factor is built in one
    buffer; the product is a new array, whose memory order numpy takes from
    g and the factor."""
    out = np.maximum(x, slope * x, out=x)

    def grad(g):
        f = np.sign(out).astype(g.dtype, copy=False)
        np.fmax(f, slope, out=f)
        return g * f

    return out, grad


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; the gradient passes through the interior only."""
    if not lo < hi:
        raise DomainError(f"clip needs lo < hi, got [{lo}, {hi}]")
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        _accumulate(a, np.where(inside, g, 0.0))

    return _record(out, (a,), backward)


# -- shape manipulation -------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = a.shape
    out = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(orig))

    return _record(out, (a,), backward)


def flatten(a: Tensor) -> Tensor:
    """Collapse every axis after the first (the batch axis)."""
    if a.data.ndim < 2:
        raise DimensionError(f"flatten needs rank >= 2, got shape {a.shape}")
    return reshape(a, (a.shape[0], -1))


# -- affine layers ------------------------------------------------------------


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully connected layer: x [N, D] @ w [D, M] + bias [M]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(f"dense expects 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"dense: inner axes differ, {x.shape[1]} vs {w.shape[0]}")
    if b.data.ndim != 1 or b.shape[0] != w.shape[1]:
        raise DimensionError(f"dense bias must have shape ({w.shape[1]},), got {b.shape}")
    out = x.data @ w.data + b.data

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    return _record(out, (x, w, b), backward)


# -- convolution --------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """The (kh, kw) sliding windows of x [N, C, H, W], zero-padded by
    ``padding``, as a contiguous [N * Ho * Wo, kh * kw * C] column matrix:
    tap-major (kh, kw, C) columns, rows in batch/row/column order.

    A window row, kw pixels of C channels, is kw * C adjacent values of the
    padded channel-last copy, so it is copied as one opaque item of that
    many bytes; channel-major (C, kh, kw) columns would be copied one
    element at a time.  The padded copy is freed on return.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    row = np.dtype(f"V{kw * c * xp.itemsize}")
    cols = np.empty((n * ho * wo, kh * kw * c), dtype=x.dtype)
    sn, sh, sw, _ = xp.strides
    # the ndarray constructor builds the view several times faster than as_strided
    cols.view(row).reshape(n, ho, wo, kh)[...] = np.ndarray(
        (n, ho, wo, kh), row, xp, 0, (sn, sh * stride, sw * stride, sh))
    return cols


def _pixel_rows(x: np.ndarray) -> np.ndarray:
    """x [N, C, H, W] as a contiguous [N * H * W, C] matrix; no copy when x
    is stored channel-last."""
    n, c, h, w = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n * h * w, c)


def _matmul(rows: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """rows [n * r, D] @ m [D, M] as one GEMM, or under ``per_sample`` as
    n GEMMs of r rows each (for n = 1 the same GEMM); an [n * r, M] product
    either way."""
    if _per_sample and n > 1:
        return (rows.reshape(n, -1, rows.shape[1]) @ m).reshape(-1, m.shape[1])
    return rows @ m


def _correlate(cols: np.ndarray, k: np.ndarray, n: int, ho: int, wo: int) -> np.ndarray:
    """_im2col columns of an [N, C, H, W] map correlated with kernels
    k [K, C, kh, kw], as an [N, K, Ho, Wo] view of a channel-last product:
    conv2d's forward pass and conv_transpose2d's input gradient.

    The kernel is read in the columns' tap-major (kh, kw, C) order, without
    a copy if it is stored (K, kh, kw, C) in memory."""
    kmat = k.transpose(0, 2, 3, 1).reshape(k.shape[0], -1)
    return _matmul(cols, kmat.T, n).reshape(n, ho, wo, -1).transpose(0, 3, 1, 2)


def _correlate_adjoint(y: np.ndarray, k: np.ndarray, stride: int, padding: int,
                       full_h: int, full_w: int) -> np.ndarray:
    """The adjoint of _correlate: each pixel of y [N, K, H, W] times the
    kernels k [K, C, kh, kw], added back at its taps and cropped by
    ``padding``, as an [N, C, full_h - 2 * padding, full_w - 2 * padding]
    view: conv_transpose2d's forward pass and conv2d's input gradient.

    Tap (stride * di + a, stride * dj + b) of pixel (i, j) lands at phase
    (a, b) of cell (i + di, j + dj), so each tap pair (di, dj) adds one
    contiguous [N, H, W, stride, stride, C] block to a phase-last buffer,
    which is then copied depth-to-space.  Every element sums its taps in
    (di, dj) order from +0.0; zero taps that pad the kernel to a multiple of
    the stride change no sum.  The kernel route copies the kernel tap pair
    first and runs one GEMM per pair.  The product route runs one GEMM on
    the kernel's tap-major matrix, read as _correlate reads it, and adds
    strided views of the product; it is taken when there are fewer rows than
    kernels, as at batch 1 on the deepest layers, where it is the faster
    route.  The routes differ only in column order, so in no output bit.
    Under ``per_sample`` the route is picked by the rows of one sample, as a
    batch-1 call picks it.
    """
    n, _, h, w = y.shape
    s = stride
    rows = _pixel_rows(y)
    kk, c, kh, kw = k.shape
    th, tw = -(-kh // s), -(-kw // s)
    if (th * s, tw * s) != (kh, kw):
        k = np.pad(k, ((0, 0), (0, 0), (0, th * s - kh), (0, tw * s - kw)))
    if (h * w if _per_sample else rows.shape[0]) < kk:
        # [N, H, W, di, dj, a, b, C]
        taps = _matmul(rows, k.transpose(0, 2, 3, 1).reshape(kk, -1), n)
        taps = taps.reshape(n, h, w, th, s, tw, s, c).transpose(0, 1, 2, 3, 5, 4, 6, 7)

        def block(di, dj):
            return taps[:, :, :, di, dj]
    else:
        # [di, dj, K, a, b, C]
        kt = np.ascontiguousarray(k.reshape(kk, c, th, s, tw, s).transpose(2, 4, 0, 3, 5, 1))

        def block(di, dj):
            return _matmul(rows, kt[di, dj].reshape(kk, -1), n).reshape(n, h, w, s, s, c)
    # at least full_h x full_w: conv2d's input can end in rows no window reads
    hh = max(h + th - 1, -(-full_h // s))
    ww = max(w + tw - 1, -(-full_w // s))
    out = np.zeros((n, hh, ww, s, s, c), dtype=np.result_type(rows, k))
    for di in range(th):
        for dj in range(tw):
            out[:, di:di + h, dj:dj + w] += block(di, dj)
    out = out.transpose(0, 1, 3, 2, 4, 5).reshape(n, hh * s, ww * s, c)
    return out[:, padding:full_h - padding, padding:full_w - padding].transpose(0, 3, 1, 2)


def _window_grad(cols: np.ndarray, g: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The gradient of a (kh, kw) kernel correlated with _im2col columns to
    give g [N, G, Ho, Wo], as a [G, C, kh, kw] view of the (G, kh, kw, C)
    product, the layout the model stores its kernels in: the kernel
    gradient of both ops.  Each entry is one dot product over the rows."""
    return (_pixel_rows(g).T @ cols).reshape(g.shape[1], kh, kw, -1).transpose(0, 3, 1, 2)


def _check_conv(x: Tensor, k: Tensor, bias: Tensor | None, leak: float | None, stride: int,
                padding: int, transpose: bool) -> None:
    op, axes = ("conv_transpose2d", "C, K") if transpose else ("conv2d", "K, C")
    # NaN fails both comparisons
    if leak is not None and not 0.0 < leak <= 1.0:
        raise DomainError(f"{op}: leak must lie in (0, 1], got {leak}")
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise DimensionError(f"padding must be >= 0, got {padding}")
    if x.data.ndim != 4:
        raise DimensionError(f"{op} input must be [N, C, H, W], got {x.shape}")
    if 0 in x.shape[:2]:
        raise DimensionError(f"{op} input has no samples or no channels, got shape {x.shape}")
    if k.data.ndim != 4:
        raise DimensionError(f"{op} kernel must be [{axes}, kh, kw], got {k.shape}")
    kc = k.shape[0 if transpose else 1]
    if kc != x.shape[1]:
        raise DimensionError(f"{op}: kernel expects {kc} input channels, map has {x.shape[1]}")
    ko = k.shape[1 if transpose else 0]
    if bias is not None and (bias.data.ndim != 1 or bias.shape[0] != ko):
        raise DimensionError(f"bias must have shape ({ko},), got {bias.shape}")


def conv2d(x: Tensor, k: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None, leak: float | None = None) -> Tensor:
    """Cross-correlate x [N, C, H, W] with kernels k [K, C, kh, kw], plus a
    per-channel ``bias`` [K] if given, then apply a LeakyReLU of slope
    ``leak`` in (0, 1] if given.

    Output is [N, K, H', W'] with H' = floor((H + 2 * padding - kh) / stride) + 1.
    With y the pre-activation conv2d(x, k, stride, padding, bias), the output
    is where(y > 0, y, leak * y) and the gradient that reaches y is
    where(y > 0, g, leak * g), bit for bit, but the layer keeps one output
    map, not y as well.
    """
    _check_conv(x, k, bias, leak, stride, padding, transpose=False)
    h, w = x.shape[2:]
    kh, kw = k.shape[2:]
    full_h, full_w = h + 2 * padding, w + 2 * padding
    if full_h < kh or full_w < kw:
        raise DimensionError(
            f"conv2d: kernel ({kh}x{kw}) larger than padded input ({full_h}x{full_w})")

    xd, kd = x.data, k.data
    ho, wo = (full_h - kh) // stride + 1, (full_w - kw) // stride + 1
    out = _correlate(_im2col(xd, kh, kw, stride, padding), kd, len(xd), ho, wo)
    if bias is not None:
        b = bias.data[None, :, None, None]
        # in place into the fresh product unless the bias promotes it
        out = np.add(out, b, out=out) if np.result_type(out, b) == out.dtype else out + b
    if leak is not None:
        out, leak_grad = _leaky(out, leak)

    def backward(g):
        if leak is not None:
            # the output's signs are the pre-activation's; the sums below add
            # in this gradient's memory order, which numpy takes from g and
            # the output
            g = leak_grad(g)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if k.requires_grad:
            _accumulate(k, _window_grad(_im2col(xd, kh, kw, stride, padding), g, kh, kw))
        if x.requires_grad:
            _accumulate(x, _correlate_adjoint(g, kd, stride, padding, full_h, full_w))

    return _record(out, (x, k) if bias is None else (x, k, bias), backward)


def conv_transpose2d(x: Tensor, k: Tensor, stride: int = 1, padding: int = 0,
                     bias: Tensor | None = None, leak: float | None = None) -> Tensor:
    """Transposed convolution of x [N, C, H, W] with kernels k [C, K, kh, kw],
    plus a per-channel ``bias`` [K] if given, then a LeakyReLU of slope
    ``leak`` in (0, 1] if given.

    Output is [N, K, H', W'] with H' = (H - 1) * stride - 2 * padding + kh.
    With identical kernel values, no bias and no leak this operation is the
    exact adjoint of ``conv2d`` under the Frobenius inner product.  As for
    ``conv2d``, ``leak`` gives the where form's output and gradient bit for
    bit and keeps one output map.
    """
    _check_conv(x, k, bias, leak, stride, padding, transpose=True)
    h, w = x.shape[2:]
    kh, kw = k.shape[2:]
    full_h, full_w = (h - 1) * stride + kh, (w - 1) * stride + kw
    if full_h - 2 * padding < 1 or full_w - 2 * padding < 1:
        raise DimensionError(
            f"conv_transpose2d: padding {padding} consumes the whole {full_h}x{full_w} output")

    xd, kd = x.data, k.data
    out = _correlate_adjoint(xd, kd, stride, padding, full_h, full_w)
    # a new array either way, not a view of the larger uncropped sum
    out = out.copy(order="K") if bias is None else out + bias.data[None, :, None, None]
    if leak is not None:
        out, leak_grad = _leaky(out, leak)

    def backward(g):
        if leak is not None:
            g = leak_grad(g)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        # g's windows line up with x's pixels; both GEMMs read one matrix
        cols = _im2col(g, kh, kw, stride, padding)
        if k.requires_grad:
            _accumulate(k, _window_grad(cols, xd, kh, kw))
        if x.requires_grad:
            _accumulate(x, _correlate(cols, kd, len(xd), h, w))

    return _record(out, (x, k) if bias is None else (x, k, bias), backward)
