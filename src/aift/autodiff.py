"""Minimal reverse-mode automatic differentiation on float32 or float64 numpy
arrays.

The engine is define-by-run: every operation immediately computes its value
and, when gradients are enabled, records a backward closure plus references
to its parents.  Calling ``backward()`` on a scalar replays those closures in
exact reverse creation order (a global monotonically increasing id doubles
as the tape position), accumulating ``.grad`` arrays on every tensor that
requires gradients.  The recorded graph is released afterwards so that a
tensor can be reused as a fresh leaf.

Only the operations needed by the models in this package are provided.
Shapes are checked strictly: apart from the explicit bias-add helpers there
is no broadcasting.

A transposed convolution is a convolution's input gradient, so conv2d and
conv_transpose2d share three array kernels.  A conv node holds its input
array and its kernel, which the graph keeps anyway, and no column matrix;
the backward pass rebuilds the columns of the kernel gradient, which costs
a copy per step but cuts a training step's peak memory by about a third.

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


@contextmanager
def no_grad():
    """Context manager that suspends graph recording.

    Values computed inside come out as plain leaves, which is how generated
    samples are detached before being scored by a critic.
    """
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single value, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward pass -------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar with respect to all leaves.

        Closures run in exact reverse insertion order, so the result is
        deterministic for a deterministic forward pass.  The graph reachable
        from this tensor is dismantled afterwards.
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
        nodes.sort(key=lambda n: n._tape_id, reverse=True)

        self.grad = np.ones_like(self.data)
        for node in nodes:
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
        # no code writes into a .grad, so only a strided view is copied
        tensor.grad = np.asarray(grad, order="C")
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


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out * out))

    return _record(out, (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    """max(x, slope * x), which equals where(x > 0, x, slope * x) bit for bit
    for a slope in (0, 1] (and for a slope of 0 on finite x).

    The gradient g * fmax(sign(x), slope) equals where(x > 0, g, slope * g)
    bit for bit for a slope in [0, 1]: the factor is exactly 1 above zero
    and exactly the slope, rounded to g's dtype, at or below zero, and NaN
    (whose sign is NaN) takes the slope as well."""
    out = np.maximum(a.data, slope * a.data)

    def backward(g):
        _accumulate(a, g * np.fmax(np.sign(a.data).astype(g.dtype, copy=False), slope))

    return _record(out, (a,), backward)


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
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    return _record(out, (x, w, b), backward)


def add_channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias [C] to a feature map [N, C, H, W].

    This is the only broadcast the engine performs.
    """
    if x.data.ndim != 4:
        raise DimensionError(f"add_channel_bias expects [N, C, H, W], got {x.shape}")
    if b.data.ndim != 1 or b.shape[0] != x.shape[1]:
        raise DimensionError(f"bias must have shape ({x.shape[1]},), got {b.shape}")
    out = x.data + b.data[None, :, None, None]

    def backward(g):
        _accumulate(x, g)
        _accumulate(b, g.sum(axis=(0, 2, 3)))

    return _record(out, (x, b), backward)


# -- convolution --------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """The (kh, kw) sliding windows of x [N, C, H, W], zero-padded by
    ``padding``, as a read-only [N, Ho, Wo, kh, kw, C] view of a padded
    channel-last copy.

    Reshaped as it is, the view gives tap-major (kh, kw, C) columns, copied
    in contiguous runs of C.  With C moved first it gives the (C, kh, kw)
    columns that match a [K, C, kh, kw] kernel, copied one element at a
    time.  Rows come in batch/row/column order either way.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    sn, sh, sw, sc = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, ho, wo, kh, kw, c), (sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False)


def _scatter_taps(taps: np.ndarray, stride: int, full_h: int, full_w: int) -> np.ndarray:
    """Inverse of _im2col up to summation: add every window entry back at the
    padded position it was read from.  ``taps`` is [N, Ho, Wo, kh, kw, C];
    the sum is built channel-last and returned as an [N, C, full_h, full_w]
    view.

    Tap i = stride * di + a only ever lands on rows of phase a, so with the
    buffer viewed as [N, rows/stride, stride, cols/stride, stride, C] all
    stride**2 phases of one (di, dj) go in with a single add.  Every element
    still receives its taps in i-major order; the zero taps that pad a
    kernel to a multiple of the stride add +0.0, which changes no sum.
    """
    n, ho, wo, kh, kw, c = taps.shape
    s = stride
    th, tw = -(-kh // s), -(-kw // s)
    if th * s != kh or tw * s != kw:
        padded = np.zeros((n, ho, wo, th * s, tw * s, c), dtype=taps.dtype)
        padded[:, :, :, :kh, :kw] = taps
        taps = padded
    # [N, di, dj, Ho, phase a, Wo, phase b, C]
    taps = taps.reshape(n, ho, wo, th, s, tw, s, c).transpose(0, 3, 5, 1, 4, 2, 6, 7)
    # at least full_h x full_w: conv2d's input can end in rows no window reads
    hh = max(ho + th - 1, -(-full_h // s))
    ww = max(wo + tw - 1, -(-full_w // s))
    out = np.zeros((n, hh, s, ww, s, c), dtype=taps.dtype)
    for di in range(th):
        for dj in range(tw):
            out[:, di:di + ho, :, dj:dj + wo] += taps[:, di, dj]
    out = out.reshape(n, hh * s, ww * s, c)[:, :full_h, :full_w]
    return out.transpose(0, 3, 1, 2)


def _pixel_rows(x: np.ndarray) -> np.ndarray:
    """x [N, C, H, W] as a contiguous [N * H * W, C] matrix."""
    n, c, h, w = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n * h * w, c)


def _correlate(win: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """The channel-major (C, kh, kw) columns of an _im2col view times the
    transposed [K, C * kh * kw] kernel matrix, as an [N, K, Ho, Wo] view:
    conv2d's forward pass and conv_transpose2d's input gradient."""
    n, ho, wo, kh, kw, c = win.shape
    cols = win.transpose(0, 1, 2, 5, 3, 4).reshape(n * ho * wo, c * kh * kw)
    return (cols @ kmat.T).reshape(n, ho, wo, -1).transpose(0, 3, 1, 2)


def _correlate_adjoint(y: np.ndarray, kmat: np.ndarray, kh: int, kw: int, stride: int,
                       padding: int, full_h: int, full_w: int) -> np.ndarray:
    """The adjoint of _correlate: each pixel of y [N, K, H, W] times the
    [K, C * kh * kw] kernel matrix, added back at its taps and cropped by
    ``padding``, as an [N, C, full_h - 2 * padding, full_w - 2 * padding]
    view: conv_transpose2d's forward pass and conv2d's input gradient.

    The product comes out tap-major, [rows, kh, kw, C], by one of two routes
    that differ only in the GEMM's column order, so in no output bit.  The
    kernel route copies the kernel into tap-major columns and gets a
    contiguous product.  The product route, taken when the product has
    fewer rows than the kernel matrix, copies nothing and hands
    _scatter_taps a transposed view, whose adds then read strided memory:
    one-patch inference skips copying the 1 MB first decoder kernel, while
    training batches keep contiguous taps (the product route alone made a
    batch-50 training step about 15 % slower).
    """
    n, _, h, w = y.shape
    rows = _pixel_rows(y)
    c = kmat.shape[1] // (kh * kw)
    if rows.shape[0] < kmat.shape[0]:
        taps = (rows @ kmat).reshape(-1, c, kh, kw).transpose(0, 2, 3, 1)
    else:
        kperm = kmat.reshape(-1, c, kh, kw).transpose(0, 2, 3, 1).reshape(-1, kh * kw * c)
        taps = rows @ kperm
    full = _scatter_taps(taps.reshape(n, h, w, kh, kw, c), stride, full_h, full_w)
    return full[:, :, padding:full_h - padding, padding:full_w - padding]


def _window_grad(win: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a kernel correlated with an _im2col view to give
    g [N, G, Ho, Wo], as a contiguous [G, C, kh, kw] array: the kernel
    gradient of both ops.  Tap-major columns copy faster than (C, kh, kw),
    and each entry is still one dot product over the same rows."""
    n, ho, wo, kh, kw, c = win.shape
    cols = win.reshape(n * ho * wo, kh * kw * c)
    gk = (_pixel_rows(g).T @ cols).reshape(-1, kh, kw, c).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(gk)


def _check_conv(x: Tensor, k: Tensor, stride: int, padding: int, transpose: bool) -> None:
    op, axes = ("conv_transpose2d", "C, K") if transpose else ("conv2d", "K, C")
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise DimensionError(f"padding must be >= 0, got {padding}")
    if x.data.ndim != 4:
        raise DimensionError(f"{op} input must be [N, C, H, W], got {x.shape}")
    if k.data.ndim != 4:
        raise DimensionError(f"{op} kernel must be [{axes}, kh, kw], got {k.shape}")
    kc = k.shape[0 if transpose else 1]
    if kc != x.shape[1]:
        raise DimensionError(f"{op}: kernel expects {kc} input channels, map has {x.shape[1]}")


def conv2d(x: Tensor, k: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate x [N, C, H, W] with kernels k [K, C, kh, kw].

    Output is [N, K, H', W'] with H' = floor((H + 2 * padding - kh) / stride) + 1.
    """
    _check_conv(x, k, stride, padding, transpose=False)
    h, w = x.shape[2:]
    kk, _, kh, kw = k.shape
    full_h, full_w = h + 2 * padding, w + 2 * padding
    if full_h < kh or full_w < kw:
        raise DimensionError(
            f"conv2d: kernel ({kh}x{kw}) larger than padded input ({full_h}x{full_w})")

    xd = x.data
    kmat = k.data.reshape(kk, -1)
    out = _correlate(_im2col(xd, kh, kw, stride, padding), kmat)

    def backward(g):
        if k.requires_grad:
            _accumulate(k, _window_grad(_im2col(xd, kh, kw, stride, padding), g))
        if x.requires_grad:
            _accumulate(x, _correlate_adjoint(g, kmat, kh, kw, stride, padding, full_h, full_w))

    return _record(out, (x, k), backward)


def conv_transpose2d(x: Tensor, k: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed convolution of x [N, C, H, W] with kernels k [C, K, kh, kw].

    Output is [N, K, H', W'] with H' = (H - 1) * stride - 2 * padding + kh.
    With identical kernel values this operation is the exact adjoint of
    ``conv2d`` under the Frobenius inner product.
    """
    _check_conv(x, k, stride, padding, transpose=True)
    h, w = x.shape[2:]
    c, _, kh, kw = k.shape
    full_h, full_w = (h - 1) * stride + kh, (w - 1) * stride + kw
    if full_h - 2 * padding < 1 or full_w - 2 * padding < 1:
        raise DimensionError(
            f"conv_transpose2d: padding {padding} consumes the whole {full_h}x{full_w} output")

    xd = x.data
    kmat = k.data.reshape(c, -1)
    out = _correlate_adjoint(xd, kmat, kh, kw, stride, padding, full_h, full_w)

    def backward(g):
        # g's windows line up with x's pixels
        win = _im2col(g, kh, kw, stride, padding)
        if k.requires_grad:
            _accumulate(k, _window_grad(win, xd))
        if x.requires_grad:
            _accumulate(x, _correlate(win, kmat))

    return _record(np.ascontiguousarray(out), (x, k), backward)
