"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

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
    """A float64 array with an optional gradient and graph bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_tape_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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
        tensor.grad = grad.copy() if isinstance(grad, np.ndarray) else np.asarray(grad)
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
        _accumulate(a, np.full_like(a.data, float(g)))

    return _record(np.asarray(a.data.sum()), (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise DimensionError("mean of an empty tensor")

    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g) / n))

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
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

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
    for a slope in (0, 1] (and for a slope of 0 on finite x); the mask is
    built only when a gradient is asked for."""
    out = np.maximum(a.data, slope * a.data)

    def backward(g):
        _accumulate(a, np.where(a.data > 0.0, g, slope * g))

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


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fully connected layer: x [N, D] @ w [D, M] (+ bias [M])."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(f"dense expects 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"dense: inner axes differ, {x.shape[1]} vs {w.shape[0]}")
    out = x.data @ w.data
    if b is not None:
        if b.data.ndim != 1 or b.shape[0] != w.shape[1]:
            raise DimensionError(f"dense bias must have shape ({w.shape[1]},), got {b.shape}")
        out = out + b.data

    def backward(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        if b is not None:
            _accumulate(b, g.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _record(out, parents, backward)


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
    """Lay the (kh, kw) sliding windows of x [N, C, H, W], zero-padded by
    ``padding``, out as a [N * Ho * Wo, C * kh * kw] matrix (rows in
    batch/row/column order).  The padded copy is channel-last, so each row
    is gathered from short contiguous runs."""
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
    xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    sn, sh, sw, sc = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (n, ho, wo, c, kh, kw), (sn, sh * stride, sw * stride, sc, sh, sw),
        writeable=False)
    return win.reshape(n * ho * wo, c * kh * kw), ho, wo


def _tap_gemm(a: np.ndarray, kmat: np.ndarray, c: int, kh: int, kw: int) -> np.ndarray:
    """``a @ kmat`` for a kernel matrix with (C, kh, kw) columns, returned as
    a [rows, kh, kw, C] tap-major array (possibly a view).

    Two routes give the tap-major order.  The kernel route copies the
    kernel into tap-major columns before the GEMM, so the product comes out
    contiguous.  The product route copies nothing and returns a transposed
    view of the product; its cost moves into _scatter_taps, whose adds then
    read strided memory.  The product route is taken when the product has
    fewer rows than the kernel matrix, that is when it is the smaller of
    the two arrays: one-patch inference then skips copying the 1 MB first
    decoder kernel, while training batches keep contiguous taps (the
    product route alone made a batch-50 training step about 15 % slower).
    Only the column order of the GEMM differs, so every dot product, and
    with it every output bit, is the same on both routes.
    """
    rows = a.shape[0]
    if rows < kmat.shape[0]:
        return (a @ kmat).reshape(rows, c, kh, kw).transpose(0, 2, 3, 1)
    kperm = kmat.reshape(-1, c, kh, kw).transpose(0, 2, 3, 1).reshape(-1, kh * kw * c)
    return (a @ kperm).reshape(rows, kh, kw, c)


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
        padded = np.zeros((n, ho, wo, th * s, tw * s, c))
        padded[:, :, :, :kh, :kw] = taps
        taps = padded
    # [N, di, dj, Ho, phase a, Wo, phase b, C]
    taps = taps.reshape(n, ho, wo, th, s, tw, s, c).transpose(0, 3, 5, 1, 4, 2, 6, 7)
    # at least full_h x full_w: conv2d's input can end in rows no window reads
    hh = max(ho + th - 1, -(-full_h // s))
    ww = max(wo + tw - 1, -(-full_w // s))
    out = np.zeros((n, hh, s, ww, s, c))
    for di in range(th):
        for dj in range(tw):
            out[:, di:di + ho, :, dj:dj + wo] += taps[:, di, dj]
    out = out.reshape(n, hh * s, ww * s, c)[:, :full_h, :full_w]
    return out.transpose(0, 3, 1, 2)


def _check_conv_args(stride: int, padding: int) -> None:
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise DimensionError(f"padding must be >= 0, got {padding}")


def conv2d(x: Tensor, k: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate x [N, C, H, W] with kernels k [K, C, kh, kw].

    Output is [N, K, H', W'] with H' = floor((H + 2 * padding - kh) / stride) + 1.
    """
    _check_conv_args(stride, padding)
    if x.data.ndim != 4:
        raise DimensionError(f"conv2d input must be [N, C, H, W], got {x.shape}")
    if k.data.ndim != 4:
        raise DimensionError(f"conv2d kernel must be [K, C, kh, kw], got {k.shape}")
    n, c, h, w = x.shape
    kk, kc, kh, kw = k.shape
    if kc != c:
        raise DimensionError(f"conv2d: kernel expects {kc} input channels, map has {c}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise DimensionError(
            f"conv2d: kernel ({kh}x{kw}) larger than padded input "
            f"({h + 2 * padding}x{w + 2 * padding})")

    cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    kmat = k.data.reshape(kk, c * kh * kw)
    out = (cols @ kmat.T).reshape(n, ho, wo, kk).transpose(0, 3, 1, 2)
    full_h, full_w = h + 2 * padding, w + 2 * padding

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, kk)
        if k.requires_grad:
            _accumulate(k, (g2.T @ cols).reshape(kk, c, kh, kw))
        if x.requires_grad:
            taps = _tap_gemm(g2, kmat, c, kh, kw).reshape(n, ho, wo, kh, kw, c)
            gxp = _scatter_taps(taps, stride, full_h, full_w)
            if padding:
                gxp = gxp[:, :, padding:full_h - padding, padding:full_w - padding]
            _accumulate(x, gxp)

    return _record(out, (x, k), backward)


def conv_transpose2d(x: Tensor, k: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed convolution of x [N, C, H, W] with kernels k [C, K, kh, kw].

    Output is [N, K, H', W'] with H' = (H - 1) * stride - 2 * padding + kh.
    With identical kernel values this operation is the exact adjoint of
    ``conv2d`` under the Frobenius inner product.
    """
    _check_conv_args(stride, padding)
    if x.data.ndim != 4:
        raise DimensionError(f"conv_transpose2d input must be [N, C, H, W], got {x.shape}")
    if k.data.ndim != 4:
        raise DimensionError(f"conv_transpose2d kernel must be [C, K, kh, kw], got {k.shape}")
    n, c, h, w = x.shape
    kc, kk, kh, kw = k.shape
    if kc != c:
        raise DimensionError(f"conv_transpose2d: kernel expects {kc} input channels, map has {c}")
    full_h = (h - 1) * stride + kh
    full_w = (w - 1) * stride + kw
    out_h = full_h - 2 * padding
    out_w = full_w - 2 * padding
    if out_h < 1 or out_w < 1:
        raise DimensionError(
            f"conv_transpose2d: padding {padding} consumes the whole {full_h}x{full_w} output")

    x2 = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1)).reshape(n * h * w, c)
    kmat = k.data.reshape(c, kk * kh * kw)
    taps = _tap_gemm(x2, kmat, kk, kh, kw).reshape(n, h, w, kh, kw, kk)
    full = _scatter_taps(taps, stride, full_h, full_w)
    out = full[:, :, padding:full_h - padding, padding:full_w - padding]

    def backward(g):
        gcols, gh, gw = _im2col(g, kh, kw, stride, padding)
        # gcols rows follow x's spatial order, columns follow (K, kh, kw)
        if k.requires_grad:
            _accumulate(k, (x2.T @ gcols).reshape(c, kk, kh, kw))
        if x.requires_grad:
            gx = (gcols @ kmat.T).reshape(n, h, w, c).transpose(0, 3, 1, 2)
            _accumulate(x, np.ascontiguousarray(gx))

    return _record(np.ascontiguousarray(out), (x, k), backward)
