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


def grad_enabled() -> bool:
    return _grad_enabled


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

    def assert_finite(self, name: str = "tensor") -> "Tensor":
        if not np.all(np.isfinite(self.data)):
            raise ContractError(f"non-finite value in {name}")
        return self

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
    mask = a.data > 0.0
    out = np.where(mask, a.data, slope * a.data)

    def backward(g):
        _accumulate(a, np.where(mask, g, slope * g))

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
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    ho, wo = win.shape[1], win.shape[2]
    return np.ascontiguousarray(win).reshape(n * ho * wo, c * kh * kw), ho, wo


def _scatter_taps(cols: np.ndarray, n: int, c: int, ho: int, wo: int,
                  kh: int, kw: int, stride: int, full_h: int, full_w: int) -> np.ndarray:
    """Inverse of _im2col up to summation: add every window entry back at the
    padded position it was read from.  ``cols`` is [N * Ho * Wo, kh * kw * C]
    with tap-major columns, so each tap is a contiguous channel-last block;
    the sum is built channel-last and returned as an [N, C, H, W] view."""
    out = np.zeros((n, full_h, full_w, c))
    taps = cols.reshape(n, ho, wo, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            out[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += taps[:, :, :, i, j]
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
            gcols = g2 @ k.data.transpose(0, 2, 3, 1).reshape(kk, kh * kw * c)
            gxp = _scatter_taps(gcols, n, c, ho, wo, kh, kw, stride, full_h, full_w)
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
    cols = x2 @ k.data.transpose(0, 2, 3, 1).reshape(c, kh * kw * kk)
    full = _scatter_taps(cols, n, kk, h, w, kh, kw, stride, full_h, full_w)
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
