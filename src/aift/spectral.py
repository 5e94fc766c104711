"""2-D discrete Fourier transform and the frequency-domain image encoding.

Every model patch is a power of two on each side (``model.PATCH_SIZES``),
so ``dft2`` is a radix-2 Cooley-Tukey FFT and nothing else; other extents
raise ``DimensionError``.  It does not delegate to numpy's FFT.

The FFT is a loop, not a recursion: one bit-reversal gather, then log2(n)
in-place butterfly stages with twiddles cached per length.  It does the
same floating-point operations in the same order as the textbook even/odd
recursion, and the test suite pins it to that recursion bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, DomainError


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@functools.cache
def _fft_plan(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Bit-reversal gather table and per-stage twiddles for length n.

    The table lists the input positions in the order the even/odd
    recursion reaches its length-1 leaves; each twiddle is computed with
    the recursion's own expression for its block size, so the butterflies
    reproduce the recursive transform bit for bit.
    """
    rev = np.zeros(1, dtype=np.intp)
    while rev.size < n:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    twiddles = []
    m = 2
    while m <= n:
        twiddles.append(np.exp(-2j * np.pi * np.arange(m // 2) / m))
        m *= 2
    for table in (rev, *twiddles):
        table.setflags(write=False)
    return rev, tuple(twiddles)


def _fft_pow2(x: np.ndarray) -> np.ndarray:
    """Radix-2 decimation-in-time FFT along the last axis (length power of 2).

    One bit-reversal gather into a fresh complex array, then log2(n)
    in-place butterfly stages; the caller's array is never written.
    """
    n = x.shape[-1]
    rev, twiddles = _fft_plan(n)
    y = np.ascontiguousarray(x[..., rev], dtype=np.complex128)
    for twiddle in twiddles:
        half = twiddle.size
        blocks = y.reshape(y.shape[:-1] + (n // (2 * half), 2, half))
        even = blocks[..., 0, :]
        odd = blocks[..., 1, :]
        t = twiddle * odd
        np.subtract(even, t, out=odd)
        np.add(even, t, out=even)
    return y


def dft2(image: np.ndarray) -> np.ndarray:
    """2-D DFT of a real or complex [H, W] array, returned as complex128.

    Both extents must be powers of two.  The input is never modified.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise DimensionError(f"dft2 expects a 2-D array, got shape {image.shape}")
    if not (_is_pow2(image.shape[0]) and _is_pow2(image.shape[1])):
        raise DimensionError(f"dft2 needs power-of-two extents, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise DomainError("dft2: input contains non-finite values")
    return _fft_pow2(_fft_pow2(image).T).T


def center_shift(a: np.ndarray) -> np.ndarray:
    """Move the zero-frequency bin to the array center (roll by half extents)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"center_shift expects a 2-D array, got shape {a.shape}")
    return np.roll(a, (a.shape[0] // 2, a.shape[1] // 2), axis=(0, 1))


def spectrum_image(image: np.ndarray) -> np.ndarray:
    """Encode an [H, W] image in [0, 1] as a same-shaped frequency image.

    Pipeline: magnitude of the 2-D DFT, log1p compression, zero-frequency
    bin moved to the center, then min-max rescaling to [0, 1].  An all-zero
    input has a flat spectrum; by convention it maps to zeros with a single
    1.0 marking the (centered) zero-frequency bin.
    """
    image = np.asarray(image)
    spectrum = dft2(image)  # checks the shape and finiteness of the input
    if np.min(image) < 0.0 or np.max(image) > 1.0:
        raise DomainError("spectrum_image expects values in [0, 1]; normalize first")
    mag = np.log1p(np.abs(spectrum))
    shifted = center_shift(mag)
    lo = shifted.min()
    hi = shifted.max()
    if hi > lo:
        return (shifted - lo) / (hi - lo)
    flat = np.zeros_like(shifted)
    flat[image.shape[0] // 2, image.shape[1] // 2] = 1.0
    return flat
