"""Defect scoring by frequency-domain reconstruction disagreement.

A trained model regenerates a patch from its frequency-domain encoding;
pixels the generator cannot reproduce (defects were never seen during
training) disagree with the input.  The disagreement is measured per pixel
with the symmetric Jeffrey divergence, giving a score map whose sum is the
patch-level anomaly score.

Score maps are not rescaled.  Both inputs are clamped to [JEFFREY_EPS, 1],
so every per-pixel value lies in [0, ln 2] ~ [0, 0.693], and averaging
overlapping patches keeps full-image maps in that range too.  The metric
thresholds from 0.70 up (``metrics.THRESHOLDS``) therefore never fire on a
score map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .data import extract_patches, normalize_patch
from .errors import ConfigurationError, DimensionError, DomainError
from .model import AiftParams, F2I, I2F, generate
from .spectral import spectrum_image

DETECT_MODES = ("fourier", "roundtrip")
JEFFREY_EPS = 1e-7


def jeffrey_divergence(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Symmetric per-element divergence between two same-shaped arrays.

    Both inputs are clamped to [JEFFREY_EPS, 1]; with m the elementwise midpoint the
    per-element value is x*log(x/m) + y*log(y/m).  Returns the summed total
    and the per-element map.  The value is non-negative, exactly symmetric
    in its arguments, and zero iff the clamped inputs are equal.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"jeffrey_divergence: shape mismatch {x.shape} vs {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("jeffrey_divergence: non-finite input")
    xc = np.clip(x, JEFFREY_EPS, 1.0)
    yc = np.clip(y, JEFFREY_EPS, 1.0)
    mid = 0.5 * (xc + yc)
    per_element = xc * np.log(xc / mid) + yc * np.log(yc / mid)
    return float(per_element.sum()), per_element


@dataclass
class DetectionResult:
    score_map: np.ndarray
    image_score: float


def _regenerate(params: AiftParams, image: np.ndarray, mode: str) -> np.ndarray:
    batch = Tensor(image[None, None, :, :])
    with no_grad():
        if mode == "fourier":
            freq = Tensor(spectrum_image(image)[None, None, :, :])
            out = generate(params, freq, F2I)
        else:
            out = generate(params, generate(params, batch, I2F), F2I)
    return out.data[0, 0]


def _check_patch(params: AiftParams, image: np.ndarray, who: str) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    p = params.patch_size
    if image.shape != (p, p):
        raise DimensionError(f"{who} expects a ({p}, {p}) patch, got {image.shape}")
    if np.min(image) < 0.0 or np.max(image) > 1.0:
        raise DomainError(f"{who}: image values must lie in [0, 1]; normalize first")
    return image


def detect(params: AiftParams, image: np.ndarray, mode: str = "fourier") -> DetectionResult:
    """Score one normalized patch against a trained model.

    ``fourier`` regenerates the patch from its actual frequency encoding;
    ``roundtrip`` chains both generator directions instead.
    """
    if mode not in DETECT_MODES:
        raise ConfigurationError(f"mode must be one of {DETECT_MODES}, got {mode!r}")
    image = _check_patch(params, image, "detect")
    regenerated = _regenerate(params, image, mode)
    total, score_map = jeffrey_divergence(image, regenerated)
    return DetectionResult(score_map=score_map, image_score=total)


def detect_full_image(params: AiftParams, image: np.ndarray, stride: int | None = None,
                      mode: str = "fourier") -> DetectionResult:
    """Score an image of any size at least one patch wide.

    The image is covered by an edge-aligned patch grid; each patch is
    min-max normalized (matching the training-time contract) before scoring
    and per-pixel scores are averaged where patches overlap.  The stitched
    map has the input's shape.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DimensionError(f"detect_full_image expects a 2-D image, got shape {image.shape}")
    p = params.patch_size
    if image.shape[0] < p or image.shape[1] < p:
        raise DimensionError(
            f"image {image.shape} is smaller than the {p}px patch size")
    if stride is None:
        stride = p
    if not 1 <= stride <= p:
        raise ConfigurationError(f"stride must lie in [1, {p}], got {stride}")
    if np.min(image) < 0.0 or np.max(image) > 1.0:
        raise DomainError("detect_full_image: image values must lie in [0, 1]; normalize first")

    acc = np.zeros(image.shape)
    cover = np.zeros(image.shape)
    for y, x, patch in extract_patches(image, p, stride):
        result = detect(params, normalize_patch(patch), mode=mode)
        acc[y:y + p, x:x + p] += result.score_map
        cover[y:y + p, x:x + p] += 1.0
    score_map = acc / cover
    return DetectionResult(score_map=score_map, image_score=float(score_map.sum()))
