"""Defect scoring by frequency-domain reconstruction disagreement.

A trained model regenerates a patch from its frequency-domain encoding
through the frequency-to-image generator, the one scoring path of the AIFT
paper; pixels the generator cannot reproduce (defects were never seen
during training) disagree with the input.  The disagreement is measured
per pixel with the symmetric Jeffrey divergence, giving a score map whose
sum is the patch-level anomaly score.

Every patch is scored by one loop, in ``detect_images``: it scores the
tiles of a list of images in chunks of ``_CHUNK``.  ``detect`` is
``detect_images`` of one patch and ``detect_full_image`` is
``detect_images`` of one image.  The tiles come from ``data._tiles``, the
cutter that also gives ``aift train`` its patches, so scoring sees the
windows and the min-max normalization that training saw.  The loop runs
the generator under ``autodiff.per_sample``, so each patch gets the bits it
gets alone.

Score maps are not rescaled.  Both inputs are clamped to [JEFFREY_EPS, 1],
so every per-pixel value lies in [0, ln 2] ~ [0, 0.693], and averaging
overlapping patches keeps full-image maps in that range too.  The metric
thresholds from 0.70 up (``metrics.THRESHOLDS``) therefore never fire on a
score map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .autodiff import Tensor, no_grad, per_sample
from .data import _tiles
from .errors import ConfigurationError, DimensionError, DomainError, check_count
from .model import AiftParams, F2I, generate
from .spectral import spectrum_image

JEFFREY_EPS = 1e-7
# tiles per generator pass in detect_images: larger chunks run faster
# but hold more activations at once
_CHUNK = 8


def jeffrey_divergence(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Symmetric per-element divergence between two same-shaped arrays.

    Both inputs are clamped to [JEFFREY_EPS, 1]; with m the elementwise midpoint the
    per-element value is x*log(x/m) + y*log(y/m).  Returns the summed total
    and the per-element map, which for a stack of patches holds each
    patch's own map.  The value is non-negative, exactly symmetric
    in its arguments, and zero iff the clamped inputs are equal.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"jeffrey_divergence: shape mismatch {x.shape} vs {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
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


def detect(params: AiftParams, image: np.ndarray) -> DetectionResult:
    """Score one patch against a trained model: ``detect_images`` of one patch.

    The patch is min-max normalized as training patches are (a normalized
    patch keeps every bit) and regenerated from its frequency encoding
    (``spectrum_image``) by the frequency-to-image generator; the score map
    is the per-pixel Jeffrey divergence between the two.
    """
    p = params.patch_size
    if np.shape(image) != (p, p):
        raise DimensionError(f"detect expects a ({p}, {p}) patch, got {np.shape(image)}")
    return detect_images(params, [image])[0]


def detect_images(params: AiftParams, images, stride: int | None = None) -> list[DetectionResult]:
    """Score each image of a list as ``detect_full_image`` does, bit for bit.

    Every image is checked before the first generator pass.  The tiles of
    all images are scored in chunks of ``_CHUNK`` that may span two images,
    and a chunk's tiles are cut and normalized only when it is scored.
    """
    p = params.patch_size
    stride = p if stride is None else check_count("stride", stride, 1)
    if stride > p:
        raise ConfigurationError(f"stride must lie in [1, {p}], got {stride}")
    images = [np.asarray(image, dtype=np.float64) for image in images]
    for k, image in enumerate(images):
        if image.ndim != 2 or min(image.shape) < p:
            raise DimensionError(f"scoring expects a 2-D image at least {p}px on each side, "
                                 f"got shape {image.shape} (image {k})")
        if not (image.min() >= 0.0 and image.max() <= 1.0):  # also true for NaN
            raise DomainError(f"image values must lie in [0, 1]; normalize first (image {k})")
    tiles = ((k, *tile) for k, image in enumerate(images) for tile in _tiles(image, p, stride))
    acc = [np.zeros(image.shape) for image in images]
    cover = [np.zeros(image.shape) for image in images]
    while chunk := list(islice(tiles, _CHUNK)):
        patches = np.stack([tile for *_, tile in chunk])
        with no_grad(), per_sample():
            freq = Tensor(spectrum_image(patches)[:, None])
            regenerated = generate(params, freq, F2I).data[:, 0]
        maps = jeffrey_divergence(patches, regenerated)[1]
        for (k, y, x, _), score_map in zip(chunk, maps):
            acc[k][y:y + p, x:x + p] += score_map
            cover[k][y:y + p, x:x + p] += 1.0
    for a, c in zip(acc, cover):
        a /= c
    return [DetectionResult(score_map=a, image_score=float(a.sum())) for a in acc]


def detect_full_image(params: AiftParams, image: np.ndarray,
                      stride: int | None = None) -> DetectionResult:
    """Score an image of any size at least one patch wide.

    The image is covered by an edge-aligned patch grid; each patch is
    min-max normalized (matching the training-time contract) before scoring
    and per-pixel scores are averaged where patches overlap.  The tiles are
    scored in batches and added in grid order, so the stitched map, which
    has the input's shape, is the mean of the per-tile ``detect`` maps bit
    for bit.  This is ``detect_images`` of one image.
    """
    return detect_images(params, [image], stride)[0]
