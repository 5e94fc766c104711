"""Image I/O, the patch tiler, dataset manifests and the synthetic corpus.

Grayscale binary PGM (``P5``, 8- or 16-bit) is the canonical format and is
parsed and written here without third-party help; the ASCII ``P2`` flavor
is not read.
PNG input is supported when Pillow is installed; color images collapse to
luminance with the 0.299/0.587/0.114 weights.

A corpus is a directory with a ``manifest.csv`` at its root whose rows are
``path,mask,label,split``: image and mask paths relative to the root (mask
empty when there is none), label ``normal`` or ``defect``, split ``train``
or ``test``, with only normal images in the train split.  The synthetic
corpus generator writes one; any other data enters through a hand-written
manifest of the same form.

The generator produces band-limited pavement-like textures and, for defect
samples, dark polyline cracks with ground-truth masks.  It exists so the
whole pipeline can be exercised end to end at desk scale.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError, InputError, check_count

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


# -- PGM ------------------------------------------------------------------


# P5, then width, height and maxval, each after whitespace or '#' comments
# that run to their line end; a comment must end at its line end here, or a
# failed match backtracks exponentially.  One whitespace byte follows maxval.
_SEPARATOR = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PGM_HEADER = re.compile(rb"P5" + (_SEPARATOR + rb"(\d+)") * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Parse a binary (P5) PGM file into float64 values scaled to [0, 1]."""
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    header = _PGM_HEADER.match(buf)
    if header is None:
        magic = buf[:2].decode("ascii", "replace")
        if magic != "P5":
            raise InputError(f"{path}: unsupported magic {magic!r}, expected P5")
        raise InputError(f"{path}: malformed or truncated PGM header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise InputError(f"{path}: invalid PGM dimensions {width}x{height} maxval {maxval}")
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    need = width * height * dtype.itemsize
    have = len(buf) - header.end()
    if have < need:
        raise InputError(f"{path}: truncated raster ({have} of {need} bytes)")
    values = np.frombuffer(buf, dtype, width * height, header.end())
    if values.max() > maxval:
        raise InputError(f"{path}: sample exceeds declared maxval {maxval}")
    return (values.astype(np.float64) / maxval).reshape(height, width)


def write_pgm(path, image: np.ndarray, maxval: int = 255) -> None:
    """Write [0, 1] float values as binary PGM (8-bit, or 16-bit big-endian)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise InputError(f"write_pgm expects a 2-D array, got shape {image.shape}")
    if check_count("maxval", maxval, 1) not in (255, 65535):
        raise ConfigurationError(f"maxval must be 255 or 65535, got {maxval}")
    if np.isnan(image).any():
        raise InputError("write_pgm: image holds NaN")
    levels = np.rint(np.clip(image, 0.0, 1.0) * maxval)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode("ascii")
    body = levels.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    Path(path).write_bytes(header + body)


def load_image(path) -> np.ndarray:
    """Load a grayscale image as float64 in [0, 1] (PGM natively, PNG via Pillow)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".pgm":
        return read_pgm(path)
    if suffix == ".png":
        try:
            from PIL import Image
        except ImportError:
            raise InputError("PNG input needs the optional pillow dependency (pip install aift[png])")
        try:
            with Image.open(path) as img:
                arr = np.asarray(img)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        if arr.ndim == 3:
            if arr.shape[2] < 3:
                arr = arr[:, :, 0]
            else:
                w = np.array(LUMA_WEIGHTS)
                arr = arr[:, :, :3].astype(np.float64) @ w
        if arr.dtype == np.uint16:
            return arr.astype(np.float64) / 65535.0
        return np.asarray(arr, dtype=np.float64) / 255.0
    raise InputError(f"unsupported image format {suffix!r} for {path}")


# -- patches ---------------------------------------------------------------


def normalize_patch(patch: np.ndarray) -> np.ndarray:
    """Min-max rescale a patch to [0, 1]; a constant patch maps to zeros."""
    patch = np.asarray(patch, dtype=np.float64)
    if patch.size == 0:
        raise DimensionError(f"normalize_patch: patch of shape {patch.shape} has no pixels")
    lo = patch.min()
    hi = patch.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("normalize_patch: patch holds a non-finite value")
    if hi > lo:
        return (patch - lo) / (hi - lo)
    return np.zeros_like(patch)


def _tiles(image: np.ndarray, patch: int, stride: int):
    """Yield ``(row, col, tile)`` over an edge-aligned row-major grid, each
    tile the ``normalize_patch`` of its window.

    The grid walks in ``stride`` steps; where they do not end at the far
    edge, one last row or column of tiles is aligned to it, so every pixel
    lies in some tile.  Callers check that the patch fits the 2-D image and
    that ``1 <= stride <= patch``.
    """
    h, w = image.shape
    rows = [*range(0, h - patch, stride), h - patch]
    cols = [*range(0, w - patch, stride), w - patch]
    for y in rows:
        for x in cols:
            yield y, x, normalize_patch(image[y:y + patch, x:x + patch])


# -- manifests ---------------------------------------------------------------


@dataclass
class ManifestEntry:
    path: str
    mask: str  # empty when no ground-truth mask exists
    label: str  # "normal" | "defect"
    split: str  # "train" | "test"


@dataclass
class DatasetManifest:
    root: Path
    entries: list[ManifestEntry]

    def __post_init__(self):
        for e in self.entries:
            if e.label not in ("normal", "defect"):
                raise InputError(f"manifest label must be normal/defect, got {e.label!r}")
            if e.split not in ("train", "test"):
                raise InputError(f"manifest split must be train/test, got {e.split!r}")
            if e.split == "train" and e.label != "normal":
                raise InputError(
                    f"training split must contain only normal samples, found {e.label!r} for {e.path}")

    def train_entries(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == "train"]

    def test_entries(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == "test"]

    def image_path(self, entry: ManifestEntry) -> Path:
        return self.root / entry.path

    def mask_path(self, entry: ManifestEntry) -> Path | None:
        return self.root / entry.mask if entry.mask else None

    def save(self) -> Path:
        path = self.root / "manifest.csv"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["path", "mask", "label", "split"])
        for e in self.entries:
            writer.writerow([e.path, e.mask, e.label, e.split])
        path.write_text(buf.getvalue())
        return path

    @classmethod
    def load(cls, root) -> "DatasetManifest":
        root = Path(root)
        path = root / "manifest.csv"
        if not path.is_file():
            raise InputError(f"no manifest.csv under {root}")
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
        header = rows[0] if rows else None
        if header != ["path", "mask", "label", "split"]:
            raise InputError(f"{path}: unexpected manifest header {header}")
        for row in rows[1:]:
            if len(row) != 4:
                raise InputError(f"{path}: malformed manifest row {row}")
        return cls(root, [ManifestEntry(*row) for row in rows[1:]])


# -- synthetic corpus ----------------------------------------------------------


@dataclass
class SynthConfig:
    n_train: int
    n_test_normal: int
    n_test_defect: int
    patch_size: int = 32
    seed: int = 0

    def validate(self) -> "SynthConfig":
        for name in ("n_train", "n_test_normal", "n_test_defect"):
            check_count(name, getattr(self, name), 1)
        check_count("patch_size", self.patch_size, 8)
        check_count("seed", self.seed, 0)
        return self


def _bilinear_resize(grid: np.ndarray, size: int) -> np.ndarray:
    gh, gw = grid.shape
    ys = np.linspace(0.0, gh - 1.0, size)
    xs = np.linspace(0.0, gw - 1.0, size)
    y0 = np.clip(ys.astype(int), 0, gh - 2)
    x0 = np.clip(xs.astype(int), 0, gw - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    a = grid[y0][:, x0]
    b = grid[y0][:, x0 + 1]
    c = grid[y0 + 1][:, x0]
    d = grid[y0 + 1][:, x0 + 1]
    return (a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx
            + c * fy * (1 - fx) + d * fy * fx)


def _pavement_texture(rng: np.random.Generator, size: int) -> np.ndarray:
    """Band-limited value noise plus a mild illumination gradient."""
    coarse = _bilinear_resize(rng.uniform(0.0, 1.0, (5, 5)), size)
    fine = _bilinear_resize(rng.uniform(0.0, 1.0, (9, 9)), size)
    tex = 0.65 * coarse + 0.35 * fine
    angle = rng.uniform(0.0, 2.0 * np.pi)
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    ramp = (np.cos(angle) * xx + np.sin(angle) * yy) * rng.uniform(0.0, 0.15)
    img = 0.3 + 0.45 * tex + ramp
    return np.clip(img, 0.0, 1.0)


def _crack_mask(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random-walk polyline of width 1-3 px covering at most 20% of the patch."""
    width = int(rng.integers(1, 4))
    max_px = int(0.18 * size * size)
    steps = min(2 * size, max(4, max_px // max(width * width, 1)))
    edge = rng.integers(0, 4)
    if edge == 0:
        pos = np.array([0.0, rng.uniform(0, size - 1)])
        heading = rng.uniform(np.pi / 4, 3 * np.pi / 4)
    elif edge == 1:
        pos = np.array([size - 1.0, rng.uniform(0, size - 1)])
        heading = rng.uniform(-3 * np.pi / 4, -np.pi / 4)
    elif edge == 2:
        pos = np.array([rng.uniform(0, size - 1), 0.0])
        heading = rng.uniform(-np.pi / 4, np.pi / 4)
    else:
        pos = np.array([rng.uniform(0, size - 1), size - 1.0])
        heading = rng.uniform(3 * np.pi / 4, 5 * np.pi / 4)
    mask = np.zeros((size, size), dtype=bool)
    half = (width - 1) // 2
    extra = width - 1 - half
    for _ in range(steps):
        y, x = int(round(pos[0])), int(round(pos[1]))
        if 0 <= y < size and 0 <= x < size:
            mask[max(0, y - half):min(size, y + extra + 1),
                 max(0, x - half):min(size, x + extra + 1)] = True
        heading += rng.normal(0.0, 0.3)
        pos += np.array([np.sin(heading), np.cos(heading)])
        pos = np.clip(pos, 0.0, size - 1.0)
    if not mask.any():
        mask[size // 2, size // 2] = True
    return mask


def _defect_patch(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    img = _pavement_texture(rng, size)
    mask = _crack_mask(rng, size)
    drop = rng.uniform(0.2, 0.5)
    img = np.where(mask, np.clip(img - drop, 0.0, 1.0), img)
    return img, mask


def synth_corpus(config: SynthConfig, out_dir) -> DatasetManifest:
    """Generate the pavement corpus on disk and return its manifest.

    Layout: ``normal/`` and ``defect/`` image directories, ``masks/`` for
    the defect ground truth, and ``manifest.csv`` at the root.  Every sample
    derives from the single seed in the config, so the corpus is
    reproducible byte for byte.
    """
    config.validate()
    root = Path(out_dir)
    for sub in ("normal", "defect", "masks"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    size = config.patch_size
    entries: list[ManifestEntry] = []

    for i in range(config.n_train):
        rel = f"normal/train_{i:05d}.pgm"
        write_pgm(root / rel, _pavement_texture(rng, size))
        entries.append(ManifestEntry(rel, "", "normal", "train"))
    for i in range(config.n_test_normal):
        rel = f"normal/test_normal_{i:05d}.pgm"
        mask_rel = f"masks/test_normal_{i:05d}.pgm"
        write_pgm(root / rel, _pavement_texture(rng, size))
        write_pgm(root / mask_rel, np.zeros((size, size)))
        entries.append(ManifestEntry(rel, mask_rel, "normal", "test"))
    for i in range(config.n_test_defect):
        rel = f"defect/test_defect_{i:05d}.pgm"
        mask_rel = f"masks/test_defect_{i:05d}.pgm"
        img, mask = _defect_patch(rng, size)
        write_pgm(root / rel, img)
        write_pgm(root / mask_rel, mask.astype(np.float64))
        entries.append(ManifestEntry(rel, mask_rel, "defect", "test"))

    manifest = DatasetManifest(root, entries)
    manifest.save()
    return manifest
