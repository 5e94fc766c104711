"""Image I/O, patch extraction, dataset manifests and the synthetic corpus.

Grayscale PGM (both the ASCII ``P2`` and binary ``P5`` flavors) is the
canonical format and is parsed and written here without third-party help.
PNG input is supported when Pillow is installed; color images collapse to
luminance with the 0.299/0.587/0.114 weights.

The synthetic corpus generator produces band-limited pavement-like textures
and, for defect samples, dark polyline cracks with ground-truth masks.  It
exists so the whole pipeline can be exercised end to end at desk scale.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputError

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


# -- PGM ------------------------------------------------------------------


def _pgm_tokens(buf: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    pos = 0
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            start = pos
            while pos < n and not buf[pos:pos + 1].isspace() and buf[pos:pos + 1] != b"#":
                pos += 1
            yield buf[start:pos].decode("ascii", "replace"), pos
    yield None, pos


def read_pgm(path) -> np.ndarray:
    """Parse a PGM file into float64 values scaled to [0, 1]."""
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    tokens = _pgm_tokens(buf)
    header: list[str] = []
    pos = 0
    while len(header) < 4:
        token, pos = next(tokens)  # the generator ends on a (None, pos) sentinel
        if token is None:
            raise InputError(f"{path}: truncated PGM header")
        header.append(token)
    magic = header[0]
    if magic not in ("P2", "P5"):
        raise InputError(f"{path}: unsupported magic {magic!r}, expected P2 or P5")
    try:
        width, height, maxval = (int(v) for v in header[1:4])
    except ValueError:
        raise InputError(f"{path}: non-numeric PGM header fields {header[1:4]}")
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise InputError(f"{path}: invalid PGM dimensions {width}x{height} maxval {maxval}")

    count = width * height
    if magic == "P5":
        raster = buf[pos + 1:]  # single whitespace byte after maxval
        if maxval > 255:
            need = 2 * count
            if len(raster) < need:
                raise InputError(f"{path}: truncated raster ({len(raster)} of {need} bytes)")
            values = np.frombuffer(raster[:need], dtype=">u2")
        else:
            if len(raster) < count:
                raise InputError(f"{path}: truncated raster ({len(raster)} of {count} bytes)")
            values = np.frombuffer(raster[:count], dtype=np.uint8)
    else:
        text = buf[pos:].split(b"#")[0] if b"#" in buf[pos:] else buf[pos:]
        fields = text.split()
        if len(fields) < count:
            raise InputError(f"{path}: truncated raster ({len(fields)} of {count} samples)")
        try:
            values = np.array([int(f) for f in fields[:count]], dtype=np.int64)
        except ValueError:
            raise InputError(f"{path}: non-numeric sample in P2 raster")
    values = np.asarray(values, dtype=np.float64)
    if values.max(initial=0.0) > maxval:
        raise InputError(f"{path}: sample exceeds declared maxval {maxval}")
    return (values / maxval).reshape(height, width)


def write_pgm(path, image: np.ndarray, maxval: int = 255) -> None:
    """Write [0, 1] float values as binary PGM (8-bit, or 16-bit big-endian)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise InputError(f"write_pgm expects a 2-D array, got shape {image.shape}")
    if maxval not in (255, 65535):
        raise ConfigurationError(f"maxval must be 255 or 65535, got {maxval}")
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
    lo = patch.min()
    hi = patch.max()
    if hi > lo:
        return (patch - lo) / (hi - lo)
    return np.zeros_like(patch)


def _grid_starts(extent: int, patch: int, stride: int) -> list[int]:
    starts = list(range(0, extent - patch + 1, stride))
    last = extent - patch
    if starts[-1] != last:
        starts.append(last)
    return starts


def extract_patches(image: np.ndarray, patch_size: int,
                    stride: int | None = None) -> list[tuple[int, int, np.ndarray]]:
    """Cut an image into (row, col, patch) tiles on a row-major grid.

    The grid walks in ``stride`` steps; when the extent is not covered
    exactly, one final edge-aligned row/column of patches is added so every
    pixel belongs to at least one patch.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise InputError(f"extract_patches expects a 2-D image, got shape {image.shape}")
    if stride is None:
        stride = patch_size
    h, w = image.shape
    if patch_size < 1 or h < patch_size or w < patch_size:
        raise InputError(f"patch size {patch_size} does not fit image {image.shape}")
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")
    out = []
    for y in _grid_starts(h, patch_size, stride):
        for x in _grid_starts(w, patch_size, stride):
            out.append((y, x, image[y:y + patch_size, x:x + patch_size].copy()))
    return out


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

    def save(self, path=None) -> Path:
        path = Path(path) if path is not None else self.root / "manifest.csv"
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
        entries = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["path", "mask", "label", "split"]:
                raise InputError(f"{path}: unexpected manifest header {header}")
            for row in reader:
                if len(row) != 4:
                    raise InputError(f"{path}: malformed manifest row {row}")
                entries.append(ManifestEntry(*row))
        return cls(root, entries)


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
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.patch_size < 8:
            raise ConfigurationError(f"patch_size must be >= 8, got {self.patch_size}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
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


def ingest_external(root) -> DatasetManifest:
    """Build a manifest for a user-provided directory tree.

    Expected layout: ``train/`` with normal images, ``test/normal/`` and
    ``test/defect/`` images, optional ``test/masks/`` with a same-named mask
    per defect image.
    """
    root = Path(root)
    if not root.is_dir():
        raise InputError(f"dataset root {root} is not a directory")
    exts = (".pgm", ".png")

    def _scan(rel_dir: str) -> list[Path]:
        base = root / rel_dir
        if not base.is_dir():
            return []
        return sorted(p for p in base.iterdir() if p.suffix.lower() in exts)

    entries: list[ManifestEntry] = []
    for p in _scan("train"):
        entries.append(ManifestEntry(str(p.relative_to(root)), "", "normal", "train"))
    for p in _scan("test/normal"):
        entries.append(ManifestEntry(str(p.relative_to(root)), "", "normal", "test"))
    for p in _scan("test/defect"):
        mask = root / "test" / "masks" / p.name
        mask_rel = str(mask.relative_to(root)) if mask.is_file() else ""
        entries.append(ManifestEntry(str(p.relative_to(root)), mask_rel, "defect", "test"))
    if not any(e.split == "train" for e in entries):
        raise InputError(f"no training images found under {root}/train")
    return DatasetManifest(root, entries)
