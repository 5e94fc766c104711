"""Bidirectional generator, dual-domain discriminator and checkpoint I/O.

One parameter set holds both mapping directions.  The generator runs a
shared 4-stage strided-conv encoder and then one of two transposed-conv
decoder heads: ``dec_freq`` produces a frequency-domain image from a
spatial patch, ``dec_image`` the reverse.  The discriminator runs a shared
conv trunk into one of two scalar dense heads (one per domain), ending in a
sigmoid likelihood.

The model computes and stores in float32: parameters are float32 tensors,
and a plain input batch is cast to float32 on the way in.
Checkpoints are a small self-describing binary format (magic ``AIFT``,
version, metadata, named float32 tensors and a CRC32, all little-endian),
so a trained model and its checkpoint hold the same bits.  Loading a
current-version checkpoint and saving it again gives the same bytes.

Every conv kernel keeps its logical shape [A, B, kh, kw] ([K, C, kh, kw]
for a conv, [C, K, kh, kw] for a transposed conv) but is laid out
(A, kh, kw, B) in memory, the tap-major order in which every conv GEMM
reads it without a copy.  Kernel gradients come out in the same layout, so
Adam's moments and elementwise updates keep it, and a checkpoint holds each
tensor in the C order of its shape, so the layout never reaches the file.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, DimensionError, InputError, IntegrityError, check_count

PATCH_SIZES = (16, 32, 64)
N_STAGES = 4
_LEAK = 0.2

I2F = "image_to_frequency"
F2I = "frequency_to_image"
DIRECTIONS = (I2F, F2I)
DOMAINS = ("image", "frequency")

MODEL_DTYPE = np.float32

_MAGIC = b"AIFT"
_VERSION = 2  # version 1 had no checksum; it still loads


@dataclass
class AiftParams:
    """All trainable tensors plus the metadata needed to rebuild them."""

    patch_size: int
    base_channels: int
    seed: int
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def generator_tensors(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.tensors.items() if k.startswith("gen.")}

    def discriminator_tensors(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.tensors.items() if k.startswith("disc.")}

    def stage_channels(self) -> list[int]:
        return [self.base_channels << i for i in range(N_STAGES)]


def _layer_plan(patch_size: int, base_channels: int) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) listing; fixes both init order and file order.

    The table below is the model's four conv stacks as (prefix, channel
    widths from input to output); a ``.dec_`` stack is transposed convs.
    """
    enc = [1] + [base_channels << i for i in range(N_STAGES)]
    plan: list[tuple[str, tuple[int, ...]]] = []
    for prefix, widths in (("gen.enc", enc), ("gen.dec_image", enc[::-1]),
                           ("gen.dec_freq", enc[::-1]), ("disc.trunk", enc)):
        for i, (c_in, c_out) in enumerate(zip(widths, widths[1:])):
            kernel = (c_in, c_out) if ".dec_" in prefix else (c_out, c_in)
            plan += [(f"{prefix}.{i}.w", (*kernel, 4, 4)), (f"{prefix}.{i}.b", (c_out,))]
    feat = enc[-1] * (patch_size >> N_STAGES) ** 2
    for head in ("image_head", "freq_head"):
        plan += [(f"disc.{head}.w", (feat, 1)), (f"disc.{head}.b", (1,))]
    return plan


def _stored(data: np.ndarray) -> np.ndarray:
    """A float32 copy of ``data``, laid out (A, kh, kw, B) in memory if it
    is a kernel [A, B, kh, kw]."""
    if data.ndim == 4:
        return np.array(data.transpose(0, 2, 3, 1), MODEL_DTYPE, order="C").transpose(0, 3, 1, 2)
    return np.array(data, dtype=MODEL_DTYPE)


def _fan_in(name: str, shape: tuple[int, ...]) -> int:
    if len(shape) != 4:
        return shape[0]
    return shape[0 if ".dec_" in name else 1] * shape[2] * shape[3]


def init_params(patch_size: int, seed: int, base_channels: int = 32) -> AiftParams:
    """Deterministically initialize a fresh model.

    Weights are drawn uniform in +-sqrt(6 / fan_in) and rounded once to
    float32, biases zero.  The same seed always yields bit-identical tensors.
    Every kernel is stored channel-last (see the module docstring).
    """
    patch_size = check_count("patch_size", patch_size, 0)
    if patch_size not in PATCH_SIZES:
        raise ConfigurationError(f"patch_size must be one of {PATCH_SIZES}, got {patch_size}")
    seed = check_count("seed", seed, 0)
    base_channels = check_count("base_channels", base_channels, 1)
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in _layer_plan(patch_size, base_channels):
        if name.endswith(".b"):
            data = np.zeros(shape, dtype=MODEL_DTYPE)
        else:
            bound = np.sqrt(6.0 / _fan_in(name, shape))
            data = _stored(rng.uniform(-bound, bound, size=shape))
        tensors[name] = Tensor(data, requires_grad=True)
    return AiftParams(patch_size, base_channels, seed, tensors)


def _check_patch_batch(params: AiftParams, x: Tensor, who: str) -> Tensor:
    """Check the batch shape, N >= 1; a plain input (no graph behind it)
    comes back cast to MODEL_DTYPE, the dtype of every parameter."""
    p = params.patch_size
    if x.data.ndim != 4 or x.shape[0] < 1 or x.shape[1:] != (1, p, p):
        raise DimensionError(f"{who} expects [N, 1, {p}, {p}] with N >= 1, got {x.shape}")
    if x.requires_grad or x.data.dtype == MODEL_DTYPE:
        return x
    return Tensor(x.data.astype(MODEL_DTYPE))


def _run_conv_stack(params: AiftParams, x: Tensor, prefix: str) -> Tensor:
    """Run one conv stack of ``_layer_plan``'s table: stride 2, padding 1 and
    a LeakyReLU after every layer but a decoder's last."""
    decoder = ".dec_" in prefix
    h = x
    for i in range(N_STAGES):
        # looked up through ``ad`` at call time, so a wrapper on the module sees every layer
        conv = ad.conv_transpose2d if decoder else ad.conv2d
        leak = None if decoder and i == N_STAGES - 1 else _LEAK
        h = conv(h, params.tensors[f"{prefix}.{i}.w"], stride=2, padding=1,
                 bias=params.tensors[f"{prefix}.{i}.b"], leak=leak)
    return h


def generate(params: AiftParams, x: Tensor, direction: str) -> Tensor:
    """Map a batch through one generator direction; output in (0, 1)."""
    if direction not in DIRECTIONS:
        raise ConfigurationError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    x = _check_patch_batch(params, x, "generate")
    head = "gen.dec_freq" if direction == I2F else "gen.dec_image"
    return ad.sigmoid(_run_conv_stack(params, _run_conv_stack(params, x, "gen.enc"), head))


def discriminate(params: AiftParams, x: Tensor, domain: str) -> Tensor:
    """Score a batch as [N, 1] likelihoods of being a real sample of ``domain``."""
    if domain not in DOMAINS:
        raise ConfigurationError(f"domain must be one of {DOMAINS}, got {domain!r}")
    x = _check_patch_batch(params, x, "discriminate")
    h = _run_conv_stack(params, x, "disc.trunk")
    head = "disc.image_head" if domain == "image" else "disc.freq_head"
    flat = ad.flatten(h)
    logits = ad.dense(flat, params.tensors[f"{head}.w"], params.tensors[f"{head}.b"])
    return ad.sigmoid(logits)


# -- checkpoint format ---------------------------------------------------------


def save_checkpoint(params: AiftParams, path) -> None:
    """Serialize parameters as little-endian float32 tensors and a CRC32."""
    chans = params.stage_channels()
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<H", _VERSION)
    blob += struct.pack("<I", params.patch_size)
    blob += struct.pack("<Q", params.seed)
    blob += struct.pack("<I", len(chans))
    blob += struct.pack(f"<{len(chans)}I", *chans)
    blob += struct.pack("<I", len(params.tensors))
    for name, tensor in params.tensors.items():
        raw = name.encode("utf-8")
        blob += struct.pack("<I", len(raw))
        blob += raw
        shape = tensor.shape
        blob += struct.pack("<I", len(shape))
        if shape:
            blob += struct.pack(f"<{len(shape)}I", *shape)
        blob += tensor.data.astype("<f4", copy=False).tobytes()  # C order of the shape
    blob += struct.pack("<I", zlib.crc32(blob))
    with open(path, "wb") as fh:
        fh.write(blob)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0
        self.end = len(buf)

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise IntegrityError("checkpoint truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> bool:
        return self.pos == self.end


def load_checkpoint(path) -> AiftParams:
    """Read a checkpoint back into trainable float32 tensors, bit for bit,
    each copied once out of the file's bytes into the layout init_params
    gives it.

    Raises InputError when the file cannot be read, and IntegrityError on a
    bad magic, unknown version, checksum mismatch, trailing bytes or a
    tensor listing that does not match the declared architecture.
    """
    try:
        with open(path, "rb") as fh:
            reader = _Reader(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if reader.take(4) != _MAGIC:
        raise IntegrityError(f"not a model checkpoint: {path}")
    (version,) = reader.unpack("<H")
    if version not in (1, _VERSION):
        raise IntegrityError(f"unsupported checkpoint version {version}")
    if version == _VERSION:
        reader.end, (crc,) = len(reader.buf) - 4, struct.unpack("<I", reader.buf[-4:])
        if reader.end < reader.pos or zlib.crc32(memoryview(reader.buf)[:reader.end]) != crc:
            raise IntegrityError(f"checkpoint checksum mismatch: {path}")
    (patch_size,) = reader.unpack("<I")
    (seed,) = reader.unpack("<Q")
    (n_chans,) = reader.unpack("<I")
    chans = list(reader.unpack(f"<{n_chans}I"))
    if patch_size not in PATCH_SIZES:
        raise IntegrityError(f"checkpoint declares unsupported patch size {patch_size}")
    base = chans[0] if chans else 0
    if chans != [base << i for i in range(N_STAGES)] or base < 1:
        raise IntegrityError(f"checkpoint declares malformed channel widths {chans}")
    plan = _layer_plan(patch_size, base)
    mismatch = "checkpoint tensor listing does not match its declared architecture"
    (count,) = reader.unpack("<I")
    if count != len(plan):
        raise IntegrityError(mismatch)
    tensors: dict[str, Tensor] = {}
    for entry in plan:
        (name_len,) = reader.unpack("<I")
        # a name that is not UTF-8 decodes to one that fails the listing check
        name = reader.take(name_len).decode("utf-8", errors="replace")
        (rank,) = reader.unpack("<I")
        shape = tuple(reader.unpack(f"<{rank}I")) if rank else ()
        # checked before the values are sized, so no declared shape can overflow
        if (name, shape) != entry:
            raise IntegrityError(mismatch)
        values = np.frombuffer(reader.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        tensors[name] = Tensor(_stored(values), requires_grad=True)
    if not reader.done():
        raise IntegrityError("trailing bytes after checkpoint payload")
    return AiftParams(patch_size, base, int(seed), tensors)
