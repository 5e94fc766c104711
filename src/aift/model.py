"""Bidirectional generator, dual-domain discriminator and checkpoint I/O.

One parameter set holds both mapping directions.  The generator runs a
shared 4-stage strided-conv encoder and then one of two transposed-conv
decoder heads: ``dec_freq`` produces a frequency-domain image from a
spatial patch, ``dec_image`` the reverse.  The discriminator runs a shared
conv trunk into one of two scalar dense heads (one per domain), ending in a
sigmoid likelihood.

The model computes and stores in float32: parameters are float32 tensors,
and a plain input batch is cast to the parameters' dtype on the way in.
Checkpoints are a small self-describing binary format (magic ``AIFT``,
version, metadata, then named float32 tensors, all little-endian), so a
trained model and its checkpoint hold the same bits.  Loading a checkpoint
and saving it again reproduces the file byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, DimensionError, InputError, IntegrityError

PATCH_SIZES = (16, 32, 64)
N_STAGES = 4
_LEAK = 0.2

I2F = "image_to_frequency"
F2I = "frequency_to_image"
DIRECTIONS = (I2F, F2I)
DOMAINS = ("image", "frequency")

MODEL_DTYPE = np.float32

_MAGIC = b"AIFT"
_VERSION = 1


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
    """Canonical (name, shape) listing; fixes both init order and file order."""
    chans = [base_channels << i for i in range(N_STAGES)]
    plan: list[tuple[str, tuple[int, ...]]] = []
    in_c = 1
    for i, c in enumerate(chans):
        plan.append((f"gen.enc.{i}.w", (c, in_c, 4, 4)))
        plan.append((f"gen.enc.{i}.b", (c,)))
        in_c = c
    dec_out = [chans[2], chans[1], chans[0], 1]
    for head in ("dec_image", "dec_freq"):
        in_c = chans[-1]
        for i, c in enumerate(dec_out):
            plan.append((f"gen.{head}.{i}.w", (in_c, c, 4, 4)))
            plan.append((f"gen.{head}.{i}.b", (c,)))
            in_c = c
    in_c = 1
    for i, c in enumerate(chans):
        plan.append((f"disc.trunk.{i}.w", (c, in_c, 4, 4)))
        plan.append((f"disc.trunk.{i}.b", (c,)))
        in_c = c
    side = patch_size >> N_STAGES
    feat = chans[-1] * side * side
    for head in ("image_head", "freq_head"):
        plan.append((f"disc.{head}.w", (feat, 1)))
        plan.append((f"disc.{head}.b", (1,)))
    return plan


def _fan_in(name: str, shape: tuple[int, ...]) -> int:
    if name.endswith(".b"):
        return 0
    if ".enc." in name or ".trunk." in name:
        return shape[1] * shape[2] * shape[3]
    if ".dec_" in name:
        return shape[0] * shape[2] * shape[3]
    return shape[0]


def init_params(patch_size: int, seed: int, base_channels: int = 32) -> AiftParams:
    """Deterministically initialize a fresh model.

    Weights are drawn uniform in +-sqrt(6 / fan_in) and rounded once to
    float32, biases zero.  The same seed always yields bit-identical tensors.
    """
    if patch_size not in PATCH_SIZES:
        raise ConfigurationError(f"patch_size must be one of {PATCH_SIZES}, got {patch_size}")
    if not isinstance(seed, int) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    if base_channels < 1:
        raise ConfigurationError(f"base_channels must be >= 1, got {base_channels}")
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in _layer_plan(patch_size, base_channels):
        if name.endswith(".b"):
            data = np.zeros(shape, dtype=MODEL_DTYPE)
        else:
            bound = np.sqrt(6.0 / _fan_in(name, shape))
            data = rng.uniform(-bound, bound, size=shape).astype(MODEL_DTYPE)
        tensors[name] = Tensor(data, requires_grad=True)
    return AiftParams(patch_size, base_channels, seed, tensors)


def _check_patch_batch(params: AiftParams, x: Tensor, who: str, weight: str) -> Tensor:
    """Check the batch shape; a plain input (no graph behind it) comes back
    cast to the dtype of the parameter ``weight``."""
    p = params.patch_size
    if x.data.ndim != 4 or x.shape[1] != 1 or x.shape[2] != p or x.shape[3] != p:
        raise DimensionError(f"{who} expects [N, 1, {p}, {p}], got {x.shape}")
    dtype = params.tensors[weight].data.dtype
    if x.requires_grad or x.data.dtype == dtype:
        return x
    return Tensor(x.data.astype(dtype))


def _run_conv_stack(params: AiftParams, x: Tensor, prefix: str) -> Tensor:
    h = x
    for i in range(N_STAGES):
        w = params.tensors[f"{prefix}.{i}.w"]
        b = params.tensors[f"{prefix}.{i}.b"]
        h = ad.conv2d(h, w, stride=2, padding=1)
        h = ad.leaky_relu(ad.add_channel_bias(h, b), _LEAK)
    return h


def generate(params: AiftParams, x: Tensor, direction: str) -> Tensor:
    """Map a batch through one generator direction; output in (0, 1)."""
    if direction not in DIRECTIONS:
        raise ConfigurationError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    x = _check_patch_batch(params, x, "generate", "gen.enc.0.w")
    h = _run_conv_stack(params, x, "gen.enc")
    head = "gen.dec_freq" if direction == I2F else "gen.dec_image"
    for i in range(N_STAGES):
        w = params.tensors[f"{head}.{i}.w"]
        b = params.tensors[f"{head}.{i}.b"]
        h = ad.conv_transpose2d(h, w, stride=2, padding=1)
        h = ad.add_channel_bias(h, b)
        h = ad.sigmoid(h) if i == N_STAGES - 1 else ad.leaky_relu(h, _LEAK)
    return h


def discriminate(params: AiftParams, x: Tensor, domain: str) -> Tensor:
    """Score a batch as [N, 1] likelihoods of being a real sample of ``domain``."""
    if domain not in DOMAINS:
        raise ConfigurationError(f"domain must be one of {DOMAINS}, got {domain!r}")
    x = _check_patch_batch(params, x, "discriminate", "disc.trunk.0.w")
    h = _run_conv_stack(params, x, "disc.trunk")
    head = "disc.image_head" if domain == "image" else "disc.freq_head"
    flat = ad.flatten(h)
    logits = ad.dense(flat, params.tensors[f"{head}.w"], params.tensors[f"{head}.b"])
    return ad.sigmoid(logits)


# -- checkpoint format ---------------------------------------------------------


def save_checkpoint(params: AiftParams, path) -> None:
    """Serialize parameters as little-endian float32 tensors."""
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
        blob += np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise IntegrityError("checkpoint truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> bool:
        return self.pos == len(self.buf)


def load_checkpoint(path) -> AiftParams:
    """Read a checkpoint back into trainable float32 tensors, bit for bit.

    Raises InputError when the file cannot be read, and IntegrityError on a
    bad magic, unknown version, trailing bytes or a tensor listing that does
    not match the declared architecture.
    """
    try:
        with open(path, "rb") as fh:
            reader = _Reader(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if reader.take(4) != _MAGIC:
        raise IntegrityError(f"not a model checkpoint: {path}")
    (version,) = reader.unpack("<H")
    if version != _VERSION:
        raise IntegrityError(f"unsupported checkpoint version {version}")
    (patch_size,) = reader.unpack("<I")
    (seed,) = reader.unpack("<Q")
    (n_chans,) = reader.unpack("<I")
    chans = list(reader.unpack(f"<{n_chans}I"))
    if patch_size not in PATCH_SIZES:
        raise IntegrityError(f"checkpoint declares unsupported patch size {patch_size}")
    base = chans[0] if chans else 0
    if chans != [base << i for i in range(N_STAGES)] or base < 1:
        raise IntegrityError(f"checkpoint declares malformed channel widths {chans}")
    (count,) = reader.unpack("<I")
    tensors: dict[str, Tensor] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<I")
        name = reader.take(name_len).decode("utf-8")
        (rank,) = reader.unpack("<I")
        shape = tuple(reader.unpack(f"<{rank}I")) if rank else ()
        n_values = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = reader.take(4 * n_values)
        data = np.frombuffer(raw, dtype="<f4").astype(MODEL_DTYPE).reshape(shape)
        tensors[name] = Tensor(data, requires_grad=True)
    if not reader.done():
        raise IntegrityError("trailing bytes after checkpoint payload")
    expected = _layer_plan(patch_size, base)
    got = [(name, t.shape) for name, t in tensors.items()]
    if got != expected:
        raise IntegrityError("checkpoint tensor listing does not match its declared architecture")
    return AiftParams(patch_size, base, int(seed), tensors)
