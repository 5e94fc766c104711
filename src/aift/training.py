"""Losses and the adversarial training loop.

One training step runs two phases on a minibatch of (spatial patch,
frequency image) pairs:

* critic phase: ``critic_iters`` ascent steps on the discriminator
  parameters, maximizing the adversarial transform-consistency objective,
  the sum of each domain's critic score E[log D(real)] + E[log(1 - D(fake))].
  The generator is frozen here; its fake samples are produced once per step
  with gradients disabled and reused across all critic iterations.  The
  last iteration's scores are logged as ``d_image_loss`` and ``d_freq_loss``.
* generator phase: one descent step on the generator parameters.  Its
  adversarial part is the non-saturating -log D(fake) of both domains,
  combined with the bidirectional reconstruction term weighted by lambda.
  It scores its fakes through a frozen view of the parameters, in which the
  discriminator's tensors are constants over the same arrays, so its
  backward pass takes only the input gradients of the discriminator's
  layers and writes no gradient to a discriminator parameter.

``loss_mode`` selects the objective: ``re`` trains on reconstruction alone
(the discriminator never updates), ``gan`` on the adversarial part alone,
``total`` on the weighted sum.  The two optimizers touch disjoint parameter
sets, so neither phase can leak updates into the other.  ``Adam.step``
releases each gradient it applies, so a finished step leaves no gradient on
the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .errors import ConfigurationError, ContractError, DimensionError
from .model import (AiftParams, F2I, I2F, MODEL_DTYPE, generate, discriminate,
                    init_params)
from .optim import Adam

LOSS_MODES = ("re", "gan", "total")
LIKELIHOOD_EPS = 1e-7


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    lam: float = 0.1
    critic_iters: int = 10
    lr: float = 2e-4
    beta1: ClassVar[float] = 0.5  # Adam's betas are fixed, not settings
    beta2: ClassVar[float] = 0.999
    loss_mode: str = "total"
    seed: int = 0
    base_channels: int = 32

    def validate(self) -> "TrainConfig":
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.lam < np.inf:
            raise ConfigurationError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.critic_iters < 1:
            raise ConfigurationError(f"critic_iters must be >= 1, got {self.critic_iters}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigurationError(f"lr must be finite and > 0, got {self.lr}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigurationError(
                f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.base_channels < 1:
            raise ConfigurationError(f"base_channels must be >= 1, got {self.base_channels}")
        return self


@dataclass
class EpochRecord:
    epoch: int
    g_loss: float
    d_image_loss: float
    d_freq_loss: float
    recon: float
    seconds: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    CSV_COLUMNS = ("epoch", "g_loss", "dI_loss", "dF_loss", "recon", "seconds")

    def to_csv(self) -> str:
        lines = [",".join(self.CSV_COLUMNS)]
        for r in self.records:
            lines.append(",".join([
                str(r.epoch), repr(r.g_loss), repr(r.d_image_loss),
                repr(r.d_freq_loss), repr(r.recon), repr(r.seconds),
            ]))
        return "\n".join(lines) + "\n"


@dataclass
class StepLosses:
    g_loss: float
    d_image_loss: float
    d_freq_loss: float
    recon: float


def _check_scalar_finite(value: Tensor, term: str) -> Tensor:
    if not np.all(np.isfinite(value.data)):
        raise ContractError(f"non-finite value in loss term '{term}'")
    return value


def _mean_log(p: Tensor) -> Tensor:
    return ad.mean(ad.log(ad.clip(p, LIKELIHOOD_EPS, 1.0)))


def _critic_score(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """One domain's critic term, E[log D(real)] + E[log(1 - D(fake))]."""
    return ad.add(_mean_log(d_real), _mean_log(1.0 - d_fake))


def _check_likelihood(t: Tensor, term: str) -> Tensor:
    if t.data.ndim != 2 or t.shape[1] != 1:
        raise DimensionError(f"{term} must be [N, 1] likelihoods, got {t.shape}")
    if not np.all(np.isfinite(t.data)):
        raise ContractError(f"non-finite likelihood in {term}")
    return t


def atcl_loss(d_image_real: Tensor, d_freq_real: Tensor,
              d_freq_fake: Tensor, d_image_fake: Tensor) -> Tensor:
    """Adversarial transform-consistency objective (the critic maximizes it).

    The image domain's critic score plus the frequency domain's, each
    E[log D(real)] + E[log(1 - D(fake))] over translated (fake) samples.
    All likelihoods are clamped away from {0, 1} before taking logs.
    """
    _check_likelihood(d_image_real, "d_image_real")
    _check_likelihood(d_freq_real, "d_freq_real")
    _check_likelihood(d_freq_fake, "d_freq_fake")
    _check_likelihood(d_image_fake, "d_image_fake")
    value = ad.add(_critic_score(d_image_real, d_image_fake),
                   _critic_score(d_freq_real, d_freq_fake))
    return _check_scalar_finite(value, "atcl")


def recon_loss(x_image: Tensor, x_freq: Tensor,
               gen_freq: Tensor, gen_image: Tensor) -> Tensor:
    """Bidirectional mean squared reconstruction error.

    Mean over all pixels of (x_freq - gen_freq)^2 plus the same for the
    image direction; symmetric in the two directions by construction.
    """
    if x_freq.shape != gen_freq.shape:
        raise DimensionError(f"frequency shapes differ: {x_freq.shape} vs {gen_freq.shape}")
    if x_image.shape != gen_image.shape:
        raise DimensionError(f"image shapes differ: {x_image.shape} vs {gen_image.shape}")
    df = ad.sub(x_freq, gen_freq)
    di = ad.sub(x_image, gen_image)
    value = ad.add(ad.mean(ad.mul(df, df)), ad.mean(ad.mul(di, di)))
    return _check_scalar_finite(value, "reconstruction")


def total_loss(adv, recon, lam: float):
    """adv + lam * recon (tensors or plain floats), where adv is the generator's
    non-saturating adversarial term -(E[log D(fake freq)] + E[log D(fake image)])."""
    return adv + lam * recon


def _frozen_view(params: AiftParams) -> AiftParams:
    """``params`` with each disc.* tensor replaced by a constant over the
    same array; the generator tensors are shared."""
    frozen = {k: Tensor(t.data) for k, t in params.discriminator_tensors().items()}
    return replace(params, tensors={**params.tensors, **frozen})


def train_step(params: AiftParams, batch: tuple[np.ndarray, np.ndarray],
               config: TrainConfig, g_opt: Adam, d_opt: Adam) -> StepLosses:
    """Run one critic-then-generator update on a single minibatch.

    The batch enters as float32, the model's dtype, so that a float64 target
    cannot promote the reconstruction gradient and every GEMM behind it.
    """
    images, freqs = batch
    x_image = Tensor(np.asarray(images, dtype=MODEL_DTYPE))
    x_freq = Tensor(np.asarray(freqs, dtype=MODEL_DTYPE))
    mode = config.loss_mode

    d_image_loss = 0.0
    d_freq_loss = 0.0
    if mode in ("gan", "total"):
        with no_grad():
            fake_freq = generate(params, x_image, I2F)
            fake_image = generate(params, x_freq, F2I)
        for _ in range(config.critic_iters):
            d_opt.zero_grad()
            d_image_real = discriminate(params, x_image, "image")
            d_freq_real = discriminate(params, x_freq, "frequency")
            d_freq_fake = discriminate(params, fake_freq, "frequency")
            d_image_fake = discriminate(params, fake_image, "image")
            atcl = atcl_loss(d_image_real, d_freq_real, d_freq_fake, d_image_fake)
            ascent = ad.neg(atcl)
            ascent.backward()
            d_opt.step()
        with no_grad():
            d_image_loss = _critic_score(d_image_real, d_image_fake).item()
            d_freq_loss = _critic_score(d_freq_real, d_freq_fake).item()

    g_opt.zero_grad()
    gen_freq = generate(params, x_image, I2F)
    gen_image = generate(params, x_freq, F2I)
    rec = recon_loss(x_image, x_freq, gen_freq, gen_image)
    if mode == "re":
        g_obj = rec
    else:
        critic = _frozen_view(params)
        adv = ad.neg(ad.add(
            _mean_log(discriminate(critic, gen_freq, "frequency")),
            _mean_log(discriminate(critic, gen_image, "image")),
        ))
        _check_scalar_finite(adv, "generator adversarial")
        g_obj = adv if mode == "gan" else total_loss(adv, rec, config.lam)
    _check_scalar_finite(g_obj, "generator objective")
    g_loss = g_obj.item()
    rec_value = rec.item()
    g_obj.backward()
    g_opt.step()
    return StepLosses(g_loss, d_image_loss, d_freq_loss, rec_value)


def train(dataset: tuple[np.ndarray, np.ndarray], config: TrainConfig,
          epoch_callback=None) -> tuple[AiftParams, TrainLog]:
    """Train on paired arrays (images [M, 1, P, P], freqs [M, 1, P, P]),
    cast once to float32, the model's dtype.

    Minibatches are drawn without replacement from a seeded shuffle each
    epoch; a trailing partial batch is dropped.  Returns the trained
    parameters and a per-epoch log.
    """
    config.validate()
    images, freqs = dataset
    images = np.asarray(images, dtype=MODEL_DTYPE)
    freqs = np.asarray(freqs, dtype=MODEL_DTYPE)
    if images.ndim != 4 or freqs.shape != images.shape:
        raise DimensionError(
            f"dataset must be two equal [M, 1, P, P] stacks, got {images.shape} and {freqs.shape}")
    m = images.shape[0]
    if m == 0:
        raise ConfigurationError("training set is empty")
    batch = min(config.batch_size, m)
    params = init_params(images.shape[2], config.seed, config.base_channels)
    g_opt = Adam(params.generator_tensors(), lr=config.lr,
                 beta1=config.beta1, beta2=config.beta2)
    d_opt = Adam(params.discriminator_tensors(), lr=config.lr,
                 beta1=config.beta1, beta2=config.beta2)
    shuffle_rng = np.random.default_rng([config.seed, 0x5EED])

    log = TrainLog()
    steps_per_epoch = m // batch
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(m)
        sums = np.zeros(4)
        for s in range(steps_per_epoch):
            pick = order[s * batch:(s + 1) * batch]
            losses = train_step(params, (images[pick], freqs[pick]), config, g_opt, d_opt)
            sums += (losses.g_loss, losses.d_image_loss, losses.d_freq_loss, losses.recon)
        means = [float(v) for v in sums / steps_per_epoch]
        record = EpochRecord(epoch, means[0], means[1], means[2], means[3],
                             time.perf_counter() - started)
        log.records.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, params, record)
    return params, log
