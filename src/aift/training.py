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

Each phase back-propagates one loss term at a time, so only one term's
graph is alive at once.  A critic iteration takes its four terms newest
first, in the reverse of the order atcl_loss builds them (fake image, fake
frequency, real frequency, real image), each seeded with -1: one backward
pass of their sum visits them in that order, and a disc.* weight, which
sums four gradients, must add them in that order to keep its bits, since
float addition is not associative.  The generator phase runs F2I, then
I2F; each direction generates, builds its reconstruction mean (seeded with
lambda in ``total`` and 1 in ``re``; ``gan`` builds it without a graph,
since it never back-propagates it) and its frozen critic's E[log D]
(seeded with -1), and back-propagates them.  A generator weight sums at
most two gradients, exact in either order.  The critic phase's fakes and
likelihoods are gone before the generator runs.
The logged losses are the float32 sums of the terms' values that the whole
objective would compute, and each finiteness check runs before its term's
backward pass.

``loss_mode`` selects the objective: ``re`` trains on reconstruction alone
(the discriminator never updates), ``gan`` on the adversarial part alone,
``total`` on the weighted sum.  The two optimizers touch disjoint parameter
sets, so neither phase can leak updates into the other.  ``Adam.step``
releases each gradient it applies, so a finished step leaves no gradient on
the model.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .config import LOSS_MODES, TrainConfig  # noqa: F401  (LOSS_MODES is re-exported)
from .errors import ConfigurationError, ContractError, DimensionError
from .model import (AiftParams, F2I, I2F, MODEL_DTYPE, generate, discriminate,
                    init_params)
from .optim import Adam

LIKELIHOOD_EPS = 1e-7


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


def _check_finite(value, term: str):
    """``value``, a scalar Tensor or number, if it is finite."""
    if not np.all(np.isfinite(value.data if isinstance(value, Tensor) else value)):
        raise ContractError(f"non-finite value in loss term '{term}'")
    return value


def _mean_log(p: Tensor) -> Tensor:
    return ad.mean(ad.log(ad.clip(p, LIKELIHOOD_EPS, 1.0)))


def _critic_term(d: Tensor, term: str, real: bool) -> Tensor:
    """One of the critic's four terms, E[log D] of a real sample's [N, 1]
    likelihoods ``d`` or E[log(1 - D)] of a fake sample's."""
    if d.data.ndim != 2 or d.shape[1] != 1:
        raise DimensionError(f"{term} must be [N, 1] likelihoods, got {d.shape}")
    if not np.all(np.isfinite(d.data)):
        raise ContractError(f"non-finite likelihood in {term}")
    return _mean_log(d if real else 1.0 - d)


def _recon_term(x: Tensor, gen: Tensor, domain: str) -> Tensor:
    """One direction's reconstruction term, the mean of (x - gen)^2."""
    if x.shape != gen.shape:
        raise DimensionError(f"{domain} shapes differ: {x.shape} vs {gen.shape}")
    diff = ad.sub(x, gen)
    return ad.mean(ad.mul(diff, diff))


def atcl_loss(d_image_real: Tensor, d_freq_real: Tensor,
              d_freq_fake: Tensor, d_image_fake: Tensor) -> Tensor:
    """Adversarial transform-consistency objective (the critic maximizes it).

    The image domain's critic score plus the frequency domain's, each
    E[log D(real)] + E[log(1 - D(fake))] over translated (fake) samples.
    All likelihoods are clamped away from {0, 1} before taking logs.
    """
    ir = _critic_term(d_image_real, "d_image_real", real=True)
    fr = _critic_term(d_freq_real, "d_freq_real", real=True)
    ff = _critic_term(d_freq_fake, "d_freq_fake", real=False)
    fi = _critic_term(d_image_fake, "d_image_fake", real=False)
    return _check_finite(ad.add(ad.add(ir, fi), ad.add(fr, ff)), "atcl")


def recon_loss(x_image: Tensor, x_freq: Tensor,
               gen_freq: Tensor, gen_image: Tensor) -> Tensor:
    """Bidirectional mean squared reconstruction error.

    Mean over all pixels of (x_freq - gen_freq)^2 plus the same for the
    image direction; symmetric in the two directions by construction.
    """
    value = ad.add(_recon_term(x_freq, gen_freq, "frequency"),
                   _recon_term(x_image, gen_image, "image"))
    return _check_finite(value, "reconstruction")


def total_loss(adv, recon, lam: float):
    """adv + lam * recon (tensors or plain floats), where adv is the generator's
    non-saturating adversarial term -(E[log D(fake freq)] + E[log D(fake image)])."""
    return adv + lam * recon


def _frozen_view(params: AiftParams) -> AiftParams:
    """``params`` with each disc.* tensor replaced by a constant over the
    same array; the generator tensors are shared."""
    frozen = {k: Tensor(t.data) for k, t in params.discriminator_tensors().items()}
    return replace(params, tensors={**params.tensors, **frozen})


def _critic_phase(params: AiftParams, x_image: Tensor, x_freq: Tensor,
                  config: TrainConfig, d_opt: Adam) -> tuple[float, float]:
    """``critic_iters`` ascent steps on atcl_loss, one backward pass per term;
    returns the last iteration's image and frequency critic scores."""
    with no_grad():
        fake_freq = generate(params, x_image, I2F)
        fake_image = generate(params, x_freq, F2I)
    # atcl_loss's terms, newest first (see the module docstring)
    terms = (("d_image_fake", fake_image, "image", False),
             ("d_freq_fake", fake_freq, "frequency", False),
             ("d_freq_real", x_freq, "frequency", True),
             ("d_image_real", x_image, "image", True))
    for _ in range(config.critic_iters):
        d_opt.zero_grad()
        values = {}
        for term, x, domain, real in terms:
            value = _critic_term(discriminate(params, x, domain), term, real)
            ad.neg(value).backward()
            values[term] = value.data
        d_opt.step()
    return (float(values["d_image_real"] + values["d_image_fake"]),
            float(values["d_freq_real"] + values["d_freq_fake"]))


def _generator_direction(params: AiftParams, critic: AiftParams | None, x: Tensor,
                         target: Tensor, direction: str, domain: str,
                         config: TrainConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Generate ``domain`` from ``x`` and back-propagate this direction's
    share of the generator objective.  Returns its reconstruction term and,
    scored by ``critic`` unless it is None (``re``), its E[log D(fake)]."""
    gen = generate(params, x, direction)
    with no_grad() if config.loss_mode == "gan" else nullcontext():
        rec = _check_finite(_recon_term(target, gen, domain), "reconstruction")
    if critic is None:
        rec.backward()
        return rec.data, None
    log_d = _check_finite(_mean_log(discriminate(critic, gen, domain)),
                          "generator adversarial")
    objective = ad.neg(log_d)
    if config.loss_mode == "total":
        objective = _check_finite(total_loss(objective, rec, config.lam),
                                  "generator objective")
    objective.backward()
    return rec.data, log_d.data


def _generator_phase(params: AiftParams, x_image: Tensor, x_freq: Tensor,
                     config: TrainConfig, g_opt: Adam) -> tuple[float, float]:
    """The generator's gradients, one backward pass per direction, newest
    (F2I) first; returns the objective and the reconstruction term."""
    g_opt.zero_grad()
    critic = None if config.loss_mode == "re" else _frozen_view(params)
    rec_i, log_d_i = _generator_direction(params, critic, x_freq, x_image, F2I, "image", config)
    rec_f, log_d_f = _generator_direction(params, critic, x_image, x_freq, I2F, "frequency",
                                          config)
    recon = _check_finite(rec_f + rec_i, "reconstruction")
    if critic is None:
        return float(recon), float(recon)
    adv = -(log_d_f + log_d_i)
    g_loss = adv if config.loss_mode == "gan" else total_loss(adv, recon, config.lam)
    return float(_check_finite(g_loss, "generator objective")), float(recon)


def train_step(params: AiftParams, batch: tuple[np.ndarray, np.ndarray],
               config: TrainConfig, g_opt: Adam, d_opt: Adam) -> StepLosses:
    """Run one critic-then-generator update on a single minibatch.

    The batch enters as float32, the model's dtype, so that a float64 target
    cannot promote the reconstruction gradient and every GEMM behind it.
    """
    images, freqs = batch
    x_image = Tensor(np.asarray(images, dtype=MODEL_DTYPE))
    x_freq = Tensor(np.asarray(freqs, dtype=MODEL_DTYPE))
    d_image_loss = d_freq_loss = 0.0
    if config.loss_mode != "re":
        d_image_loss, d_freq_loss = _critic_phase(params, x_image, x_freq, config, d_opt)
    g_loss, recon = _generator_phase(params, x_image, x_freq, config, g_opt)
    g_opt.step()
    return StepLosses(g_loss, d_image_loss, d_freq_loss, recon)


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
