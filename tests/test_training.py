"""Loss identities and training-loop contracts."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aift
import aift.autodiff as ad
from aift import (Tensor, TrainConfig, atcl_loss, detect, init_params, load_checkpoint,
                  recon_loss, save_checkpoint, total_loss, train, train_step)
from aift.errors import ConfigurationError, ContractError, DimensionError
from aift.model import F2I, I2F, generate, discriminate
from aift.optim import Adam
from aift.training import LIKELIHOOD_EPS
from oracles import train_step_joint


def likelihoods(*values):
    return [Tensor(np.full((len(values[0]) if isinstance(values[0], list) else 1, 1), v),
                   requires_grad=True) for v in values]


def toy_batch(n=6, patch=16, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, (n, 1, patch, patch))
    from aift import spectrum_image
    freqs = np.stack([spectrum_image(im[0]) for im in images])[:, None]
    return images, freqs


class TestAtclLoss:
    def test_uniform_half_value(self):
        ts = likelihoods(0.5, 0.5, 0.5, 0.5)
        value = atcl_loss(*ts).item()
        assert value == pytest.approx(4.0 * math.log(0.5), abs=1e-12)

    def test_perfect_discriminators_approach_zero(self):
        hi = 1.0 - LIKELIHOOD_EPS
        lo = LIKELIHOOD_EPS
        ts = likelihoods(hi, hi, lo, lo)
        value = atcl_loss(*ts).item()
        assert value == pytest.approx(0.0, abs=1e-5)
        assert value < 0.0

    def test_mean_reduction_batch_invariance(self):
        single = atcl_loss(*likelihoods(0.3, 0.6, 0.2, 0.7)).item()
        doubled = atcl_loss(*[Tensor(np.full((2, 1), v), requires_grad=True)
                              for v in (0.3, 0.6, 0.2, 0.7)]).item()
        assert doubled == pytest.approx(single, rel=1e-12)

    def test_clamps_likelihoods_at_bounds(self):
        ts = likelihoods(1.0, 1.0, 0.0, 0.0)
        value = atcl_loss(*ts).item()
        assert np.isfinite(value)

    def test_monotone_directions_via_gradients(self):
        # the objective rises with real likelihoods and falls with fake ones
        d_ir, d_fr, d_ff, d_if = likelihoods(0.6, 0.55, 0.4, 0.45)
        atcl_loss(d_ir, d_fr, d_ff, d_if).backward()
        assert d_ir.grad[0, 0] > 0 and d_fr.grad[0, 0] > 0
        assert d_ff.grad[0, 0] < 0 and d_if.grad[0, 0] < 0

    def test_rejects_non_finite(self):
        bad = Tensor(np.array([[np.nan]]))
        good = Tensor(np.array([[0.5]]))
        with pytest.raises(ContractError):
            atcl_loss(bad, good, good, good)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            atcl_loss(Tensor(np.zeros((2, 2))), *likelihoods(0.5, 0.5, 0.5))


class TestReconLoss:
    def test_equal_pairs_exactly_zero(self):
        a = Tensor(np.random.default_rng(0).uniform(0, 1, (2, 1, 4, 4)))
        b = Tensor(np.random.default_rng(1).uniform(0, 1, (2, 1, 4, 4)))
        assert recon_loss(a, b, b, a).item() == 0.0

    def test_scalar_hand_value(self):
        one = Tensor(np.ones((1, 1, 1, 1)))
        zero = Tensor(np.zeros((1, 1, 1, 1)))
        # both directions off by 1 on a single pixel: 1 + 1
        assert recon_loss(one, one, zero, zero).item() == pytest.approx(2.0)

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ts = [Tensor(rng.uniform(0, 1, (2, 1, 3, 3))) for _ in range(4)]
            assert recon_loss(*ts).item() >= 0.0

    def test_per_pixel_mean_scale_invariance(self):
        # doubling the spatial size of identical content keeps the value
        rng = np.random.default_rng(4)
        small = [Tensor(rng.uniform(0, 1, (1, 1, 2, 2))) for _ in range(4)]
        big = [Tensor(np.tile(t.data, (1, 1, 2, 2))) for t in small]
        assert recon_loss(*small).item() == pytest.approx(recon_loss(*big).item())

    @pytest.mark.parametrize("odd, domain", [(0, "frequency"), (1, "image")],
                             ids=["frequency", "image"])
    def test_shape_mismatch_names_the_domain(self, odd, domain):
        # arguments: x_image, x_freq, gen_freq, gen_image; one generated map is misshaped
        args = [Tensor(np.zeros((1, 1, 2, 2))) for _ in range(4)]
        args[2 + odd] = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(DimensionError, match=f"{domain} shapes differ"):
            recon_loss(*args)


class TestTotalLoss:
    def test_lambda_zero_is_atcl(self):
        assert total_loss(-2.5, 4.0, 0.0) == -2.5

    def test_hand_value(self):
        assert total_loss(-2.0, 4.0, 0.1) == pytest.approx(-1.6)

    def test_linearity_identity_to_one_ulp(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.uniform(-5, 5)
            r = rng.uniform(0, 5)
            lam = rng.uniform(0, 1)
            lhs = total_loss(a, r, lam) - total_loss(a, 0.0, lam)
            rhs = lam * r
            assert abs(lhs - rhs) <= math.ulp(max(abs(lhs), abs(rhs), abs(a)))

    def test_works_on_tensors(self):
        out = total_loss(Tensor(np.array(-2.0)), Tensor(np.array(4.0)), 0.1)
        assert out.item() == pytest.approx(-1.6)


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.lam, cfg.critic_iters) == (50, 64, 0.1, 10)
        assert (cfg.lr, cfg.beta1, cfg.beta2) == (2e-4, 0.5, 0.999)

    @pytest.mark.parametrize("kw", [dict(epochs=0), dict(batch_size=0), dict(lam=-0.1),
                                    dict(critic_iters=0), dict(loss_mode="wgan"),
                                    dict(seed=-1), dict(lr=0.0), dict(lr=float("nan")),
                                    dict(lr=float("inf")), dict(lam=float("nan")),
                                    dict(lam=float("inf")), dict(base_channels=0),
                                    dict(lr="0.1"), dict(lam=None), dict(lam=True),
                                    dict(lr=np.True_)])
    def test_rejects_invalid(self, kw):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kw).validate()

    def test_numpy_floats_are_numbers(self):
        cfg = TrainConfig(lam=np.float64(0.2), lr=np.float32(1e-3)).validate()
        assert (cfg.lam, cfg.lr) == (np.float64(0.2), np.float32(1e-3))

    @pytest.mark.parametrize("kw", [dict(batch_size=3.0), dict(epochs=1.5),
                                    dict(critic_iters=1.5), dict(base_channels=4.0),
                                    dict(seed=True), dict(seed=1.0), dict(epochs=np.True_)],
                             ids=lambda kw: f"{next(iter(kw))}={next(iter(kw.values()))!r}")
    def test_train_rejects_a_count_that_is_not_an_integer(self, kw):
        name = next(iter(kw))
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer, got "):
            train(toy_batch(), _fresh(**kw))

    def test_numpy_integers_train_as_python_integers(self):
        images, freqs = toy_batch(n=6)
        counts = dict(epochs=2, batch_size=3, critic_iters=1, seed=3, base_channels=4)
        p1, log1 = train((images, freqs), _fresh(**counts))
        p2, log2 = train((images, freqs), _fresh(**{k: np.int64(v) for k, v in counts.items()}))
        assert (p2.seed, p2.base_channels) == (3, 4) and type(p2.seed) is int
        assert all(np.array_equal(p1.tensors[n].data, p2.tensors[n].data) for n in p1.tensors)
        assert [r.g_loss for r in log1.records] == [r.g_loss for r in log2.records]


def _fresh(mode="total", **kw):
    defaults = dict(epochs=1, batch_size=3, lam=0.1, critic_iters=2, lr=1e-3,
                    loss_mode=mode, seed=0, base_channels=4)
    defaults.update(kw)
    return TrainConfig(**defaults)


def _opts(params, cfg):
    g = Adam(params.generator_tensors(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    d = Adam(params.discriminator_tensors(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    return g, d


def applied_grads(monkeypatch):
    """A dict that maps each parameter to the gradient the last Adam.step
    applied to it, read as step receives it (step releases it after)."""
    grads = {}
    step = Adam.step

    def recording(opt):
        grads.update((p, p.grad) for p in opt.params)
        step(opt)

    monkeypatch.setattr(Adam, "step", recording)
    return grads


def _state(params, g_opt, d_opt):
    """Every parameter and Adam moment as bytes, and both step counters."""
    return ([t.data.tobytes() for t in params.tensors.values()]
            + [a.tobytes() for opt in (g_opt, d_opt) for a in opt.m + opt.v]
            + [g_opt.t, d_opt.t])


BIT_CASES = [(mode, base) for base in (16, 2) for mode in ("total", "gan", "re")]


def three_steps(step, mode, base):
    """The state and losses after three steps of ``step`` from a fresh model."""
    images, freqs = (a.astype(np.float32) for a in toy_batch(n=8, seed=4))
    params = init_params(16, 3, base_channels=base)
    cfg = _fresh(mode, batch_size=8, critic_iters=2, base_channels=base)
    g_opt, d_opt = _opts(params, cfg)
    losses = [step(params, (images, freqs), cfg, g_opt, d_opt) for _ in range(3)]
    return _state(params, g_opt, d_opt) + losses


class TestTrainStep:
    def test_zero_lr_is_a_null_update(self):
        images, freqs = toy_batch()
        params = init_params(16, 0, base_channels=4)
        before = {n: t.data.copy() for n, t in params.tensors.items()}
        cfg = _fresh(lr=1e-30)  # lr=0 is rejected by validate; emulate via Adam directly
        g_opt = Adam(params.generator_tensors(), lr=0.0)
        d_opt = Adam(params.discriminator_tensors(), lr=0.0)
        train_step(params, (images, freqs), cfg, g_opt, d_opt)
        for name, t in params.tensors.items():
            np.testing.assert_array_equal(t.data, before[name], err_msg=name)

    def test_re_mode_never_touches_discriminator(self):
        images, freqs = toy_batch()
        params = init_params(16, 0, base_channels=4)
        cfg = _fresh("re")
        g_opt, d_opt = _opts(params, cfg)
        disc_before = {n: t.data.copy() for n, t in params.discriminator_tensors().items()}
        train_step(params, (images, freqs), cfg, g_opt, d_opt)
        for name, t in params.discriminator_tensors().items():
            np.testing.assert_array_equal(t.data, disc_before[name])
            assert t.grad is None

    @pytest.mark.parametrize("mode", ["re", "gan", "total"])
    def test_empty_batch_rejected(self, mode):
        params = init_params(16, 0, base_channels=4)
        cfg = _fresh(mode)
        g_opt, d_opt = _opts(params, cfg)
        empty = np.zeros((0, 1, 16, 16))
        with pytest.raises(DimensionError, match="N >= 1"):
            train_step(params, (empty, empty), cfg, g_opt, d_opt)

    def test_phases_update_disjoint_sets(self):
        images, freqs = toy_batch()
        params = init_params(16, 1, base_channels=4)
        cfg = _fresh("total", critic_iters=1)
        g_opt, d_opt = _opts(params, cfg)
        before = {n: t.data.copy() for n, t in params.tensors.items()}
        train_step(params, (images, freqs), cfg, g_opt, d_opt)
        changed = {n for n, t in params.tensors.items()
                   if not np.array_equal(t.data, before[n])}
        assert any(n.startswith("gen.") for n in changed)
        assert any(n.startswith("disc.") for n in changed)

    def test_generator_descent_at_small_lr(self):
        # one generator-only step on a fixed batch must not increase the
        # objective (discriminators frozen), checked at lr=1e-5
        images, freqs = toy_batch(seed=2)
        params = init_params(16, 2, base_channels=4)
        x_i, x_f = Tensor(images), Tensor(freqs)
        lam = 0.1

        def objective():
            gen_f = generate(params, x_i, I2F)
            gen_i = generate(params, x_f, F2I)
            rec = recon_loss(x_i, x_f, gen_f, gen_i)
            adv = ad.neg(ad.add(
                ad.mean(ad.log(ad.clip(discriminate(params, gen_f, "frequency"),
                                       LIKELIHOOD_EPS, 1.0))),
                ad.mean(ad.log(ad.clip(discriminate(params, gen_i, "image"),
                                       LIKELIHOOD_EPS, 1.0)))))
            return total_loss(adv, rec, lam)

        g_opt = Adam(params.generator_tensors(), lr=1e-5, beta1=0.5)
        first = objective()
        value_before = first.item()
        first.backward()
        g_opt.step()
        value_after = objective().item()
        assert value_after <= value_before + 1e-9

    @pytest.mark.parametrize("mode", ["total", "re"])
    def test_no_gradient_is_written_in_place(self, mode, monkeypatch):
        # a first gradient is stored without a copy, so one array can be the
        # .grad of several tensors and the gradient of an interior node too;
        # a stored gradient made read-only raises on any write into it
        accumulate = ad._accumulate

        def read_only(tensor, grad):
            accumulate(tensor, grad)
            if tensor.grad is not None:
                tensor.grad.flags.writeable = False

        monkeypatch.setattr(ad, "_accumulate", read_only)
        grads = applied_grads(monkeypatch)
        images, freqs = toy_batch()
        params = init_params(16, 0, base_channels=4)
        cfg = _fresh(mode)
        g_opt, d_opt = _opts(params, cfg)
        train_step(params, (images, freqs), cfg, g_opt, d_opt)
        assert all(not grads[t].flags.writeable for t in params.generator_tensors().values())

    @pytest.mark.parametrize("mode", ["re", "gan", "total"])
    def test_step_leaves_no_gradient_on_the_model(self, mode):
        images, freqs = toy_batch()
        params = init_params(16, 0, base_channels=4)
        cfg = _fresh(mode)
        g_opt, d_opt = _opts(params, cfg)
        train_step(params, (images, freqs), cfg, g_opt, d_opt)
        assert [n for n, t in params.tensors.items() if t.grad is not None] == []

    @pytest.mark.parametrize("mode", ["gan", "total"])
    def test_generator_phase_writes_no_discriminator_gradient(self, mode, monkeypatch):
        images, freqs = toy_batch()
        params = init_params(16, 0, base_channels=4)
        cfg = _fresh(mode)
        g_opt, d_opt = _opts(params, cfg)
        held = []
        step = Adam.step

        def checking(opt):
            if opt is g_opt:
                held.extend(n for n, t in params.discriminator_tensors().items()
                            if t.grad is not None)
            step(opt)

        monkeypatch.setattr(Adam, "step", checking)
        train_step(params, (images, freqs), cfg, g_opt, d_opt)
        assert g_opt.t == 1 and held == []

    @pytest.mark.parametrize("mode", ["gan", "total"])
    def test_frozen_critic_gives_the_live_critics_generator_gradients(self, mode,
                                                                      monkeypatch):
        # the critic's optimizer has lr 0, so the generator phase meets the
        # initial discriminator; one backward pass through that discriminator,
        # live, must give every generator gradient the same bits
        images, freqs = (a.astype(np.float32) for a in toy_batch(seed=2))
        cfg = _fresh(mode, critic_iters=1)
        params = init_params(16, 2, base_channels=4)
        g_opt, _ = _opts(params, cfg)
        d_opt = Adam(params.discriminator_tensors(), lr=0.0)
        grads = applied_grads(monkeypatch)
        train_step(params, (images, freqs), cfg, g_opt, d_opt)

        live = init_params(16, 2, base_channels=4)
        x_i, x_f = Tensor(images), Tensor(freqs)
        gen_f = generate(live, x_i, I2F)
        gen_i = generate(live, x_f, F2I)
        rec = recon_loss(x_i, x_f, gen_f, gen_i)
        adv = ad.neg(ad.add(
            ad.mean(ad.log(ad.clip(discriminate(live, gen_f, "frequency"),
                                   LIKELIHOOD_EPS, 1.0))),
            ad.mean(ad.log(ad.clip(discriminate(live, gen_i, "image"),
                                   LIKELIHOOD_EPS, 1.0)))))
        (adv if mode == "gan" else total_loss(adv, rec, cfg.lam)).backward()
        for name, t in params.generator_tensors().items():
            assert np.array_equal(grads[t], live.tensors[name].grad), name

    @pytest.mark.parametrize("mode, bound", [("total", 12.05e6), ("gan", 11.55e6),
                                             ("re", 11.05e6)], ids=["total", "gan", "re"])
    def test_step_peak_memory_at_the_acceptance_config(self, mode, bound):
        # each loss term is back-propagated before the next one is built, so
        # one discriminator or generator graph is alive at a time; with all
        # four critic terms, or both directions, built before one backward
        # pass the traced peak was 15.9 MB (total) and 13.2 MB (re), and
        # 11.7 MB and 11.0 MB term by term.  gan builds its reconstruction
        # means without a graph, as it never back-propagates them: with
        # their graphs its peak was 12.1 MB, and 11.7 MB without.  Building
        # the columns without a padded copy alive beside them and writing the
        # bias and LeakyReLU in place took 0.44 MB off each: 11.2 MB (total,
        # gan) and 10.5 MB (re)
        images, freqs = (a.astype(np.float32) for a in toy_batch(n=50, patch=32))
        params = init_params(32, 0, base_channels=16)
        cfg = _fresh(mode, batch_size=50, critic_iters=2, base_channels=16)
        g_opt, d_opt = _opts(params, cfg)
        tracemalloc.start()
        try:
            train_step(params, (images, freqs), cfg, g_opt, d_opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"traced peak {peak / 1e6:.2f} MB"

    def test_aborts_on_non_finite_input(self):
        images, freqs = toy_batch()
        images = images.copy()
        images[0, 0, 0, 0] = np.nan
        params = init_params(16, 0, base_channels=4)
        cfg = _fresh("re")
        g_opt, d_opt = _opts(params, cfg)
        with pytest.raises(ContractError) as err:
            train_step(params, (images, freqs), cfg, g_opt, d_opt)
        assert "reconstruction" in str(err.value) or "generator" in str(err.value)

    @pytest.mark.parametrize("mode", ["gan", "total"])
    @pytest.mark.parametrize("nan_in, term, passes_before", [
        ("batch", "d_freq_fake", 1),
        ("disc.image_head.w", "d_image_fake", 0),
        ("disc.freq_head.w", "d_freq_fake", 1),
    ])
    def test_critic_guard_fires_before_its_terms_backward(self, mode, nan_in, term,
                                                          passes_before, monkeypatch):
        # a NaN patch makes the I2F fake non-finite; the critic's terms run
        # fake image, fake frequency, real frequency, real image, so the
        # fake image term alone is back-propagated before the guard fires
        images, freqs = toy_batch()
        params = init_params(16, 0, base_channels=4)
        if nan_in == "batch":
            images[1] = np.nan
        else:
            params.tensors[nan_in].data[0, 0] = np.nan
        cfg = _fresh(mode)
        g_opt, d_opt = _opts(params, cfg)
        before = _state(params, g_opt, d_opt)
        passes = []
        backward = Tensor.backward
        monkeypatch.setattr(Tensor, "backward", lambda t: (passes.append(t), backward(t)))
        with pytest.raises(ContractError, match=f"non-finite likelihood in {term}$"):
            train_step(params, (images, freqs), cfg, g_opt, d_opt)
        assert len(passes) == passes_before
        assert _state(params, g_opt, d_opt) == before


class TestTermwiseBackward:
    # train_step back-propagates one loss term at a time, newest first; each
    # weight must sum its gradients in the order one backward pass of the
    # whole objective uses (float addition is not associative)
    @pytest.mark.parametrize("mode, base", BIT_CASES)
    def test_three_steps_equal_the_one_backward_step(self, mode, base):
        assert three_steps(train_step, mode, base) == three_steps(train_step_joint, mode, base)

    def test_two_blas_threads_keep_the_bits(self):
        # the thread count is read when numpy loads, so it needs a fresh process
        code = ("import test_training as t, oracles; "
                "print(all(t.three_steps(t.train_step, m, b) == "
                "t.three_steps(oracles.train_step_joint, m, b) for m, b in t.BIT_CASES))")
        paths = [str(Path(aift.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parent)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=env)
        assert proc.stdout.strip() == "True"


class TestTrainLoop:
    def test_deterministic_runs(self):
        images, freqs = toy_batch(n=8)
        cfg = _fresh("total", epochs=2, batch_size=4)
        p1, log1 = train((images, freqs), cfg)
        p2, log2 = train((images, freqs), cfg)
        for name in p1.tensors:
            np.testing.assert_array_equal(p1.tensors[name].data, p2.tensors[name].data)
        assert [r.g_loss for r in log1.records] == [r.g_loss for r in log2.records]
        assert [r.recon for r in log1.records] == [r.recon for r in log2.records]

    def test_exact_step_count(self):
        images, freqs = toy_batch(n=10)
        counted = []
        cfg = _fresh("re", epochs=3, batch_size=4)
        _, log = train((images, freqs), cfg,
                       epoch_callback=lambda e, p, r: counted.append(e))
        # 3 epochs * floor(10 / 4) = 6 generator steps; one record per epoch
        assert counted == [1, 2, 3]
        assert len(log.records) == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            train((np.zeros((0, 1, 16, 16)), np.zeros((0, 1, 16, 16))), _fresh())

    @pytest.mark.parametrize("image_shape, freq_shape", [
        ((6, 1, 16, 16), (5, 1, 16, 16)),
        ((6, 1, 16, 16), (6, 1, 8, 8)),
        ((6, 16, 16), (6, 16, 16)),
    ], ids=["count", "patch", "rank"])
    def test_unequal_stacks_rejected(self, image_shape, freq_shape):
        with pytest.raises(DimensionError, match=r"two equal \[M, 1, P, P\] stacks"):
            train((np.zeros(image_shape), np.zeros(freq_shape)), _fresh(epochs=1))

    def test_epochs_zero_rejected(self):
        images, freqs = toy_batch()
        with pytest.raises(ConfigurationError):
            train((images, freqs), _fresh(epochs=0))

    def test_log_has_finite_values_and_metadata(self):
        images, freqs = toy_batch(n=6)
        _, log = train((images, freqs), _fresh("total", epochs=2, batch_size=3))
        for r in log.records:
            for v in (r.g_loss, r.d_image_loss, r.d_freq_loss, r.recon):
                assert np.isfinite(v)

    def test_csv_shape(self):
        images, freqs = toy_batch(n=6)
        _, log = train((images, freqs), _fresh("re", epochs=2, batch_size=3))
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "epoch,g_loss,dI_loss,dF_loss,recon,seconds"
        assert len(lines) == 3
        # re mode leaves the discriminator columns at zero
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == "0.0" and cells[3] == "0.0"

    def test_desk_scale_loss_decreases(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(0.2, 0.8, (1, 1, 16, 16))
        images = np.clip(base + rng.normal(0, 0.05, (12, 1, 16, 16)), 0, 1)
        from aift import spectrum_image
        freqs = np.stack([spectrum_image(im[0]) for im in images])[:, None]
        cfg = _fresh("re", epochs=8, batch_size=6, lr=3e-3)
        _, log = train((images, freqs), cfg)
        assert log.records[-1].g_loss < log.records[0].g_loss


class TestModelDtype:
    def test_float64_batch_leaves_everything_float32(self, monkeypatch):
        # the batch is float64, as a caller may pass it; the step must not
        # promote a parameter, a gradient or an Adam moment to float64
        images, freqs = toy_batch()
        assert images.dtype == np.float64
        params = init_params(16, 0, base_channels=4)
        cfg = _fresh("total", critic_iters=1)
        g_opt, d_opt = _opts(params, cfg)
        grads = applied_grads(monkeypatch)
        train_step(params, (images, freqs), cfg, g_opt, d_opt)
        for name, t in params.tensors.items():
            assert t.data.dtype == np.float32, name
            assert grads[t] is not None and grads[t].dtype == np.float32, name
        for opt in (g_opt, d_opt):
            assert all(m.dtype == np.float32 for m in opt.m + opt.v)

    def test_trained_model_scores_as_its_checkpoint(self, tmp_path):
        # what is trained is what is saved: detect on the in-memory model and
        # on the reloaded checkpoint gives the same bits
        images, freqs = toy_batch(n=6)
        params, _ = train((images, freqs), _fresh("total", epochs=2, batch_size=3))
        save_checkpoint(params, tmp_path / "model.ckpt")
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        rng = np.random.default_rng(3)
        for _ in range(3):
            patch = rng.uniform(0, 1, (16, 16))
            assert np.array_equal(detect(params, patch).score_map,
                                  detect(loaded, patch).score_map)
