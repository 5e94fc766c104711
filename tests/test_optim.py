"""Adam optimizer behavior against a scalar reference recurrence."""

import math

import numpy as np
import pytest

from aift import Adam, Tensor
from aift.errors import ConfigurationError

from oracles import adam_scalar_reference


def test_first_step_magnitude():
    # with bias correction the very first update is lr * g / (|g| + EPS)
    p = Tensor([10.0], requires_grad=True)
    p.grad = np.array([4.0])
    opt = Adam([p], lr=1e-3, beta1=0.9, beta2=0.999)
    opt.step()
    assert p.data[0] == pytest.approx(10.0 - 1e-3, rel=1e-6)


def test_matches_scalar_recurrence():
    grads = [0.3, -1.2, 0.7, 0.0, 2.5, -0.4]
    expected = adam_scalar_reference(1.0, grads, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
    p = Tensor([1.0], requires_grad=True)
    opt = Adam([p], lr=0.05, beta1=0.9, beta2=0.999)
    for g, want in zip(grads, expected):
        p.grad = np.array([g])
        opt.step()
        assert p.data[0] == pytest.approx(want, rel=1e-12)


def test_zero_lr_keeps_bits():
    rng = np.random.default_rng(5)
    p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p], lr=0.0)
    p.grad = rng.standard_normal((3, 3))
    opt.step()
    assert np.array_equal(p.data, before)


def test_zero_grad_from_rest_keeps_params():
    # with zero moments a zero gradient produces an exactly zero update
    p = Tensor([2.0], requires_grad=True)
    before = p.data.copy()
    opt = Adam([p], lr=0.1, beta1=0.5, beta2=0.5)
    opt.step()  # no grad assigned at all
    np.testing.assert_array_equal(p.data, before)
    p.grad = np.zeros(1)
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_zero_grad_decays_moments():
    p = Tensor([2.0], requires_grad=True)
    opt = Adam([p], lr=0.1, beta1=0.5, beta2=0.5)
    p.grad = np.array([1.0])
    opt.step()
    m_before = abs(opt.m[0][0])
    assert p.data[0] == pytest.approx(1.9)
    opt.zero_grad()
    opt.step()
    assert abs(opt.m[0][0]) == pytest.approx(0.5 * m_before)
    assert opt.t == 2
    # the decayed first moment still moves the parameter: by lr * (1/3) / sqrt(1/3)
    assert p.data[0] == pytest.approx(1.9 - 0.1 / math.sqrt(3.0))


def test_descends_a_quadratic():
    p = Tensor([5.0], requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        p.grad = 2.0 * p.data
        opt.step()
    assert abs(p.data[0]) < 1e-2


def test_rejects_bad_settings():
    p = Tensor([0.0], requires_grad=True)
    with pytest.raises(ConfigurationError):
        Adam([p], lr=-1.0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            Adam([p], lr=lr)
    with pytest.raises(ConfigurationError):
        Adam([p], beta1=1.0)
    with pytest.raises(ConfigurationError):
        Adam([])


def test_shared_step_counter_across_params():
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([1.0], requires_grad=True)
    opt = Adam({"a": a, "b": b}, lr=0.01)
    a.grad = np.array([1.0])
    b.grad = np.array([1.0])
    opt.step()
    assert opt.t == 1
    assert a.data[0] == pytest.approx(b.data[0])


def test_sign_of_first_step_follows_gradient():
    for g in (3.0, -3.0, 0.25):
        p = Tensor([0.0], requires_grad=True)
        opt = Adam([p], lr=0.01)
        p.grad = np.array([g])
        opt.step()
        assert math.copysign(1.0, -g) == math.copysign(1.0, p.data[0])


def test_step_releases_each_gradient_it_applies():
    # a second step without a new gradient applies an exact zero, bit for
    # bit as zero_grad() then step() does
    rng = np.random.default_rng(9)
    start = rng.standard_normal((2, 3)).astype(np.float32)
    grad = rng.standard_normal((2, 3)).astype(np.float32)
    runs = []
    for clear in (False, True):
        p = Tensor(start.copy(), requires_grad=True)
        opt = Adam([p], lr=0.1, beta1=0.5)
        p.grad = grad.copy()
        opt.step()
        assert p.grad is None
        if clear:
            opt.zero_grad()
        opt.step()
        assert p.grad is None
        runs.append((p.data, opt.m[0], opt.v[0]))
    for released, cleared in zip(*runs):
        assert np.array_equal(released, cleared)
