"""Adam optimizer for the autodiff engine.

Standard update with bias correction:

    m_t = b1 * m_{t-1} + (1 - b1) * g
    v_t = b2 * v_{t-1} + (1 - b2) * g^2
    p  -= lr * (m_t / (1 - b1^t)) / (sqrt(v_t / (1 - b2^t)) + EPS)

A missing gradient counts as an exact zero, so parameters stand still while
the moment estimates decay.  With lr = 0 the parameter bits do not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigurationError

EPS = 1e-8  # keeps the step finite where v_t is zero


@dataclass
class AdamState:
    """Moment estimates and step counter for one parameter group."""

    lr: float
    beta1: float
    beta2: float
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


class Adam:
    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999):
        if isinstance(params, dict):
            params = list(params.values())
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ConfigurationError("Adam needs at least one parameter")
        if not 0.0 <= lr < np.inf:
            raise ConfigurationError(f"learning rate must be finite and >= 0, got {lr}")
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= beta < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {beta}")
        self.state = AdamState(
            lr=lr, beta1=beta1, beta2=beta2,
            m=[np.zeros_like(p.data) for p in self.params],
            v=[np.zeros_like(p.data) for p in self.params],
        )

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        s = self.state
        s.step += 1
        c1 = 1.0 - s.beta1 ** s.step
        c2 = 1.0 - s.beta2 ** s.step
        for p, m, v in zip(self.params, s.m, s.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= s.beta1
            m += (1.0 - s.beta1) * g
            v *= s.beta2
            v += (1.0 - s.beta2) * (g * g)
            update = s.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
            p.data = p.data - update
