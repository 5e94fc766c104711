"""Training settings: the loss modes and ``TrainConfig``, with its defaults.

The command-line parser reads its training defaults and ``--loss`` choices
from here, so this module imports no engine code: a command that does not
train never loads the model, autodiff or optimizer modules.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

from .errors import ConfigurationError, check_count

LOSS_MODES = ("re", "gan", "total")


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
        for name in ("epochs", "batch_size", "critic_iters", "base_channels"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed, 0)
        for name, value in (("lambda", self.lam), ("lr", self.lr)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{name} must be a number, got {value!r}")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigurationError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.lr < math.inf:
            raise ConfigurationError(f"lr must be finite and > 0, got {self.lr}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigurationError(
                f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        return self
