"""Optimization: AdamW with decoupled weight decay, the cosine
annealing schedule with decaying warm restarts, and the discriminator
restart policy.

Schedule shape: within cycle k at phase phi in [0, 1],
``lr = peak_k * (floor + (1 - floor) * (1 + cos(pi * phi)) / 2)`` with
``peak_k = lr0 * peak_decay**k``. Defaults reproduce a 5% lower peak per
cycle and a decay to half the peak before each reset. AdamW's betas,
epsilon and weight decay are constants, not config keys.

The restart policy watches a rolling window of discriminator accuracy.
When the discriminator is stuck (low accuracy) or has collapsed the
adversarial signal (near-perfect accuracy for the whole window), it
boosts the discriminator learning rate and scales down the generator's
adversarial weight until accuracy returns to a healthy band; a second
trigger within the cooldown additionally requests a hard weight
reinitialization. Its upper accuracy bound, boost multipliers and cooldown
are constants; its switch, window and lower bound are ``policy.*`` keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .config import Settings, setting
from .errors import DomainError, OptimizerError
from .tensor import Tensor

__all__ = [
    "AdamW",
    "CosineRestartSchedule",
    "RestartPolicy",
    "PolicyAction",
]


class AdamW:
    """AdamW over a fixed list of named parameters.

    Update: m and v are the usual Adam moments; after bias correction the
    step is ``theta -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)``,
    so the decay term never passes through the adaptive scaling.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's defaults (arXiv 1412.6980), kept by AdamW
    WEIGHT_DECAY = 1e-4  # decoupled as in AdamW (arXiv 1711.05101); the value is fftsr's own

    def __init__(self, named_params: list[tuple[str, Tensor]]):
        self.names = [n for n, _ in named_params]
        self.params = [p for _, p in named_params]
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr: float):
        """Apply one update at rate ``lr`` from the gradients on the params."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise OptimizerError(f"non-finite gradient for parameter {self.names[i]!r}")
            m = b1 * self.m[i] + (1.0 - b1) * g
            v = b2 * self.v[i] + (1.0 - b2) * (g * g)
            self.m[i] = m
            self.v[i] = v
            m_hat = m / bc1
            v_hat = v / bc2
            update = m_hat / (np.sqrt(v_hat) + self.EPS) + self.WEIGHT_DECAY * p.data
            p.data = (p.data - lr * update).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


@dataclass(frozen=True)
class CosineRestartSchedule(Settings):
    """Deterministic warm-restart schedule; ``lr_at`` is a pure function."""

    base_lr: float = setting("opt.lr_g", required=True)
    cycle_steps: int = setting("sched.cycle_steps")
    peak_decay: float = setting("sched.peak_decay")
    floor_fraction: float = setting("sched.floor_fraction")

    def lr_at(self, step: int) -> float:
        if step < 0:
            raise DomainError(f"schedule step must be >= 0, got {step}")
        cycle, within = divmod(step, self.cycle_steps)
        phase = within / self.cycle_steps
        shape = self.floor_fraction + (1.0 - self.floor_fraction) * (1.0 + math.cos(math.pi * phase)) / 2.0
        return self.base_lr * self.peak_decay**cycle * shape


@dataclass(frozen=True)
class PolicyAction:
    kind: str  # none | enter_boost | exit_boost
    reinit_discriminator: bool = False


@dataclass
class RestartPolicy(Settings):
    """Finite state machine over the discriminator accuracy window.

    ``mode`` (one of ``MODES``) alone sets the multipliers;
    a boost ends when the mean accuracy is back inside ``EXIT_BAND``. A
    disabled policy observes nothing and stays normal.
    """

    MODES: ClassVar[tuple[str, str]] = ("normal", "disc-boost")
    EXIT_BAND: ClassVar[tuple[float, float]] = (0.55, 0.8)
    # fftsr's own values, like EXIT_BAND's
    ACC_HIGH: ClassVar[float] = 0.95  # boost when mean accuracy exceeds this
    LR_BOOST: ClassVar[float] = 5.0  # discriminator lr multiplier while boosted
    ADV_SCALE: ClassVar[float] = 0.1  # generator adversarial-weight multiplier while boosted
    COOLDOWN: ClassVar[int] = 1000  # a second trigger within this many steps reinitializes

    enabled: bool = setting("policy.enabled")
    window: int = setting("policy.window")
    acc_low: float = setting("policy.acc_low")

    mode: str = "normal"
    last_trigger_step: int = -(10**9)
    _acc: list[float] = field(default_factory=list)

    @property
    def disc_lr_multiplier(self) -> float:
        return self.LR_BOOST if self.mode == "disc-boost" else 1.0

    @property
    def adv_multiplier(self) -> float:
        return self.ADV_SCALE if self.mode == "disc-boost" else 1.0

    def observe(self, accuracy: float, step: int) -> PolicyAction:
        """Record one step's discriminator accuracy and transition.

        The window keeps rolling across mode changes, so the exit test
        sees genuinely fresh accuracies rather than a reset history.
        """
        if not self.enabled:
            return PolicyAction("none")
        self._acc.append(float(accuracy))
        if len(self._acc) > self.window:
            self._acc.pop(0)
        full = len(self._acc) == self.window
        mean_acc = sum(self._acc) / len(self._acc)

        if self.mode == "normal":
            stuck = full and mean_acc < self.acc_low
            collapsed = full and mean_acc > self.ACC_HIGH
            if stuck or collapsed:
                reinit = step - self.last_trigger_step <= self.COOLDOWN
                self.last_trigger_step = step
                self.mode = "disc-boost"
                return PolicyAction("enter_boost", reinit_discriminator=reinit)
            return PolicyAction("none")

        if self.EXIT_BAND[0] <= mean_acc <= self.EXIT_BAND[1]:
            self.mode = "normal"
            return PolicyAction("exit_boost")
        return PolicyAction("none")
