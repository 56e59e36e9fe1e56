"""Adam with decoupled weight decay, plus a validation-plateau lr policy.

Decay is applied directly to the parameter value (never folded into the
gradient) and skipped entirely for parameters flagged ``decay_exempt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter
from .errors import ContractError


# Adam's moment decay rates and the floor added to its denominator
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamW:
    def __init__(self, params: list[Parameter], lr: float = 1e-3, weight_decay: float = 0.01):
        if not (lr >= 0.0 and weight_decay >= 0.0):  # NaN fails both
            raise ContractError("lr and weight_decay must be >= 0")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0  # steps taken
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One bias-corrected update from the currently stored gradients."""
        self.t += 1
        t = self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if m.shape != p.data.shape:
                raise ContractError(
                    f"optimizer state shape {m.shape} does not match "
                    f"parameter {p.name!r} shape {p.data.shape}"
                )
            g = p.grad
            # in place, in the order of the textbook form, so the same bits:
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
            # p -= lr (m / c1) / (sqrt(v / c2) + eps), then p -= lr wd p
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            g2 = g * g
            g2 *= 1.0 - BETA2
            v += g2
            update = m / (1.0 - BETA1**t)
            update *= self.lr
            denom = np.divide(v, 1.0 - BETA2**t, out=g2)
            np.sqrt(denom, out=denom)
            denom += EPS
            update /= denom
            p.data -= update
            if self.weight_decay and not p.decay_exempt:
                p.data -= np.multiply(p.data, self.lr * self.weight_decay, out=update)


@dataclass
class PlateauHalver:
    """Halve the learning rate when validation loss stops improving.

    The loss must improve by more than ``min_delta`` within ``patience``
    consecutive checks, otherwise the rate is halved and the window resets.
    """

    patience: int = 2
    min_delta: float = 1e-4
    best: float = field(default=float("inf"), init=False)
    stale_checks: int = field(default=0, init=False)

    def update(self, optimizer: AdamW, val_loss: float) -> bool:
        """Record one validation check; returns True if the lr was halved."""
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.stale_checks = 0
            return False
        self.stale_checks += 1
        if self.stale_checks >= self.patience:
            optimizer.lr *= 0.5
            self.stale_checks = 0
            return True
        return False
