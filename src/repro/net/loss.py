"""Link loss models.

§3.2 assumes links "independently exhibit some natural packet loss due to
congestion and/or channel errors", which the evaluation instantiates as an
independent Bernoulli drop per traversal (§8.1). :class:`BernoulliLoss`
reproduces that. :class:`GilbertElliottLoss` is provided as an extension
for burst-loss studies (congestion losses are bursty in practice); the
ablation benches use it to probe the protocols' sensitivity to the i.i.d.
assumption underlying Theorem 2.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.exceptions import ConfigurationError


class LossModel(ABC):
    """Decides, per traversal, whether a packet is lost."""

    @abstractmethod
    def is_lost(self, rng: random.Random) -> bool:
        """Return True when the current traversal loses the packet."""

    @property
    @abstractmethod
    def average_rate(self) -> float:
        """Long-run loss probability (for analysis cross-checks)."""


class NoLoss(LossModel):
    """A perfect link."""

    def is_lost(self, rng: random.Random) -> bool:
        return False

    @property
    def average_rate(self) -> float:
        return 0.0


class BernoulliLoss(LossModel):
    """Independent loss with fixed probability — the paper's model."""

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"loss rate must be in [0, 1], got {rate}")
        self._rate = rate

    def is_lost(self, rng: random.Random) -> bool:
        return rng.random() < self._rate

    @property
    def average_rate(self) -> float:
        return self._rate

    def __repr__(self) -> str:
        return f"BernoulliLoss({self._rate})"


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert-Elliott) burst-loss model.

    The chain alternates between a *good* state with loss ``good_loss`` and
    a *bad* state with loss ``bad_loss``; ``p_gb``/``p_bg`` are the
    per-traversal transition probabilities good->bad and bad->good.

    The stationary loss rate is
    ``(p_gb * bad_loss + p_bg * good_loss) / (p_gb + p_bg)``.
    """

    def __init__(
        self,
        good_loss: float,
        bad_loss: float,
        p_gb: float,
        p_bg: float,
    ) -> None:
        for name, value in (
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
            ("p_gb", p_gb),
            ("p_bg", p_bg),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if p_gb + p_bg == 0:
            raise ConfigurationError("transition probabilities cannot both be zero")
        self._good_loss = good_loss
        self._bad_loss = bad_loss
        self._p_gb = p_gb
        self._p_bg = p_bg
        self._bad = False

    def is_lost(self, rng: random.Random) -> bool:
        # Transition first, then draw loss from the current state.
        if self._bad:
            if rng.random() < self._p_bg:
                self._bad = False
        else:
            if rng.random() < self._p_gb:
                self._bad = True
        rate = self._bad_loss if self._bad else self._good_loss
        return rng.random() < rate

    @property
    def average_rate(self) -> float:
        pi_bad = self._p_gb / (self._p_gb + self._p_bg)
        return pi_bad * self._bad_loss + (1 - pi_bad) * self._good_loss
