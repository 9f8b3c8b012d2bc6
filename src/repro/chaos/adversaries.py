"""The adversary zoo: misbehaving rate-adjustment rules.

Theorem 5's robustness guarantee is a statement about *neighbours that
misbehave*: whatever rules the other sources run, an honest TSI source
behind a Fair Share gateway keeps its reservation floor
``min_a rho_ss * mu^a / N^a``.  These rules are the misbehaviour — each
is a legal :class:`~repro.core.ratecontrol.RateAdjustment` (so it
composes with honest rules per connection, scalar and batch alike)
that deliberately violates the paper's design contract by ignoring or
abusing the congestion signal:

* :class:`BlasterRule` — feedback-ignoring ramp: always add
  ``increment`` until the line-rate ``cap``, whatever the signal says;
* :class:`PinnedRateRule` — jumps to a fixed rate and holds it,
  deaf to congestion;
* :class:`SawtoothRule` — a signal-ignoring AIMD-style relay (per the
  Andrews–Slivkins oscillation regime): additive climb to ``high``,
  instant crash to ``low``, forever.

:func:`is_adversary` / :func:`honest_indices` let the robustness-floor
monitor (and oracle #14) separate the honest connections whose floors
Theorem 5 actually guarantees from the misbehaving ones it does not.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.ratecontrol import RateAdjustment
from ..errors import ChaosError

__all__ = ["AdversaryRule", "BlasterRule", "PinnedRateRule",
           "SawtoothRule", "is_adversary", "honest_indices"]


def _positive(value: float, what: str) -> float:
    v = float(value)
    if not (math.isfinite(v) and v > 0):
        raise ChaosError(f"{what} must be finite and positive, "
                         f"got {value!r}")
    return v


class AdversaryRule(RateAdjustment):
    """Base class marking a rule as deliberately misbehaving.

    Subclasses ignore the congestion signal (``df/db = 0``), which is
    exactly what the paper's design space forbids — and what Theorem 5
    must survive.
    """

    name = "adversary"
    reads_delay = False


class BlasterRule(AdversaryRule):
    """Feedback-ignoring blaster: ``f = increment`` until ``cap``.

    Ramps unconditionally, then pins at the cap (its line rate), so
    trajectories stay classifiable instead of formally diverging.
    """

    name = "blaster"

    def __init__(self, increment: float = 0.05, cap: float = 10.0):
        self.increment = _positive(increment, "blaster increment")
        self.cap = _positive(cap, "blaster cap")
        self.declared_target = None

    def delta(self, rate, signal, delay):
        return min(self.increment, self.cap - rate) if rate < self.cap \
            else self.cap - rate

    def delta_batch(self, rates, signals, delays):
        r = np.asarray(rates, dtype=float)
        return np.minimum(self.increment, self.cap - r)

    def __repr__(self):
        return f"BlasterRule(increment={self.increment}, cap={self.cap})"


class PinnedRateRule(AdversaryRule):
    """Fixed-rate pinner: ``f = pinned - r`` (jump and hold)."""

    name = "pinned"

    def __init__(self, rate: float = 1.0):
        self.rate = _positive(rate, "pinned rate")
        self.declared_target = None

    def delta(self, rate, signal, delay):
        return self.rate - rate

    def delta_batch(self, rates, signals, delays):
        r = np.asarray(rates, dtype=float)
        return self.rate - r

    def __repr__(self):
        return f"PinnedRateRule(rate={self.rate})"


class SawtoothRule(AdversaryRule):
    """Signal-ignoring AIMD relay: climb to ``high``, crash to ``low``.

    ``f = increase`` while ``r < high`` and ``f = low - r`` at or above
    it — the perpetual-sawtooth regime of Andrews–Slivkins, with the
    feedback loop cut entirely.  Never admits ``f = 0``, so the
    long-run behaviour is a limit cycle.
    """

    name = "sawtooth"

    def __init__(self, low: float = 0.1, high: float = 2.0,
                 increase: float = 0.1):
        self.low = _positive(low, "sawtooth low rate")
        self.high = _positive(high, "sawtooth high rate")
        if not self.low < self.high:
            raise ChaosError(
                f"sawtooth needs low < high, got low={low!r}, "
                f"high={high!r}")
        self.increase = _positive(increase, "sawtooth increase")

    def delta(self, rate, signal, delay):
        if rate < self.high:
            return self.increase
        return self.low - rate

    def delta_batch(self, rates, signals, delays):
        r = np.asarray(rates, dtype=float)
        return np.where(r < self.high, self.increase, self.low - r)

    def __repr__(self):
        return (f"SawtoothRule(low={self.low}, high={self.high}, "
                f"increase={self.increase})")


def is_adversary(rule: RateAdjustment) -> bool:
    """True when ``rule`` is a member of the adversary zoo."""
    return isinstance(rule, AdversaryRule)


def honest_indices(rules: Sequence[RateAdjustment]) -> np.ndarray:
    """Indices of the connections running honest (non-adversary) rules."""
    return np.asarray([i for i, rule in enumerate(rules)
                       if not is_adversary(rule)], dtype=np.intp)
