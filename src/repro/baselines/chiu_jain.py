"""Chiu–Jain additive-increase multiplicative-decrease (AIMD) baseline.

[Chi89] analyses linear controls under *binary* aggregate feedback at a
single bottleneck: every source learns only whether the total load
exceeded a goal.  AIMD (``r += a`` on 0, ``r *= b`` on 1) converges to a
limit cycle around the efficiency line while Jain's fairness index rises
monotonically toward 1 — the classic phase-plane result.

The paper contrasts this with its own steady-state framework: binary
feedback never admits ``f = 0``, so the asymptotics are oscillation, not
a fixed point.  This module reproduces the limit-cycle behaviour and the
fairness convergence so the F11 experiment can quote it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.fairness import jain_index
from ..core.math_utils import as_rate_vector, numpy_sum
from ..errors import RateVectorError

__all__ = ["AimdResult", "run_chiu_jain"]


@dataclass
class AimdResult:
    """Trajectory of synchronous binary-feedback AIMD."""

    rates: np.ndarray            #: (steps + 1, N)
    feedback: np.ndarray         #: (steps,) the shared binary signal

    @property
    def fairness_trajectory(self) -> np.ndarray:
        """Jain index at every step — non-decreasing under AIMD."""
        return jain_index(self.rates)

    def mean_total(self, tail: int) -> float:
        """Average total load over the last ``tail`` steps."""
        return float(self.rates[-tail:].sum(axis=1).mean())

    def amplitude(self, tail: int) -> float:
        """Peak-to-trough total-load swing over the last ``tail`` steps."""
        totals = self.rates[-tail:].sum(axis=1)
        return float(totals.max() - totals.min())


def run_chiu_jain(initial_rates: Sequence[float], goal: float,
                  steps: int = 500, additive: float = 0.01,
                  multiplicative: float = 0.85) -> AimdResult:
    """Iterate AIMD under binary feedback ``y = [sum r > goal]``.

    Args:
        initial_rates: starting rates (positive).
        goal: the bottleneck's target total load (the "knee").
        steps: synchronous iterations.
        additive: the additive increase ``a > 0``.
        multiplicative: the decrease factor ``0 < b < 1``.
    """
    r = as_rate_vector(initial_rates)
    # Python floats below, so a numpy scalar must not set the precision.
    goal, additive = float(goal), float(additive)
    multiplicative = float(multiplicative)
    if not (math.isfinite(goal) and goal > 0):
        raise RateVectorError(
            f"goal must be finite and positive, got {goal!r}")
    if not (math.isfinite(additive) and additive > 0):
        raise RateVectorError(
            f"additive step must be finite and positive, got {additive!r}")
    if not 0.0 < multiplicative < 1.0:
        raise RateVectorError(
            f"decrease factor must lie in (0, 1), got {multiplicative!r}")
    # Python floats: at a handful of sources a numpy call costs more
    # than its arithmetic; ``numpy_sum`` keeps ``np.sum``'s bits.
    rates = r.tolist()
    history = [rates]
    feedback = []
    for _ in range(steps):
        overloaded = numpy_sum(rates) > goal
        if overloaded:
            rates = [x * multiplicative for x in rates]
        else:
            rates = [x + additive for x in rates]
        history.append(rates)
        feedback.append(1.0 if overloaded else 0.0)
    return AimdResult(rates=np.asarray(history, dtype=float),
                      feedback=np.asarray(feedback, dtype=float))
