"""A fluid Jacobson-style (TCP Tahoe) baseline.

Jacobson's 4.3bsd algorithm uses packet drops as implicit aggregate
feedback: slow start doubles the window each round trip until loss,
then congestion avoidance adds one packet per round trip, halving the
slow-start threshold and restarting from one on every loss.  Zhang
[Zha89] and Hashem [Has89] observed pronounced synchronized oscillation
in this scheme — the behaviour the paper cites as evidence of stability
trouble in aggregate implicit feedback.

We model the round-trip-synchronous fluid version at a single drop-tail
bottleneck: a loss epoch occurs whenever the total window exceeds the
pipe size (bandwidth-delay product plus buffer), and *all* connections
cut simultaneously (loss synchronisation).  The sawtooth period and the
window trajectories feed the F11 experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.math_utils import as_rate_vector, numpy_sum
from ..errors import RateVectorError

__all__ = ["TahoeResult", "run_tahoe"]


@dataclass
class TahoeResult:
    """Window trajectories and loss epochs of the fluid Tahoe model."""

    windows: np.ndarray          #: (steps + 1, N)
    losses: np.ndarray           #: (steps,) 1.0 at synchronized loss epochs

    @property
    def loss_epochs(self) -> np.ndarray:
        """Indices of the loss rounds."""
        return np.nonzero(self.losses > 0.5)[0]

    @property
    def sawtooth_periods(self) -> np.ndarray:
        """Gaps between consecutive loss epochs (rounds)."""
        epochs = self.loss_epochs
        return np.diff(epochs) if epochs.size >= 2 else np.array([])

    def mean_windows(self, tail: int) -> np.ndarray:
        return self.windows[-tail:].mean(axis=0)


def run_tahoe(initial_windows: Sequence[float], pipe: float,
              steps: int = 400, reno: bool = False) -> TahoeResult:
    """Round-trip-synchronous fluid Tahoe/Reno at one bottleneck.

    Args:
        initial_windows: starting windows (positive).
        pipe: capacity in packets (bandwidth-delay product + buffer);
            a round with ``sum w > pipe`` is a synchronized loss round.
        steps: number of round trips to simulate.
        reno: halve on loss instead of Tahoe's reset-to-one.
    """
    w = as_rate_vector(initial_windows)
    if np.any(w <= 0):
        raise RateVectorError("initial windows must be positive")
    pipe = float(pipe)
    if not (math.isfinite(pipe) and pipe > 0):
        raise RateVectorError(
            f"pipe must be finite and positive, got {pipe!r}")
    # Python floats: at two to a dozen connections a numpy call costs
    # more than its arithmetic.  ``max``/``min`` agree with
    # ``np.maximum``/``np.minimum`` on the finite windows the checks
    # above admit, and ``numpy_sum`` adds as ``np.sum`` does, so the
    # windows carry numpy's bits.
    windows = w.tolist()
    ssthresh = [pipe / 2.0] * len(windows)
    history = [windows]
    losses = []
    for _ in range(steps):
        if numpy_sum(windows) > pipe:
            ssthresh = [max(x / 2.0, 1.0) for x in windows]
            windows = ([x / 2.0 for x in windows] if reno
                       else [1.0] * len(windows))
            losses.append(1.0)
        else:
            windows = [min(2.0 * x, s) if x < s else x + 1.0
                       for x, s in zip(windows, ssthresh)]
            losses.append(0.0)
        history.append(windows)
    return TahoeResult(windows=np.asarray(history, dtype=float),
                       losses=np.asarray(losses, dtype=float))
