"""One-dimensional iterated maps (the Section 3.3 route to chaos).

The paper observes that with the signalling function changed so the
aggregate signal at a unit-rate gateway becomes ``rho**2``, a symmetric
initial condition reduces the N-connection update to the scalar map

    ``x <- x + eta N (beta - x**2)``

(``x`` the total sending rate), which moves from a stable fixed point
through period doubling to chaos as ``eta N`` grows — the standard
quadratic-family story of Collet–Eckmann.  This module provides the map,
orbit generation, and the exact reduction from the full
:class:`~repro.core.dynamics.FlowControlSystem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ..errors import RateVectorError

__all__ = ["QuadraticRateMap", "orbit", "orbit_tail",
           "quadratic_orbit_tails", "quadratic_lyapunov_exponents"]


@dataclass(frozen=True)
class QuadraticRateMap:
    """The paper's reduced map ``x <- x + a (beta - x^2)``.

    ``a = eta * N`` aggregates the per-connection gain and the number of
    connections; ``beta`` is the target signal.  With ``truncate=True``
    (the default) the image is clamped at 0, mirroring the rate
    truncation of the full dynamics.

    The family is universal in ``alpha = a sqrt(beta)`` (substituting
    ``x = sqrt(beta) y`` gives ``y <- y + alpha (1 - y^2)``):

    * fixed point ``x* = sqrt(beta)``, multiplier
      ``F'(x*) = 1 - 2 alpha``; linearly stable iff ``alpha < 1``;
    * the period-doubling cascade runs for ``alpha`` just above 1 and
      accumulates into chaos near ``alpha ~ 1.28``;
    * slightly before the chaotic band the orbit starts visiting
      negative values, so under truncation the deepest chaos collapses
      onto superstable boundary cycles through 0 — the *untruncated*
      map is the one exhibiting the clean textbook cascade, which is
      why experiments report both variants.
    """

    a: float
    beta: float
    truncate: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise RateVectorError(f"gain a must be positive, got {self.a!r}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise RateVectorError(
                f"target beta must be positive, got {self.beta!r}")

    def __call__(self, x: float) -> float:
        image = x + self.a * (self.beta - x * x)
        if self.truncate:
            return max(0.0, image)
        return image

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        """Elementwise map image for an array of states."""
        xv = np.asarray(x, dtype=float)
        image = xv + self.a * (self.beta - xv * xv)
        if self.truncate:
            return np.maximum(0.0, image)
        return image

    def derivative(self, x: float) -> float:
        """``F'(x) = 1 - 2 a x``; 0 on the clamped branch when truncating."""
        if self.truncate and x + self.a * (self.beta - x * x) < 0.0:
            return 0.0
        return 1.0 - 2.0 * self.a * x

    def derivative_batch(self, x: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`derivative` for an array of states."""
        xv = np.asarray(x, dtype=float)
        slope = 1.0 - 2.0 * self.a * xv
        if self.truncate:
            image = xv + self.a * (self.beta - xv * xv)
            return np.where(image < 0.0, 0.0, slope)
        return slope

    @property
    def fixed_point(self) -> float:
        return math.sqrt(self.beta)

    @property
    def multiplier(self) -> float:
        """``F'`` at the fixed point: ``1 - 2 a sqrt(beta)``."""
        return 1.0 - 2.0 * self.a * self.fixed_point

    @property
    def is_linearly_stable(self) -> bool:
        return abs(self.multiplier) < 1.0

    @property
    def period_doubling_gain(self) -> float:
        """The ``a`` at which the fixed point loses stability:
        ``a = 1 / sqrt(beta)``."""
        return 1.0 / math.sqrt(self.beta)

    @classmethod
    def from_system(cls, n_connections: int, eta: float, beta: float,
                    truncate: bool = True) -> "QuadraticRateMap":
        """The reduction of the symmetric N-connection aggregate system.

        With ``B(C) = (C/(C+1))**2``, ``f = eta (beta - b)`` and a single
        unit-rate gateway, the total rate ``x = N r`` obeys
        ``x <- x + eta N (beta - x^2)`` while ``x < 1`` (above capacity
        the signal saturates at 1; the stable and oscillatory regimes
        studied here stay below that).
        """
        if n_connections < 1:
            raise RateVectorError("need at least one connection")
        return cls(a=eta * n_connections, beta=beta, truncate=truncate)


def orbit(fn: Callable[[float], float], x0: float, steps: int,
          discard: int = 0) -> np.ndarray:
    """Iterate ``fn`` from ``x0``; return the post-``discard`` orbit.

    The returned array has ``steps - discard + 1`` entries when
    ``discard == 0`` (it includes ``x0``), otherwise ``steps - discard``.
    """
    if steps < 1:
        raise RateVectorError(f"steps must be >= 1, got {steps!r}")
    if not 0 <= discard <= steps:
        raise RateVectorError(
            f"discard must lie in [0, steps], got {discard!r}")
    out = []
    x = float(x0)
    if discard == 0:
        out.append(x)
    for k in range(1, steps + 1):
        x = float(fn(x))
        if not math.isfinite(x):
            raise RateVectorError(
                f"orbit diverged to {x!r} at step {k}")
        if k > discard:
            out.append(x)
    return np.asarray(out)


def orbit_tail(fn: Callable[[float], float], x0: float,
               transient: int = 2000, keep: int = 200) -> np.ndarray:
    """The attractor sample: iterate ``transient`` steps, keep ``keep``."""
    return orbit(fn, x0, steps=transient + keep, discard=transient)


def _validate_gains(gains, beta: float) -> np.ndarray:
    arr = np.asarray(list(gains), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise RateVectorError(
            f"gain grid must be a nonempty 1-D sequence, got {gains!r}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise RateVectorError("every gain must be finite and positive")
    if not (math.isfinite(beta) and beta > 0):
        raise RateVectorError(f"target beta must be positive, got {beta!r}")
    return arr


#: Orbit steps the grid functions hold at once.  The finiteness check,
#: the tail copy and the log-slopes run once per block, so memory grows
#: with the block and ``keep``, never with the transient.
_BLOCK = 256


def _grid_orbit(gains, beta: float, x0: float, truncate: bool,
                tail=None, average=None):
    """Iterate ``x <- x + a (beta - x^2)`` over a whole gain grid once.

    One vectorised update per step (not one Python call per (gain,
    step) pair), read in blocks of :data:`_BLOCK` steps.  ``tail =
    (transient, keep)`` asks for the states at steps ``transient + 1
    .. transient + keep`` (led by ``x0`` when ``transient == 0``);
    ``average = (discard, steps)`` for the mean log-slope at the
    states of steps ``discard .. discard + steps - 1``.  The orbit runs
    as far as the longer of the two needs.  Returns ``(a, tails,
    exponents)`` with ``None`` for an output not asked for.

    Under this map a non-finite state stays non-finite (``inf`` maps to
    ``nan``, ``nan`` and ``-inf`` to themselves, and after ``x0`` no
    clamped state is ``-inf``), so one check per block finds the first
    step where any gain diverged, and the lowest such gain.  Each block's
    log-slopes fold into the running total row by row in step order,
    the order of a per-step ``total += log_slope``.
    """
    from .lyapunov import _SLOPE_FLOOR

    a = _validate_gains(gains, beta)
    end = 0
    if tail is not None:
        transient, keep = tail
        tail_end = transient + keep
        if tail_end < 1:
            raise RateVectorError(f"steps must be >= 1, got {tail_end!r}")
        if not 0 <= transient <= tail_end:
            raise RateVectorError(
                f"discard must lie in [0, steps], got {transient!r}")
        lead = 1 if transient == 0 else 0
        tails = np.empty((a.size, keep + lead), dtype=float)
        tails[:, :lead] = float(x0)
        end = tail_end
    if average is not None:
        discard, steps = average
        if steps < 1:
            raise RateVectorError(f"steps must be >= 1, got {steps!r}")
        if discard < 0:
            raise RateVectorError(f"discard must be >= 0, got {discard!r}")
        total = np.zeros(a.size, dtype=float)
        end = max(end, discard + steps)

    # The update ``x + a * (beta - x * x)`` (then ``max(0, .)``) with
    # array operands and in-place products, the same operations on the
    # same values: IEEE products and sums commute.
    betas = np.full(a.size, beta, dtype=float)
    zeros = np.zeros(a.size, dtype=float)
    x = np.full(a.size, float(x0))
    done = 0                       # the step of ``x``
    while done < end:
        size = min(_BLOCK, end - done)
        rows = [x]
        for _ in range(size):
            image = betas - x * x
            image *= a
            image += x
            x = np.maximum(zeros, image) if truncate else image
            rows.append(x)
        block = np.array(rows)     # the states of steps done .. done+size
        finite = np.isfinite(block[1:])
        if not finite.all():
            j, bad = divmod(int(np.flatnonzero(~finite)[0]), a.size)
            k = done + 1 + j
            if tail is not None and k <= tail_end:
                raise RateVectorError(
                    f"orbit diverged to {block[1 + j, bad]!r} at step {k} "
                    f"(gain a={a[bad]!r})")
            stage = "transient" if k <= discard else "averaging"
            raise RateVectorError(f"orbit diverged during {stage}")
        if tail is not None:
            lo, hi = max(done, transient), min(done + size, tail_end)
            if lo < hi:
                tails[:, lead + lo - transient:lead + hi - transient] = \
                    block[1 + lo - done:1 + hi - done].T
        if average is not None:
            lo, hi = max(done, discard), min(done + size, discard + steps)
            if lo < hi:
                xs = block[lo - done:hi - done]
                slope = 1.0 - 2.0 * a * xs
                if truncate:
                    slope[xs + a * (beta - xs * xs) < 0.0] = 0.0
                logs = np.log(np.maximum(np.abs(slope), _SLOPE_FLOOR))
                logs[0] += total
                total = np.add.accumulate(logs, axis=0)[-1]
        done += size
    return (a, tails if tail is not None else None,
            total / steps if average is not None else None)


def quadratic_orbit_tails(gains, beta: float, x0: float,
                          transient: int = 2000, keep: int = 200,
                          truncate: bool = True) -> np.ndarray:
    """Attractor tails of ``x <- x + a (beta - x^2)`` for a whole gain
    grid at once.

    Iterates the entire grid as one array (:func:`_grid_orbit`).  Row
    ``i`` of the result equals ``orbit_tail(QuadraticRateMap(gains[i],
    beta, truncate), x0, transient, keep)``, including the
    ``transient == 0`` convention of returning ``keep + 1`` samples led
    by ``x0``.
    """
    return _grid_orbit(gains, beta, x0, truncate,
                       tail=(transient, keep))[1]


def quadratic_lyapunov_exponents(gains, beta: float, x0: float,
                                 steps: int = 5000, discard: int = 500,
                                 truncate: bool = True) -> np.ndarray:
    """Finite-time Lyapunov exponents of the quadratic map over a gain
    grid, vectorised across the grid.

    Entry ``i`` equals ``lyapunov_exponent(map_i, map_i.derivative, x0,
    steps, discard)`` for ``map_i = QuadraticRateMap(gains[i], beta,
    truncate)``, up to the last bits: this takes ``np.log`` of the
    slopes where the scalar path takes ``math.log``.
    """
    return _grid_orbit(gains, beta, x0, truncate,
                       average=(discard, steps))[2]
