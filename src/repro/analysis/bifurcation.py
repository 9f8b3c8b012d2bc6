"""Bifurcation diagrams for map families.

Sweep a parameter, iterate past the transient, and record the attractor
samples — the numeric content of the textbook bifurcation plot.  For
the paper's quadratic rate map this exhibits the stable → period-2 →
period-4 → ... → chaos cascade as ``eta N`` grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from ..errors import RateVectorError
from .classify import OrbitClass, classify_tail
from .lyapunov import lyapunov_exponent
from .maps import _grid_orbit, orbit_tail

__all__ = ["BifurcationPoint", "bifurcation_diagram",
           "quadratic_map_sweep"]


@dataclass
class BifurcationPoint:
    """Attractor summary at one parameter value."""

    parameter: float
    attractor: np.ndarray          #: sampled attractor values
    classification: OrbitClass
    lyapunov: float

    @property
    def n_branches(self) -> int:
        """Distinct attractor values after clustering (inf for chaos)."""
        if self.classification.period is None:
            return len(self.attractor)
        return self.classification.period


def bifurcation_diagram(map_family: Callable[[float], Callable],
                        parameters: Sequence[float], x0: float,
                        transient: int = 2000, keep: int = 256,
                        derivative_family: Callable[[float], Callable] = None,
                        max_period: int = 64,
                        continuation: bool = False
                        ) -> List[BifurcationPoint]:
    """Sweep ``parameters``; classify the attractor at each value.

    ``map_family(p)`` must return the map at parameter ``p``;
    ``derivative_family(p)`` its derivative (required for the Lyapunov
    column; pass ``None`` to skip, yielding ``nan``).

    ``continuation=True`` warm-starts each grid point from the last
    attractor sample of the *previous* point instead of ``x0`` —
    neighbouring parameters have neighbouring attractors, so a much
    smaller ``transient`` suffices to shed the start-up transient.  The
    default (``False``) keeps every point independent and bit-identical
    to earlier releases.  Continuation caveat: crossing a supercritical
    bifurcation, the warm start can land *exactly on* the now-unstable
    branch (e.g. the fixed point past a period-doubling) and stay there
    — the classic continuation failure.  Use it in regimes where the
    attractor deforms continuously, or keep a transient long enough for
    rounding noise to escape the unstable branch.
    """
    if keep < 3 * max_period:
        raise RateVectorError(
            f"keep={keep} too small for max_period={max_period}")
    points = []
    start = x0
    for p in parameters:
        fn = map_family(p)
        tail = orbit_tail(fn, start, transient=transient, keep=keep)
        cls = classify_tail(tail, max_period=max_period)
        if derivative_family is not None:
            lam = lyapunov_exponent(fn, derivative_family(p), start,
                                    steps=transient, discard=transient // 4)
        else:
            lam = float("nan")
        points.append(BifurcationPoint(parameter=float(p), attractor=tail,
                                       classification=cls, lyapunov=lam))
        if continuation:
            start = float(tail[-1])
    return points


def quadratic_map_sweep(gains: Sequence[float], beta: float = 0.25,
                        x0: float = 0.1, transient: int = 2000,
                        keep: int = 256, truncate: bool = True,
                        max_period: int = 64) -> List[BifurcationPoint]:
    """The paper's sweep: ``x <- x + a (beta - x^2)`` over gains ``a``.

    ``a = eta N``; increasing ``N`` at fixed ``eta`` walks the same
    axis, which is how the paper phrases the cascade.  Pass
    ``truncate=False`` to study the untruncated map, whose chaotic band
    survives instead of collapsing onto boundary cycles through 0.

    The whole gain grid is iterated as one array, once: each point's
    attractor is the orbit's steps ``transient + 1 .. transient + keep``
    and its Lyapunov exponent the mean log-slope from step
    ``transient // 4`` over ``transient`` steps, both read from that one
    orbit (see :func:`~repro.analysis.maps.quadratic_orbit_tails` and
    :func:`~repro.analysis.maps.quadratic_lyapunov_exponents`, whose
    outputs they equal bit for bit).  So the sweep costs one vectorised
    update per step rather than one Python call per (gain, step) pair;
    each point's attractor and classification match the generic
    :func:`bifurcation_diagram` driven by
    :class:`~repro.analysis.maps.QuadraticRateMap`, and its Lyapunov
    exponent matches up to the last bits (``np.log`` here,
    ``math.log`` there).
    """
    if keep < 3 * max_period:
        raise RateVectorError(
            f"keep={keep} too small for max_period={max_period}")
    gains, tails, lams = _grid_orbit(gains, beta, x0, truncate,
                                     tail=(transient, keep),
                                     average=(transient // 4, transient))
    points = []
    for i, a in enumerate(gains):
        cls = classify_tail(tails[i], max_period=max_period)
        points.append(BifurcationPoint(parameter=float(a),
                                       attractor=tails[i],
                                       classification=cls,
                                       lyapunov=float(lams[i])))
    return points
