"""Steady states of feedback flow control (Sections 3.1-3.2).

For a TSI rate-adjustment rule with target signal ``b_ss``:

* **aggregate feedback** — the steady states form a manifold: every
  gateway must sit at or below the steady utilisation
  ``rho_ss = g^{-1}(B^{-1}(b_ss))`` and every connection must have a
  gateway on its path exactly at ``rho_ss``
  (:func:`is_aggregate_steady_state`).  Exactly one point of that
  manifold is fair (Theorem 2), constructed by water-filling
  (:func:`fair_steady_state`).
* **individual feedback** — the steady state is unique, fair, and
  independent of the service discipline (Theorem 3 + Corollary); it is
  the same water-filling point.

:func:`predicted_steady_state` packages the prediction for a
:class:`~repro.core.dynamics.FlowControlSystem`, and :func:`refine` uses
a damped residual solve to polish an approximate fixed point.

Parameter scans (F6/F7-style: one fixed-point solve per grid point)
should go through :class:`FixedPointCache`: it memoises solves keyed by
a hashed system configuration (:func:`system_key`) and warm-starts each
new solve from the previous grid point's fixed point (*continuation*),
which cuts the damped-iteration counts drastically when neighbouring
grid points have neighbouring fixed points.  :func:`continuation_scan`
wraps the common loop.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ConvergenceError, NotTimeScaleInvariantError
from .dynamics import FlowControlSystem
from .fairness import max_min_allocation
from .math_utils import as_rate_vector, sup_norm
from .ratecontrol import tsi_target
from .signals import FeedbackStyle, SignalFunction
from .topology import Network

__all__ = [
    "steady_utilisation",
    "fair_steady_state",
    "predicted_steady_state",
    "is_aggregate_steady_state",
    "single_connection_rate",
    "refine",
    "system_key",
    "RefineResult",
    "FixedPointCache",
    "continuation_scan",
]


def steady_utilisation(signal_fn: SignalFunction, b_ss: float) -> float:
    """``rho_ss``: bottleneck utilisation implied by the target signal."""
    return signal_fn.steady_state_utilisation(b_ss)


def fair_steady_state(network: Network, rho_ss: float) -> np.ndarray:
    """Theorem 2's unique fair steady state.

    Max-min fair allocation with per-gateway capacities
    ``rho_ss * mu^a``.  This is also the unique steady state of every
    TSI *individual* feedback scheme on the same network (Corollary to
    Theorem 3), whatever the service discipline.
    """
    if not (0.0 < rho_ss < 1.0):
        raise ConvergenceError(
            f"steady utilisation must lie in (0, 1), got {rho_ss!r}")
    capacities = {g: rho_ss * network.mu(g) for g in network.gateway_names}
    return max_min_allocation(network, capacities)


def predicted_steady_state(system: FlowControlSystem) -> np.ndarray:
    """The model's closed-form steady-state prediction for ``system``.

    Requires a homogeneous TSI rule.  For individual feedback this is
    *the* steady state; for aggregate feedback it is the unique fair
    point of the steady-state manifold.
    """
    if not system.homogeneous:
        raise NotTimeScaleInvariantError(
            "closed-form prediction requires a homogeneous rule; "
            "heterogeneous systems are the subject of the robustness "
            "experiments, not of this helper")
    b_ss = tsi_target(system.rules[0])
    rho_ss = steady_utilisation(system.signal_fn, b_ss)
    return fair_steady_state(system.network, rho_ss)


def is_aggregate_steady_state(network: Network, rho_ss: float,
                              rates: Sequence[float],
                              tol: float = 1e-6) -> bool:
    """Membership test for the aggregate-feedback steady-state manifold.

    ``r`` is a steady state of a TSI aggregate scheme with steady
    utilisation ``rho_ss`` iff every gateway's utilisation is at most
    ``rho_ss`` and every connection with positive rate sees ``rho_ss``
    on at least one of its gateways.  (A zero-rate connection can also
    be steady when pinned by the ``max(0, .)`` truncation; we accept it
    only when it, too, crosses a saturated gateway.)
    """
    r = as_rate_vector(rates, n=network.num_connections)
    for gname in network.gateway_names:
        if network.utilisation(gname, r) > rho_ss + tol:
            return False
    for i in range(network.num_connections):
        peak = max(network.utilisation(g, r) for g in network.gamma(i))
        if peak < rho_ss - tol:
            return False
    return True


def single_connection_rate(mu: float, rho_ss: float) -> float:
    """Steady rate of a connection alone at a gateway: ``mu * rho_ss``.

    Used in Theorem 5's robustness floor with ``mu -> mu / N``.
    """
    return mu * rho_ss


def _damped_solve(system: FlowControlSystem, r: np.ndarray,
                  max_steps: int, tol: float, damping: float):
    """The damped-iteration core of :func:`refine`; also counts the
    map applications so the warm-start cache can report savings."""
    for k in range(max_steps):
        nxt = system.step(r)
        scale = max(1.0, float(np.max(nxt)))
        if sup_norm(nxt, r) <= tol * scale:
            return nxt, k + 1
        r = (1.0 - damping) * r + damping * nxt
    raise ConvergenceError(
        f"refinement did not reach tol={tol} in {max_steps} steps")


def refine(system: FlowControlSystem, approx: Sequence[float],
           max_steps: int = 2000, tol: float = 1e-12,
           damping: float = 1.0) -> np.ndarray:
    """Polish an approximate fixed point by damped iteration.

    Applies ``r <- (1 - damping) r + damping F(r)`` until the residual's
    sup norm falls below ``tol`` (relative to the rate scale).  Raises
    :class:`~repro.errors.ConvergenceError` on failure.  Plain damped
    iteration respects the nonnegativity truncation, which generic
    root-finders do not.
    """
    r = as_rate_vector(approx, n=system.network.num_connections)
    rates, _ = _damped_solve(system, r, max_steps, tol, damping)
    return rates


def system_key(system: FlowControlSystem, extra=()) -> str:
    """Stable digest of a system's *configuration* (not its state).

    Two :class:`~repro.core.dynamics.FlowControlSystem` instances built
    from equal topologies, disciplines, signal functions, rules, styles,
    and weights get equal keys — the memoisation key of
    :class:`FixedPointCache`.  ``extra`` folds additional hashables
    (e.g. solver tolerances) into the digest.
    """
    network = system.network
    parts = [
        ";".join(f"{g}:{network.mu(g)!r}:{network.gateway(g).latency!r}"
                 for g in network.gateway_names),
        ";".join(",".join(network.gamma(i))
                 for i in range(network.num_connections)),
        repr(system.discipline),
        repr(system.signal_fn),
        "|".join(repr(rule) for rule in system.rules),
        system.style.value,
        repr(None if system.scheme.weights is None
             else system.scheme.weights.tolist()),
        repr(tuple(extra)),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass
class RefineResult:
    """One :class:`FixedPointCache` solve: the fixed point, what it
    cost, and whether it was served from the memo."""

    rates: np.ndarray    #: the refined fixed point
    iterations: int      #: map applications spent (0 on a cache hit)
    cached: bool = False  #: True on a cache hit, no iteration performed


class FixedPointCache:
    """Warm-start cache for fixed-point solves across a parameter scan.

    Two mechanisms, both aimed at F6/F7-style scans that solve one
    fixed point per grid point:

    * **memoisation** — solves are keyed by :func:`system_key`, so
      re-solving an identical configuration (repeated grid points,
      re-runs inside one process) returns the stored fixed point with
      zero iterations;
    * **continuation** — a fresh solve warm-starts from the previous
      solve's fixed point whenever the dimensions match.  Neighbouring
      grid points have neighbouring fixed points, so the damped
      iteration starts close and converges in a fraction of the
      cold-start count.  Continuation deliberately takes precedence
      over ``approx`` (that is the point of the cache); ``approx`` is
      the cold-start guess for the first solve of each dimension.

    The refined fixed point is independent of the starting guess (the
    solves share one ``tol``), so warm starts change iteration counts,
    not answers — ``BENCH.json``'s ``warm_start`` case records the
    saving.
    """

    def __init__(self):
        self._store: Dict[str, np.ndarray] = {}
        self._last: Optional[np.ndarray] = None
        self.hits = 0
        self.misses = 0
        self.iterations = 0

    def __len__(self) -> int:
        return len(self._store)

    def solve(self, system: FlowControlSystem,
              approx: Optional[Sequence[float]] = None,
              max_steps: int = 2000, tol: float = 1e-12,
              damping: float = 1.0) -> RefineResult:
        """Memoised, continuation-warm-started :func:`refine`.

        Raises :class:`~repro.errors.ConvergenceError` when the damped
        iteration fails, or when the very first solve has neither an
        ``approx`` nor a previous solution to start from.
        """
        key = system_key(system, extra=(max_steps, tol, damping))
        stored = self._store.get(key)
        if stored is not None:
            self.hits += 1
            self._last = stored
            return RefineResult(rates=stored.copy(), iterations=0,
                                cached=True)
        self.misses += 1
        n = system.network.num_connections
        if self._last is not None and self._last.shape == (n,):
            r = self._last.copy()
        elif approx is not None:
            r = as_rate_vector(approx, n=n)
        else:
            raise ConvergenceError(
                "FixedPointCache.solve has no starting point: pass "
                "approx for the first solve of each dimension")
        rates, iterations = _damped_solve(system, r, max_steps, tol,
                                          damping)
        self.iterations += iterations
        self._store[key] = rates.copy()
        self._last = rates.copy()
        return RefineResult(rates=rates, iterations=iterations,
                            cached=False)


def continuation_scan(systems: Iterable[FlowControlSystem],
                      approx: Sequence[float],
                      max_steps: int = 2000, tol: float = 1e-12,
                      damping: float = 1.0,
                      cache: Optional[FixedPointCache] = None
                      ) -> List[RefineResult]:
    """Solve a scan of systems, each warm-started from its predecessor.

    ``approx`` seeds the first solve; every later grid point continues
    from the previous fixed point (or the memo, for repeated
    configurations).  Pass an existing ``cache`` to chain scans.
    """
    cache = cache if cache is not None else FixedPointCache()
    return [cache.solve(system, approx=approx, max_steps=max_steps,
                        tol=tol, damping=damping) for system in systems]
