"""Fairness definitions and the max-min water-filling allocator.

The paper's fairness notion (Section 2.4.2), specialised to sources that
always consume whatever flow control allows: a steady state is **fair**
when, at each bottleneck gateway ``a`` of each connection ``i``, no
connection through ``a`` sends faster than ``i`` — throughput is split
evenly among the connections for whom the gateway is the bottleneck.

The unique fair steady state of a TSI scheme is constructed by the
water-filling procedure in the proof of Theorem 2, which is exactly
max-min fair allocation with per-gateway capacities ``rho_ss * mu^a``
(:func:`max_min_allocation`).
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Mapping, Sequence

import numpy as np

from ..errors import RateVectorError, TopologyError
from .math_utils import as_rate_vector, validate_rates
from .signals import FeedbackScheme
from .topology import Network

__all__ = [
    "is_fair",
    "unfairness",
    "jain_index",
    "max_min_allocation",
]


def is_fair(scheme: FeedbackScheme, rates: Sequence[float],
            tol: float = 1e-7) -> bool:
    """Paper fairness: no faster sender at any of ``i``'s bottlenecks."""
    return unfairness(scheme, rates) <= tol


def unfairness(scheme: FeedbackScheme, rates: Sequence[float]) -> float:
    """The largest rate excess ``r_j - r_i`` over ``i``'s bottlenecks.

    Zero (up to roundoff) exactly when the allocation is fair in the
    paper's sense; positive values quantify how badly fairness fails.
    """
    net = scheme.network
    r = as_rate_vector(rates, n=net.num_connections)
    bottlenecks = scheme.bottlenecks(r)
    worst = 0.0
    for i in range(net.num_connections):
        for gname in bottlenecks[i]:
            peers = net.connections_at(gname)
            excess = max(float(r[j]) for j in peers) - float(r[i])
            worst = max(worst, excess)
    return worst


def jain_index(rates: Sequence[float]) -> float | np.ndarray:
    """Jain's fairness index ``(sum r)^2 / (N sum r^2)`` in ``(0, 1]``.

    1 means perfectly equal rates; ``1/N`` means one connection holds
    everything.  A convenient scalar summary for the manifold and
    heterogeneity experiments (it is not the paper's fairness
    criterion, which is :func:`is_fair`).

    ``rates`` is one rate vector, which gives a float, or a 2-D batch
    whose rows are scored at once, which gives an array; a vector is
    the batch's one-row call.  Rows are summed C-ordered, which adds
    each row as ``np.sum`` adds it alone, so a row scores the same bits
    in any batch.  An all-zero row scores 1.  The index is
    scale-invariant, so a row whose sum of squares leaves the normal
    float range (it underflows, or the squared total overflows) is
    scored divided by its largest rate.
    """
    r = np.array(rates if isinstance(rates, np.ndarray) else list(rates),
                 dtype=float, order="C")
    one_row = r.ndim == 1
    if one_row:
        r = r[None]
    if r.ndim != 2:
        raise RateVectorError(
            f"rates must be a vector or a 2-D batch, got shape {r.shape}")
    validate_rates(r)
    with np.errstate(over="ignore"):
        totals = r.sum(axis=1)
        squares = (r * r).sum(axis=1)
        far = (totals != 0.0) & ~((squares >= sys.float_info.min)
                                  & (totals * totals < math.inf))
        if far.any():
            scaled = r[far] / r[far].max(axis=1, keepdims=True)
            totals[far] = scaled.sum(axis=1)
            squares[far] = (scaled * scaled).sum(axis=1)
    out = np.ones(r.shape[0])
    busy = totals != 0.0
    out[busy] = totals[busy] * totals[busy] / (r.shape[1] * squares[busy])
    return float(out[0]) if one_row else out


def max_min_allocation(network: Network,
                       capacities: Mapping[str, float]) -> np.ndarray:
    """Max-min fair rates under per-gateway capacity constraints.

    Repeatedly saturate the gateway offering the smallest equal share
    ``capacity / active-connections``, freeze its connections at that
    share, and subtract their rates from every gateway they cross — the
    procedure in the proof of Theorem 2 (with capacities
    ``rho_ss * mu^a`` it yields the fair steady state).

    Args:
        network: the topology.
        capacities: capacity per gateway name; every gateway must appear
            and have a positive finite capacity.

    Returns:
        The allocated rate vector, indexed like the network connections.
    """
    missing = set(network.gateway_names) - set(capacities)
    if missing:
        raise TopologyError(
            f"capacities missing for gateways: {sorted(missing)!r}")
    for gname in network.gateway_names:
        cap = float(capacities[gname])
        if not (math.isfinite(cap) and cap > 0):
            raise RateVectorError(
                f"capacity of {gname!r} must be finite and positive, "
                f"got {capacities[gname]!r}")

    n = network.num_connections
    residual: Dict[str, float] = {g: float(capacities[g])
                                  for g in network.gateway_names}
    active_count: Dict[str, int] = {g: network.n_at(g)
                                    for g in network.gateway_names}
    rates = np.zeros(n, dtype=float)
    assigned = np.zeros(n, dtype=bool)

    while not np.all(assigned):
        live = [g for g in network.gateway_names if active_count[g] > 0]
        if not live:
            raise TopologyError("unassigned connections without any "
                                "gateway — inconsistent topology")
        bottleneck = min(live, key=lambda g: residual[g] / active_count[g])
        share = residual[bottleneck] / active_count[bottleneck]
        members = [i for i in network.connections_at(bottleneck)
                   if not assigned[i]]
        for i in members:
            rates[i] = share
            assigned[i] = True
            for gname in network.gamma(i):
                residual[gname] = max(0.0, residual[gname] - share)
                active_count[gname] -= 1
    return rates
