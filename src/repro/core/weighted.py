"""Weighted Fair Share — the natural generalisation of Section 2.2.

The paper's Fair Share discipline protects connections by splitting
each Poisson stream into rate-ordered substreams served at preemptive
priority (Table 1).  Real networks often want *weighted* protection —
a backbone trunk deserves a larger guaranteed slice than a dial-up
host.  This module generalises the construction to positive weights
``phi_i`` (equal weights recover the paper's discipline exactly):

* order connections by the *normalised* rate ``v_i = r_i / phi_i``;
* class ``k`` (``v_(k)`` the k-th smallest normalised rate) carries,
  from every connection ``j`` with ``v_j >= v_(k)``, a substream of
  rate ``phi_j (v_(k) - v_(k-1))``;
* classes are served at preemptive-resume priority, so classes
  ``1..k`` jointly form an M/M/1 at cumulative load
  ``sigma_k = (1/mu) sum_m min(r_m, phi_m v_(k))``, and the class
  occupancy ``L_k = g(sigma_k) - g(sigma_{k-1})`` is split among the
  participants in proportion to their weights.

Sorted by ``v``, the load is a prefix sum,
``sigma_k = (sum_{m<=k} r_(m) + v_(k) * sum_{m>k} phi_(m)) / mu``, so
:class:`WeightedFairShare` runs on the sorted Fair Share kernel of
:mod:`repro.core.fairshare` (in C whenever it has built), and equal
weights give bit for bit the unweighted queues.  The class-by-class
loop is :func:`weighted_fair_share_queues_recursive`, the plain law the
kernel is checked against.

The induced queue law keeps the structural properties Theorems 4 and 5
rely on, in weighted form:

* **triangularity** — ``Q_i`` depends only on rates with
  ``v_m <= v_i``;
* **weighted robustness** — ``Q_i <= r_i / (mu - (Phi / phi_i) r_i)``
  where ``Phi = sum_m phi_m`` (each connection is guaranteed the
  service of a dedicated ``mu phi_i / Phi`` slice);
* **conservation** — ``sum_i Q_i = g(rho_total)``.

Note the discipline is deliberately *not* symmetric in the paper's
sense: permuting rates while holding weights fixed treats connections
differently — that asymmetry is the feature.  The companion allocator
:func:`weighted_max_min_allocation` water-fills normalised rates, so a
TSI individual feedback scheme over weighted gateways converges to the
weighted-fair point.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ..errors import RateVectorError, TopologyError
from .fairshare import _fs_queues_batch
from .math_utils import as_rate_vector, g
from .service import ServiceDiscipline, _check_mu
from .topology import Network

__all__ = ["WeightedFairShare", "weighted_fair_share_queues_recursive",
           "weighted_max_min_allocation", "weighted_reservation_floor"]


def _check_weights(weights: Sequence[float], n: int = None) -> np.ndarray:
    phi = np.asarray(weights, dtype=float)
    if phi.ndim != 1:
        raise RateVectorError(f"weights must be 1-D, got {phi.shape}")
    if n is not None and phi.shape[0] != n:
        raise RateVectorError(
            f"need {n} weights, got {phi.shape[0]}")
    if not np.all(np.isfinite(phi)) or np.any(phi <= 0):
        raise RateVectorError("weights must be finite and positive")
    return phi


class WeightedFairShare(ServiceDiscipline):
    """Fair Share with per-connection weights ``phi`` (see module doc).

    The weight vector is indexed like the local rate vector handed to
    :meth:`queue_lengths`.  The law runs on the sorted Fair Share
    kernel, so ``WeightedFairShare(np.ones(n))`` gives bit for bit the
    queues of :class:`~repro.core.fairshare.FairShare`.
    """

    name = "weighted-fair-share"

    def __init__(self, weights: Sequence[float]):
        self._phi = _check_weights(weights)

    @property
    def weights(self) -> np.ndarray:
        return self._phi.copy()

    def queue_lengths(self, rates, mu):
        """A one-row call of :meth:`queue_lengths_batch`."""
        r = as_rate_vector(rates, n=self._phi.shape[0])
        return self.queue_lengths_batch(r[None, :], mu)[0]

    def queue_lengths_batch(self, rates, mu):
        """The weighted law over an ``(M, n)`` batch of rate rows.

        The sorted Fair Share kernel with this discipline's weights:
        in the C tier whenever it has built, else the numpy sorted
        pipeline, with the same bits and the same domain guard (a NaN,
        negative or infinite rate takes the numpy pipeline).
        """
        return _fs_queues_batch(rates, mu, self._phi)


def weighted_fair_share_queues_recursive(rates: Sequence[float],
                                         weights: Sequence[float],
                                         mu: float) -> np.ndarray:
    """The weighted law class by class, for cross-validation.

    For each normalised rate ``v_(k)`` in increasing order it sums the
    class load ``sigma_k = (1/mu) sum_m min(r_m, phi_m v_(k))`` inline,
    takes the occupancy increment ``g(sigma_k) - g(sigma_{k-1})`` and
    adds it to every connection with ``v_j >= v_(k)`` in proportion to
    ``phi_j``.  Ties are exact: a tolerance would merge classes whose
    normalised rates differ by less than it and break time-scale
    invariance at small rates.  Mathematically identical to
    :meth:`WeightedFairShare.queue_lengths` but sharing none of its
    code, so it is the plain law the ``batch-equivalence`` oracle and
    the tests check the kernel against.
    """
    phi = _check_weights(weights)
    r = as_rate_vector(rates, n=phi.shape[0])
    _check_mu(mu)
    v = r / phi
    q = np.zeros(r.shape[0], dtype=float)
    g_prev = 0.0
    for i in np.argsort(v, kind="stable"):
        sigma = float(np.sum(np.minimum(r, phi * v[i]))) / mu
        g_now = g(sigma)
        if math.isinf(g_now):
            # Overload: this class and every later one has no steady
            # state.
            q[v >= v[i]] = math.inf
            break
        # Everyone at or above this level, ties included, accrues a
        # share of the class; a tie's later ranks add a zero level.
        participants = v >= v[i]
        share = (g_now - g_prev) / float(np.sum(phi[participants]))
        q[participants] += share * phi[participants]
        g_prev = g_now
    q[r == 0.0] = 0.0
    return q


def weighted_max_min_allocation(network: Network,
                                capacities: Mapping[str, float],
                                weights: Sequence[float]) -> np.ndarray:
    """Weighted max-min fair rates under gateway capacities.

    Water-fill *normalised* rates: repeatedly saturate the gateway with
    the smallest ``capacity / active-weight`` ratio; its unfrozen
    connections get ``r_i = phi_i * (capacity / active-weight)``.
    Equal weights reduce to
    :func:`repro.core.fairness.max_min_allocation`.
    """
    phi = _check_weights(weights, n=network.num_connections)
    missing = set(network.gateway_names) - set(capacities)
    if missing:
        raise TopologyError(
            f"capacities missing for gateways: {sorted(missing)!r}")
    residual = {}
    for gname in network.gateway_names:
        cap = float(capacities[gname])
        if not (math.isfinite(cap) and cap > 0):
            raise RateVectorError(
                f"capacity of {gname!r} must be finite and positive")
        residual[gname] = cap
    active_weight = {
        g: float(sum(phi[i] for i in network.connections_at(g)))
        for g in network.gateway_names}

    n = network.num_connections
    rates = np.zeros(n, dtype=float)
    assigned = np.zeros(n, dtype=bool)
    while not np.all(assigned):
        live = [g for g in network.gateway_names if active_weight[g] > 0]
        if not live:
            raise TopologyError("unassigned connections without any "
                                "gateway — inconsistent topology")
        bottleneck = min(live,
                         key=lambda g: residual[g] / active_weight[g])
        level = residual[bottleneck] / active_weight[bottleneck]
        members = [i for i in network.connections_at(bottleneck)
                   if not assigned[i]]
        for i in members:
            rates[i] = level * phi[i]
            assigned[i] = True
            for gname in network.gamma(i):
                residual[gname] = max(0.0, residual[gname] - rates[i])
                active_weight[gname] -= phi[i]
    return rates


def weighted_reservation_floor(network: Network, rho_ss: float,
                               weights: Sequence[float]) -> np.ndarray:
    """Reservation floor with weighted slices ``mu phi_i / Phi^a``.

    The weighted analogue of Theorem 5's guarantee: connection ``i``
    alone on its reserved slices settles at
    ``min_a rho_ss * mu^a * phi_i / Phi^a`` where ``Phi^a`` is the
    total weight at gateway ``a``.
    """
    phi = _check_weights(weights, n=network.num_connections)
    if not (0.0 < rho_ss < 1.0):
        raise RateVectorError(
            f"steady utilisation must lie in (0, 1), got {rho_ss!r}")
    floor = np.zeros(network.num_connections, dtype=float)
    for i in range(network.num_connections):
        floor[i] = min(
            rho_ss * network.mu(g) * phi[i]
            / sum(phi[j] for j in network.connections_at(g))
            for g in network.gamma(i))
    return floor
