"""The Fair Share service discipline (paper Section 2.2 and Table 1).

Fair Share (FS), introduced in Shenker's 1989 "Making Greed Work in
Networks" preprint, is a preemptive priority discipline built from
*rate-ordered substreams*.  Label the connections so the rates are in
increasing order, ``r_(1) <= r_(2) <= ... <= r_(N)``, and define N
priority classes (``A`` highest).  Every connection contributes rate
``r_(1)`` to class 1; every connection whose rate exceeds ``r_(1)``
contributes a further ``r_(2) - r_(1)`` to class 2; and so on — exactly
the paper's Table 1:

    ==========  =====  =========  =========  =========
    connection    A        B          C          D
    ==========  =====  =========  =========  =========
    1           r1
    2           r1     r2 - r1
    3           r1     r2 - r1    r3 - r2
    4           r1     r2 - r1    r3 - r2    r4 - r3
    ==========  =====  =========  =========  =========

Because classes ``1..k`` jointly form an M/M/1 at cumulative load
``sigma_k = (1/mu) * sum_m min(r_m, r_(k))`` (lower classes are invisible
under preemptive priority), the class occupancies are
``L_k = g(sigma_k) - g(sigma_{k-1})``, each shared equally by the
``N - k + 1`` connections present in class ``k``.  Summing a connection's
shares reproduces the paper's recursion

    ``Q_(i) = [ g(sigma_i) - sum_{m<i} Q_(m) ] / (N - i + 1)``.

The decisive structural property (used by Theorems 4 and 5) is
**triangularity**: ``Q_(i)`` depends only on rates ``r_m <= r_(i)``, so a
connection's queue — and hence its individual congestion signal — is
completely insulated from greedier connections.  In particular small
connections keep finite queues even when the gateway as a whole is
overloaded.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..backends import compiled
from ..errors import RateVectorError
from .math_utils import (as_rate_vector, g, inverse_permutation, run_ends,
                         sorted_order)
from .service import ServiceDiscipline, _check_mu

__all__ = ["FairShare", "priority_decomposition", "cumulative_loads",
           "cumulative_loads_batch", "fair_share_queues_recursive"]


def _sorted_loads(sorted_rates: np.ndarray, mu: float) -> np.ndarray:
    """O(n log n) cumulative loads from row-sorted rates.

    With the rates of each row sorted increasingly,
    ``sum_m min(r_m, r_(k)) = prefix_k + r_(k) * (n - 1 - k)`` — every
    rate at or below rank ``k`` contributes itself (the running prefix
    sum, inclusive of ``r_(k)``), every larger one is capped at
    ``r_(k)``.  The result differs from the O(n^2) min-broadcast sum
    only in floating-point summation order (last-ulp), never in value.
    A run of tied rates takes the load at its last rank
    (:func:`~repro.core.math_utils.run_ends`), so tied connections get
    one load.
    """
    n = sorted_rates.shape[-1]
    prefix = np.cumsum(sorted_rates, axis=-1)
    counts = (n - 1 - np.arange(n)).astype(float)
    loads = (prefix + sorted_rates * counts) / mu
    return np.take_along_axis(loads, run_ends(sorted_rates), axis=-1)


def _sorted_queues(rates: np.ndarray, mu: float,
                   weights: np.ndarray = None) -> np.ndarray:
    """The numpy sorted pipeline of the Fair Share law for an ``(M, n)``
    batch: the C kernel's reference, and the path without it.

    Sorts each row once by the normalised rate ``v = r / phi``, forms
    class ``k``'s load ``(prefix_k + v_(k) * weight strictly above k) /
    mu`` by prefix sums, and turns the per-class occupancy increments,
    split by ``phi_j / (weight at or above k)``, into per-connection
    shares with a single ``cumsum`` along the class axis — no Python
    loop over either the batch or the classes.

    ``weights`` (``n`` positive weights) gives the weighted law of
    :class:`~repro.core.weighted.WeightedFairShare`.  None is the
    unweighted law, run as the equal-weight case: with unit weights
    ``v`` is ``r``, the weight sums are exact integers and every
    product by a weight of 1 is exact.
    """
    m_batch, n = rates.shape
    rows = np.arange(m_batch)[:, None]
    if weights is None:
        weights = np.ones(n)
    with np.errstate(over="ignore"):
        v = rates / weights
    order = np.argsort(v, axis=1, kind="stable")
    sorted_rates, sorted_v = rates[rows, order], v[rows, order]
    phi = weights[order]
    at_or_above = np.cumsum(phi[:, ::-1], axis=1)[:, ::-1]
    # The top rank has no weight above it and adds no cap, so an
    # overflowing v never meets a zero weight.
    cap = np.zeros_like(sorted_v)
    cap[:, :-1] = sorted_v[:, :-1] * at_or_above[:, 1:]
    loads = (np.cumsum(sorted_rates, axis=1) + cap) / mu
    sigma = np.take_along_axis(loads, run_ends(sorted_v), axis=1)

    # L_k = g(sigma_k) - g(sigma_{k-1}), shared by the connections in
    # class k in proportion to their weights; a connection's queue is
    # its weight times the cumsum of its per-weight class shares.
    # sigma is nondecreasing along each row, so once g hits inf
    # (overload) every later class is inf too.
    g_sigma = np.asarray(g(sigma))
    finite = np.isfinite(g_sigma)
    g_prev = np.concatenate(
        [np.zeros((m_batch, 1)), g_sigma[:, :-1]], axis=1)
    with np.errstate(invalid="ignore"):
        shares = (g_sigma - g_prev) / at_or_above
    acc = np.cumsum(np.where(finite, shares, 0.0), axis=1) * phi
    q_sorted = np.where(finite, acc, math.inf)
    q_sorted[sorted_rates == 0.0] = 0.0

    out = np.empty_like(q_sorted)
    out[rows, order] = q_sorted
    return out


def _fs_queues_batch(rates, mu: float,
                     weights: np.ndarray = None) -> np.ndarray:
    """The one Fair Share kernel over an ``(M, n)`` batch of rate rows:
    unweighted, or weighted by ``weights`` (see :func:`_sorted_queues`).

    The sorted prefix-sum kernel runs in the C tier whenever it has
    built; otherwise (no compiler) the numpy sorted pipeline runs and
    gives the same bits.  Only well-formed input reaches C: a NaN,
    negative or infinite rate takes the numpy pipeline, so the
    edge-case semantics (``nan`` propagation, the ``g()`` domain error)
    are the historical ones.
    """
    r = np.asarray(rates, dtype=float)
    _check_mu(mu)
    if r.ndim != 2:
        raise RateVectorError(
            f"rate batch must be 2-D, got shape {r.shape}")
    if weights is not None and r.shape[1] != weights.shape[0]:
        raise RateVectorError(
            f"need {weights.shape[0]} rates per row, got shape {r.shape}")
    out = compiled.fs_queue_batch(r, mu, weights)
    if out is not None:
        return out
    return _sorted_queues(r, mu, weights=weights)


def priority_decomposition(rates: Sequence[float]) -> np.ndarray:
    """The Table 1 substream matrix, in the *original* connection order.

    ``D[i, k]`` is the rate connection ``i`` contributes to priority
    class ``k`` (class 0 highest).  Row sums equal ``r_i``; column ``k``'s
    nonzero entries are all equal to ``r_(k+1) - r_(k)`` (sorted rates,
    ``r_(0) = 0``).
    """
    r = as_rate_vector(rates)
    order = sorted_order(r)
    sorted_rates = r[order]
    prev = np.concatenate(([0.0], sorted_rates[:-1]))
    # D[i, k] = clip(min(r_i, r_(k)) - r_(k-1), 0)
    capped = np.minimum(r[:, None], sorted_rates[None, :])
    decomp = np.clip(capped - prev[None, :], 0.0, None)
    return decomp


def cumulative_loads(rates: Sequence[float], mu: float,
                     sorted_rates: np.ndarray = None) -> np.ndarray:
    """``sigma_k = (1/mu) sum_m min(r_m, r_(k))`` for sorted rank ``k``.

    ``sigma_k`` is the cumulative utilisation of priority classes
    ``1..k``; it is the only load the ``k``-th smallest connection ever
    experiences under Fair Share.

    Pass ``sorted_rates`` (the rates in increasing order) when the
    caller has already sorted them, to avoid sorting the same vector
    twice.  A one-row call of :func:`cumulative_loads_batch`, so the
    scalar and batch paths are the same kernel at every size.

    The inner sum runs over the *sorted* rates, not the caller's order,
    and a run of tied rates takes one load: floating-point addition is
    not associative, and this makes the result bit-identical under any
    permutation of the input.
    """
    r = as_rate_vector(rates)
    if sorted_rates is None:
        sorted_rates = r[sorted_order(r)]
    return cumulative_loads_batch(r[None, :], mu,
                                  sorted_rates=sorted_rates[None, :])[0]


def cumulative_loads_batch(rates: np.ndarray, mu: float,
                           sorted_rates: np.ndarray = None) -> np.ndarray:
    """Batched :func:`cumulative_loads`: row ``m`` of the ``(M, n)``
    result is ``cumulative_loads(rates[m], mu)``.

    ``sorted_rates`` (each row sorted increasingly) can be supplied when
    the caller has already sorted the batch.  It runs the O(M n log n)
    numpy sorted prefix-sum pipeline, :func:`_sorted_loads`: no engine
    stage calls the loads, so they have no C kernel.
    """
    r = np.asarray(rates, dtype=float)
    _check_mu(mu)
    if r.ndim != 2:
        raise RateVectorError(
            f"rate batch must be 2-D, got shape {r.shape}")
    if sorted_rates is None:
        sorted_rates = np.sort(r, axis=1, kind="stable")
    return _sorted_loads(sorted_rates, mu)


class FairShare(ServiceDiscipline):
    """Fair Share service via the substream / priority-class construction."""

    name = "fair-share"

    def queue_lengths(self, rates, mu):
        """A one-row call of :meth:`queue_lengths_batch`, so the scalar
        and batch laws are the same kernel at every gateway size."""
        r = as_rate_vector(rates)
        return self.queue_lengths_batch(r[None, :], mu)[0]

    def queue_lengths_batch(self, rates, mu):
        """Vectorised FS queue law over an ``(M, n)`` batch of rate
        rows: the sorted prefix-sum kernel, in C whenever the C tier has
        built, else the numpy sorted pipeline, with the same bits (see
        :func:`_fs_queues_batch`)."""
        return _fs_queues_batch(rates, mu)


def fair_share_queues_recursive(rates: Sequence[float],
                                mu: float) -> np.ndarray:
    """The paper's recursion for the FS queues, for cross-validation.

    ``Q_(i) = [ g(sigma_i) - sum_{m<i} Q_(m) ] / (N - i + 1)`` in sorted
    order, mapped back to the original order, with the loads summed
    inline as the O(N^2) ``sum_m min(r_m, r_(i))``.  Mathematically
    identical to :meth:`FairShare.queue_lengths` but sharing none of
    its code, so it is the plain law the ``batch-equivalence`` oracle
    and the tests check the kernel against.
    """
    r = as_rate_vector(rates)
    _check_mu(mu)
    n = r.shape[0]
    order = sorted_order(r)
    inv = inverse_permutation(order)
    sorted_rates = r[order]
    capped = np.minimum(sorted_rates[None, :], sorted_rates[:, None])
    sigma = capped.sum(axis=1) / mu
    g_sigma = np.atleast_1d(g(sigma))
    q_sorted = np.zeros(n, dtype=float)
    running = 0.0
    for i in range(n):
        gi = float(g_sigma[i])
        if math.isinf(gi):
            q_sorted[i:] = math.inf
            break
        q_sorted[i] = (gi - running) / (n - i)
        running += q_sorted[i]
    q_sorted[sorted_rates == 0.0] = 0.0
    return q_sorted[inv]
