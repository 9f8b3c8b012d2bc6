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

from ..errors import RateVectorError
from .math_utils import (SPARSE_MIN_N, as_rate_vector, g,
                         inverse_permutation, pick_kernel, sorted_order)
from .service import ServiceDiscipline, _check_mu

__all__ = ["FairShare", "priority_decomposition", "cumulative_loads",
           "cumulative_loads_batch", "fair_share_queues_recursive"]


def _compiled_kernels():
    """The compiled Fair Share dispatch module (lazy, cycle-free)."""
    from ..backends import compiled
    return compiled


def _sorted_loads(sorted_rates: np.ndarray, mu: float,
                  xp=np) -> np.ndarray:
    """O(n log n) cumulative loads from row-sorted rates.

    With the rates of each row sorted increasingly,
    ``sum_m min(r_m, r_(k)) = prefix_k + r_(k) * (n - 1 - k)`` — every
    rate at or below rank ``k`` contributes itself (the running prefix
    sum, inclusive of ``r_(k)``), every larger one is capped at
    ``r_(k)``.  This replaces the O(n^2) min-broadcast for large
    gateways; the result differs from the broadcast sum only in
    floating-point summation order (last-ulp), never in value.
    """
    n = sorted_rates.shape[-1]
    prefix = xp.cumsum(sorted_rates, axis=-1)
    counts = (n - 1 - xp.arange(n)).astype(float)
    return (prefix + sorted_rates * counts) / mu


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
                     sorted_rates: np.ndarray = None,
                     method: str = "auto") -> np.ndarray:
    """``sigma_k = (1/mu) sum_m min(r_m, r_(k))`` for sorted rank ``k``.

    ``sigma_k`` is the cumulative utilisation of priority classes
    ``1..k``; it is the only load the ``k``-th smallest connection ever
    experiences under Fair Share.

    Pass ``sorted_rates`` (the rates in increasing order) when the
    caller has already sorted them — :meth:`FairShare.queue_lengths`
    does — to avoid sorting the same vector twice.

    The inner sum runs over the *sorted* rates, not the caller's order:
    ``sum_m min(r_m, r_(k))`` is permutation-invariant mathematically,
    but floating-point addition is not associative, so summing in the
    caller's order made tied-rate vectors yield queues that differed in
    the last ulp across permutations.  Summing in canonical (sorted)
    order makes the result bit-identical under any permutation of the
    input.

    ``method`` selects the kernel: ``"dense"`` is the O(n^2)
    min-broadcast reference, ``"sorted"`` the O(n log n) prefix-sum
    formulation, ``"auto"`` (default) switches to sorted at
    ``n >= SPARSE_MIN_N``.  The two agree to floating-point summation
    order; the scalar and batch paths use the same kernel at the same
    ``n``, so the scalar/batch identity holds at every size.
    """
    r = as_rate_vector(rates)
    _check_mu(mu)
    if sorted_rates is None:
        sorted_rates = r[sorted_order(r)]
    kernel = pick_kernel(method, r.shape[0])
    if kernel == "compiled":
        out = _compiled_kernels().fs_loads_batch(
            sorted_rates[None, :], mu)
        if out is not None:
            return out[0]
        kernel = "sorted"  # no compiled tier live: sorted twin
    if kernel == "sorted":
        return _sorted_loads(sorted_rates[None, :], mu)[0]
    capped = np.minimum(sorted_rates[None, :], sorted_rates[:, None])
    return capped.sum(axis=1) / mu


def cumulative_loads_batch(rates: np.ndarray, mu: float,
                           sorted_rates: np.ndarray = None,
                           method: str = "auto",
                           xp=None) -> np.ndarray:
    """Batched :func:`cumulative_loads`: row ``m`` of the ``(M, n)``
    result is ``cumulative_loads(rates[m], mu)``.

    ``sorted_rates`` (each row sorted increasingly) can be supplied when
    the caller has already sorted the batch.

    As in :func:`cumulative_loads`, the sum runs over the sorted rates
    so each row's loads are bit-identical under permutation of that row
    (and bit-identical to the scalar path).  ``method`` works as there;
    at ``n >= SPARSE_MIN_N`` the ``(M, n, n)`` min-broadcast — the
    allocation that caps ensemble size — is replaced by the O(M n log n)
    prefix-sum kernel.

    ``xp`` selects the array namespace (numpy when ``None``); the
    compiled kernels only engage on numpy arrays.
    """
    xp = np if xp is None else xp
    r = xp.asarray(rates, dtype=float)
    _check_mu(mu)
    if r.ndim != 2:
        raise RateVectorError(
            f"rate batch must be 2-D, got shape {r.shape}")
    if sorted_rates is None:
        sorted_rates = xp.sort(r, axis=1, kind="stable")
    kernel = pick_kernel(method, r.shape[1])
    if kernel == "compiled":
        out = None
        if xp is np and isinstance(sorted_rates, np.ndarray):
            out = _compiled_kernels().fs_loads_batch(sorted_rates, mu)
        if out is not None:
            return out
        kernel = "sorted"  # no compiled tier live: sorted twin
    if kernel == "sorted":
        return _sorted_loads(sorted_rates, mu, xp=xp)
    capped = xp.minimum(sorted_rates[:, None, :],
                        sorted_rates[:, :, None])
    return capped.sum(axis=2) / mu


class FairShare(ServiceDiscipline):
    """Fair Share service via the substream / priority-class construction."""

    name = "fair-share"

    def queue_lengths(self, rates, mu, method: str = "auto"):
        r = as_rate_vector(rates)
        _check_mu(mu)
        n = r.shape[0]
        if pick_kernel(method, n) != "dense":
            # Large gateways: run the single vector as a one-row batch.
            # Same kernels, same operations — the scalar/batch identity
            # is exact by construction — and neither the O(n) Python
            # class loop nor the O(n^2) broadcast ever runs.  Under an
            # active compiled backend the batch path dispatches to the
            # compiled twin of the sorted pipeline (bit-identical).
            return self.queue_lengths_batch(r[None, :], mu,
                                            method=method)[0]
        order = sorted_order(r)
        inv = inverse_permutation(order)
        sigma = cumulative_loads(r, mu, sorted_rates=r[order],
                                 method=method)

        # Class occupancies L_k = g(sigma_k) - g(sigma_{k-1}); classes at
        # or beyond utilisation 1 have no steady state.
        g_sigma = g(sigma)
        q_sorted = np.zeros(n, dtype=float)
        g_prev = 0.0
        acc = np.zeros(n, dtype=float)  # running per-connection shares
        for k in range(n):
            g_now = float(np.atleast_1d(g_sigma)[k])
            if math.isinf(g_now):
                share = math.inf
            else:
                share = (g_now - g_prev) / (n - k)
            # Connections of sorted rank >= k participate in class k,
            # but only if they actually send in it (distinct rate or the
            # class has zero width -> zero share anyway).
            if share != 0.0:
                acc[k:] = acc[k:] + share
            g_prev = g_now if not math.isinf(g_now) else g_prev
            if math.isinf(g_now):
                # Every later class is also overloaded.
                acc[k:] = math.inf
                break
        q_sorted[:] = acc
        # A connection with zero rate has an empty queue regardless.
        sorted_rates = r[order]
        q_sorted[sorted_rates == 0.0] = 0.0
        return q_sorted[inv]

    def queue_lengths_batch(self, rates, mu, method: str = "auto",
                            xp=None):
        """Vectorised FS queue law over an ``(M, n)`` batch of rate rows.

        Sorts each row once, forms the cumulative loads by broadcasting,
        and turns the per-class occupancy increments into per-connection
        shares with a single ``cumsum`` along the class axis — no Python
        loop over either the batch or the classes.

        ``method`` picks the kernel as in :func:`cumulative_loads_batch`
        (``"compiled"`` forces the compiled twin of the sorted pipeline
        when a tier is live); ``xp`` selects the array namespace (numpy
        when ``None``).  The compiled twin only engages on well-formed
        numpy input — non-finite or negative rates take the numpy
        pipeline so edge-case semantics (``nan`` propagation, the
        ``g()`` domain error) are exactly the historical ones.
        """
        xp = np if xp is None else xp
        r = xp.asarray(rates, dtype=float)
        _check_mu(mu)
        if r.ndim != 2:
            raise RateVectorError(
                f"rate batch must be 2-D, got shape {r.shape}")
        m_batch, n = r.shape
        kernel = pick_kernel(method, n)
        if (kernel == "compiled" and xp is np
                and isinstance(r, np.ndarray)
                and np.all(np.isfinite(r)) and np.all(r >= 0)):
            out = _compiled_kernels().fs_queue_batch(r, mu)
            if out is not None:
                return out
        order = xp.argsort(r, axis=1, kind="stable")
        # One fancy gather into sorted order and one scatter back.  The
        # gather returns a C-ordered array whatever r's layout (a
        # fancy-indexed column subset is F-ordered, and np.sort would
        # keep that), so the dense load sum below adds in one fixed
        # order and a row's bits never depend on the batch around it.
        rows = xp.arange(m_batch)[:, None]
        sorted_rates = r[rows, order]
        sigma = cumulative_loads_batch(r, mu, sorted_rates=sorted_rates,
                                       method=method, xp=xp)

        # L_k = g(sigma_k) - g(sigma_{k-1}), shared by the N - k
        # connections in class k; a connection's queue is the cumsum of
        # its class shares.  sigma is nondecreasing along each row, so
        # once g hits inf (overload) every later class is inf too.
        g_sigma = xp.asarray(g(sigma))
        finite = xp.isfinite(g_sigma)
        g_prev = xp.concatenate(
            [xp.zeros((m_batch, 1)), g_sigma[:, :-1]], axis=1)
        class_size = (n - xp.arange(n)).astype(float)
        with np.errstate(invalid="ignore"):
            shares = (g_sigma - g_prev) / class_size
        acc = xp.cumsum(xp.where(finite, shares, 0.0), axis=1)
        q_sorted = xp.where(finite, acc, math.inf)
        q_sorted[sorted_rates == 0.0] = 0.0

        out = xp.empty_like(q_sorted)
        out[rows, order] = q_sorted
        return out


def fair_share_queues_recursive(rates: Sequence[float],
                                mu: float) -> np.ndarray:
    """The paper's recursion for the FS queues, for cross-validation.

    ``Q_(i) = [ g(sigma_i) - sum_{m<i} Q_(m) ] / (N - i + 1)`` in sorted
    order, mapped back to the original order.  Mathematically identical
    to :meth:`FairShare.queue_lengths`; kept as an independent
    implementation so tests can check the two derivations against each
    other.
    """
    r = as_rate_vector(rates)
    _check_mu(mu)
    n = r.shape[0]
    order = sorted_order(r)
    inv = inverse_permutation(order)
    sorted_rates = r[order]
    sigma = cumulative_loads(r, mu, sorted_rates=sorted_rates)
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
