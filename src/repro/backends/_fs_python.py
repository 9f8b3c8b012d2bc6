"""Loop-form twins of the Fair Share sorted prefix-sum kernels.

These functions replicate, scalar operation for scalar operation, the
numpy sorted pipelines in :mod:`repro.core.fairshare` (``_sorted_queues``
and ``_sorted_loads``) and :mod:`repro.core.signals`
(``_individual_sorted``), which the C kernels in ``_cext.py`` also
replicate.  Written as plain loops over ``np.argsort(kind="mergesort")``
with no fancy indexing, they are executable reference implementations
the unit tests diff against both the numpy pipeline and the C
extension.

Bit-identity notes (shared with the C twin in ``_cext.py``):

* ``np.argsort(kind="mergesort")`` and ``kind="stable"`` produce the
  same permutation — both are stable, and the permutation of a stable
  ascending sort is unique.
* the numpy pipeline's ``np.cumsum`` is a sequential left-to-right
  accumulation, so a running-scalar ``prefix += x`` reproduces it
  exactly (numpy's *pairwise* ``.sum()`` is never used on these
  paths).
* masked accumulation (``np.where(finite, shares, 0.0)`` feeding
  ``cumsum``) is mirrored by adding literal ``0.0`` in the masked
  branch; the accumulator is never ``-0.0`` (shares are quotients of
  a nonnegative difference by a positive count), so ``acc + 0.0``
  is bitwise ``acc``.
* the tie rule: a run of equal sorted values takes the value computed
  at its last rank, where the prefix sum has taken in the whole run
  (the numpy pipeline gathers it through
  :func:`~repro.core.math_utils.run_ends`); the twins sum the run
  into the prefix first, then write it.

Every function takes a preallocated ``out`` and returns it, the
calling convention of the C tier.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fs_queue_batch", "fs_loads_batch", "ind_congestion_batch"]


def fs_queue_batch(rates, mu, out):
    """Fair Share queue lengths, row by row, original order.

    Twin of ``fairshare._sorted_queues``:
    stable-sort each row, accumulate cumulative loads and marginal
    queue shares along the sorted ranks, scatter back through the
    sort permutation.  A run of tied rates takes the load at its last
    rank.  Rates must be nonnegative (the caller validates, matching
    the numpy path's ``g()`` domain check).
    """
    m, n = rates.shape
    for row in range(m):
        rr = rates[row]
        order = np.argsort(rr, kind="mergesort")
        prefix = 0.0
        g_prev = 0.0
        acc = 0.0
        k = 0
        while k < n:
            end = k
            prefix += rr[order[k]]
            while end + 1 < n and rr[order[end + 1]] == rr[order[k]]:
                end += 1
                prefix += rr[order[end]]
            sigma = (prefix + rr[order[end]] * float(n - 1 - end)) / mu
            if sigma < 1.0:
                gs = sigma / (1.0 - sigma)
            else:
                gs = np.inf
            while k <= end:
                j = order[k]
                if np.isfinite(gs):
                    acc += (gs - g_prev) / float(n - k)
                    q = acc
                else:
                    acc += 0.0  # the masked cumsum adds literal zero here
                    q = np.inf
                if rr[j] == 0.0:
                    q = 0.0
                out[row, j] = q
                g_prev = gs
                k += 1
    return out


def fs_loads_batch(sorted_rates, mu, out):
    """Cumulative loads over rows already sorted ascending.

    Twin of ``fairshare._sorted_loads``: ``(cumsum + r_(k) *
    (n - 1 - k)) / mu`` along each row, a run of tied rates taking the
    load at its last rank, returned in sorted-rank order (not
    scattered back).
    """
    m, n = sorted_rates.shape
    for row in range(m):
        rr = sorted_rates[row]
        prefix = 0.0
        k = 0
        while k < n:
            end = k
            prefix += rr[k]
            while end + 1 < n and rr[end + 1] == rr[k]:
                end += 1
                prefix += rr[end]
            load = (prefix + rr[end] * float(n - 1 - end)) / mu
            while k <= end:
                out[row, k] = load
                k += 1
    return out


def ind_congestion_batch(queues, out):
    """Individual congestion via the sorted prefix-sum identity.

    Twin of ``signals._individual_sorted``:
    ``c_i = sum_j min(q_i, q_j)`` evaluated as ``prefix + q_(k) *
    (n - 1 - k)`` over stable-sorted queues, with infinite queues
    pinned to ``inf``, a run of tied queues taking the measure at its
    last rank, and results scattered back to original order.
    """
    m, n = queues.shape
    for row in range(m):
        qq = queues[row]
        order = np.argsort(qq, kind="mergesort")
        prefix = 0.0
        k = 0
        while k < n:
            end = k
            prefix += qq[order[k]]
            while end + 1 < n and qq[order[end + 1]] == qq[order[k]]:
                end += 1
                prefix += qq[order[end]]
            v = qq[order[end]]
            if np.isinf(v):
                c = np.inf
            else:
                c = prefix + v * float(n - 1 - end)
            while k <= end:
                out[row, order[k]] = c
                k += 1
    return out
