"""T1 — the paper's Table 1: Fair Share priority decomposition.

Regenerates the substream table for four connections with increasing
rates, checks the structural facts the table illustrates (rows sum to
the rates, column entries are the sorted-rate increments, triangular
support), and appends the Fair Share queue lengths those substreams
induce.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..core.fairshare import FairShare, priority_decomposition
from ..core.math_utils import sorted_order
from ..errors import RateVectorError
from .base import ExperimentResult

__all__ = ["run_table1"]

_CLASS_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def run_table1(rates: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
               mu: float = 1.5) -> ExperimentResult:
    """Reproduce Table 1 for ``rates`` (1 to 26 of them, one class
    label each)."""
    r = np.asarray(rates, dtype=float)
    if r.ndim != 1 or not 1 <= r.size <= len(_CLASS_LABELS):
        raise RateVectorError(
            f"Table 1 needs 1 to {len(_CLASS_LABELS)} rates, got "
            f"shape {r.shape}")
    n = r.shape[0]
    decomp = priority_decomposition(r)
    order = sorted_order(r)
    sorted_rates = r[order]
    labels = [_CLASS_LABELS[k] for k in range(n)]

    columns = ("connection", "rate") + tuple(labels) + ("queue_Q_i",)
    queues = FairShare().queue_lengths(r, mu)
    rows = []
    for i in range(n):
        rows.append((f"c{i + 1}", float(r[i]))
                    + tuple(float(decomp[i, k]) for k in range(n))
                    + (float(queues[i]),))

    increments = np.concatenate(([sorted_rates[0]],
                                 np.diff(sorted_rates)))
    row_sums_ok = bool(np.allclose(decomp.sum(axis=1), r))
    support_ok = True
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    for i in range(n):
        for k in range(n):
            inside = k <= rank[i]
            if inside and not np.isclose(decomp[i, k], increments[k]):
                support_ok = False
            if not inside and decomp[i, k] > 1e-12:
                support_ok = False
    conservation_ok = bool(np.isclose(
        float(np.sum(queues)),
        float(np.sum(r)) / mu / (1.0 - float(np.sum(r)) / mu)))

    return ExperimentResult(
        experiment_id="T1",
        title="Fair Share priority decomposition (paper Table 1)",
        columns=columns,
        rows=rows,
        checks={
            "rows_sum_to_rates": row_sums_ok,
            "entries_are_sorted_rate_increments_on_triangle": support_ok,
            "queues_conserve_total": conservation_ok,
        },
        notes=[
            "class A is the highest priority; connection with the k-th "
            "smallest rate participates in classes A..k only",
        ],
    )
