"""Small numerical helpers shared across the analytic model.

The central object is the M/M/1 occupancy function ``g(x) = x / (1 - x)``,
which gives the mean number of packets in the system of an exponential
server at utilisation ``x``.  The paper (Section 2.2) uses ``g`` both for
the total-queue conservation law of nonstalling service disciplines and
inside the Fair Share recursion.

All helpers here accept scalars or numpy arrays, treat utilisations at or
above 1 as *overload* (returning ``inf`` rather than raising), and never
return negative queue lengths from floating-point jitter.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..errors import RateVectorError

__all__ = [
    "g",
    "g_inverse",
    "as_rate_vector",
    "as_rate_matrix",
    "validate_rates",
    "sorted_order",
    "inverse_permutation",
    "run_ends",
    "relative_error",
    "sup_norm",
    "is_close_vector",
    "clip_nonnegative",
    "row_sums",
    "numpy_sum",
]


def g(x):
    """M/M/1 mean system occupancy ``g(x) = x / (1 - x)``.

    ``x`` is the server utilisation.  For ``x >= 1`` (overload) the queue
    has no steady state, which we encode as ``inf``.  Negative inputs are
    rejected: a utilisation cannot be negative.

    Accepts scalars or numpy arrays and vectorises elementwise.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise RateVectorError(f"utilisation must be nonnegative, got {x!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr < 1.0, arr / (1.0 - arr), math.inf)
    if np.ndim(x) == 0:
        return float(out)
    return out


def g_inverse(q):
    """Inverse of :func:`g`: the utilisation producing mean occupancy ``q``.

    ``g_inverse(q) = q / (1 + q)``; ``g_inverse(inf) = 1.0``.
    """
    arr = np.asarray(q, dtype=float)
    if np.any(arr < 0):
        raise RateVectorError(f"occupancy must be nonnegative, got {q!r}")
    with np.errstate(invalid="ignore"):
        out = np.where(np.isinf(arr), 1.0, arr / (1.0 + arr))
    if np.ndim(q) == 0:
        return float(out)
    return out


def as_rate_vector(rates: Iterable[float], n: int = None) -> np.ndarray:
    """Coerce ``rates`` to a float numpy vector and validate it.

    Rates must be finite and nonnegative.  If ``n`` is given the length
    must match.  Returns a fresh array (never a view of the input):
    ``np.array`` copies.
    """
    vec = np.array(list(rates) if not isinstance(rates, np.ndarray) else rates,
                   dtype=float)
    if vec.ndim != 1:
        raise RateVectorError(f"rate vector must be 1-D, got shape {vec.shape}")
    if n is not None and vec.shape[0] != n:
        raise RateVectorError(
            f"rate vector has length {vec.shape[0]}, expected {n}")
    validate_rates(vec)
    return vec


def as_rate_matrix(rates: Iterable[float], n: int = None) -> np.ndarray:
    """Coerce ``rates`` to an ``(M, n)`` float batch of rate vectors.

    Accepts a single 1-D rate vector (promoted to a one-row batch) or a
    2-D array whose rows are rate vectors.  Rates must be finite and
    nonnegative; if ``n`` is given the row length must match.  Returns a
    fresh C-contiguous array (never a view of the input).
    """
    mat = np.array(rates, dtype=float, copy=True, order="C")
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2:
        raise RateVectorError(
            f"rate batch must be 1-D or 2-D, got shape {mat.shape}")
    if n is not None and mat.shape[1] != n:
        raise RateVectorError(
            f"rate batch has row length {mat.shape[1]}, expected {n}")
    validate_rates(mat)
    return mat


def validate_rates(vec: np.ndarray) -> None:
    """Raise :class:`RateVectorError` unless all rates are finite and >= 0."""
    if not np.all(np.isfinite(vec)):
        raise RateVectorError("rates must be finite")
    if np.any(vec < 0):
        raise RateVectorError("rates must be nonnegative")


def sorted_order(values: Sequence[float]) -> np.ndarray:
    """Indices that sort ``values`` increasingly (stable sort).

    Stability matters for the Fair Share recursion: ties in rates must be
    broken deterministically so the permutation round-trips.
    """
    return np.argsort(np.asarray(values, dtype=float), kind="stable")


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse of a permutation given as an index array."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0])
    return inv


def run_ends(sorted_values: np.ndarray) -> np.ndarray:
    """Rank of the last entry of each entry's run of equal values.

    ``sorted_values`` is sorted increasingly along its last axis.  The
    sorted prefix-sum laws give every rank of a run the value computed
    at that run's last rank, where the prefix sum has taken in the
    whole run: exact in real arithmetic, and tied inputs then get
    bit-identical outputs.
    """
    n = sorted_values.shape[-1]
    last = np.ones(sorted_values.shape, dtype=bool)
    last[..., :-1] = sorted_values[..., 1:] != sorted_values[..., :-1]
    ends = np.where(last, np.arange(n), n - 1)
    return np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]


def relative_error(measured: float, expected: float) -> float:
    """|measured - expected| / max(|expected|, tiny); 0 if both are 0."""
    if expected == 0.0 and measured == 0.0:
        return 0.0
    denom = max(abs(expected), 1e-300)
    return abs(measured - expected) / denom


def sup_norm(a, b) -> float:
    """Supremum-norm distance between two vectors."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise RateVectorError(
            f"shape mismatch in sup_norm: {av.shape} vs {bv.shape}")
    if av.size == 0:
        return 0.0
    return float(np.max(np.abs(av - bv)))


def is_close_vector(a, b, atol: float = 1e-9, rtol: float = 1e-9) -> bool:
    """Elementwise closeness of two vectors (shape-checked)."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        return False
    return bool(np.allclose(av, bv, atol=atol, rtol=rtol))


def row_sums(values: np.ndarray) -> np.ndarray:
    """Sums along the last axis, as a strict left-to-right fold per row.

    ``values.sum(axis=-1)`` lets numpy pick the summation order from the
    array's shape and memory layout, so a row summed on its own and the
    same row inside a larger (or fancy-indexed, non-C-ordered) batch can
    differ in the last bits.  ``cumsum`` always folds in index order, so
    row ``m`` of the result depends on row ``m`` of the input alone: a
    one-row batch is bit-identical to that row of any batch.
    """
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1], dtype=float)
    return values.cumsum(axis=-1)[..., -1]


def numpy_sum(values: Sequence[float]) -> float:
    """``float(np.sum(values))`` for a list of Python floats, bit for bit.

    numpy adds fewer than 8 terms one by one onto 0.0, left to right,
    and 8 or more with 8 pairwise accumulators.  Short lists take that
    fold here, skipping the array conversion; Python's own ``sum`` will
    not do, as it compensates its rounding from Python 3.12 on.  Long
    lists take numpy's own sum.
    """
    if len(values) < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return float(np.sum(values))


def clip_nonnegative(vec: np.ndarray) -> np.ndarray:
    """Truncate negative entries to zero (the paper's rate truncation)."""
    return np.maximum(np.asarray(vec, dtype=float), 0.0)


def pairs(seq: Sequence) -> Iterable[Tuple]:
    """All unordered pairs of a sequence, in index order."""
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            yield items[i], items[j]
