"""Compiled-kernel tier selection and dispatch.

The C extension (:mod:`repro.backends._cext`, built at first use when a
C compiler exists) serves two hot paths:

* the Fair Share sorted prefix-sum laws — queue lengths (unweighted
  and weighted), cumulative loads and the individual congestion
  measure.  :func:`fs_queue_batch`,
  :func:`fs_loads_batch` and :func:`ind_congestion_batch` are the one
  wrapper between :mod:`repro.core.fairshare` / :mod:`repro.core.signals`
  and the ctypes call.  They run whenever the C tier has built,
  because they give the same bits as the numpy pipeline; they return
  None when it has not built or when the input lies outside the
  kernel's domain, and the caller then runs the numpy pipeline.
* the FIFO event loop (:func:`fifo_lib`).

:func:`tier` names the live tier: ``cext`` when the C library has
built, else ``python``.

Observability: :func:`metrics` carries per-phase
:class:`~repro.observability.metrics.Timer` spans — ``compile.cext``
(actual C build time, zero on a cache hit) and ``run.fifo``
(steady-state time inside the compiled event loop) — so
``BENCH_compiled.json`` can separate warmup from throughput.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _cext

__all__ = ["tier", "fs_available", "fifo_lib", "metrics",
           "fs_queue_batch", "fs_loads_batch", "ind_congestion_batch",
           "warmup"]

_METRICS = None


def metrics():
    """The module's :class:`~repro.observability.metrics.
    MetricsRegistry` (created lazily to keep imports cycle-free)."""
    global _METRICS
    if _METRICS is None:
        from ..observability.metrics import MetricsRegistry
        _METRICS = MetricsRegistry()
    return _METRICS


def tier() -> str:
    """``"cext"`` when the C library has built, else ``"python"``."""
    return "cext" if _cext.load() is not None else "python"


def fs_available() -> bool:
    """The C Fair Share kernels have built."""
    return _cext.load() is not None


def fifo_lib():
    """The C library serving the FIFO event loop, or None when it has
    not built (the pure-python ``_run_fifo`` then runs)."""
    return _cext.load()


def warmup() -> str:
    """Build or load the C library now; returns the tier."""
    t = tier()
    if _cext.load() is not None and not _cext.built_from_cache():
        reg = metrics()
        timer = reg.timer("compile.cext")
        if timer.count == 0:
            timer.add(_cext.build_seconds())
    return t


# ------------------------------------------------------------------
# Fair Share kernel dispatch (numpy in / numpy out; None = numpy path)
# ------------------------------------------------------------------
def fs_queue_batch(rates: np.ndarray, mu: float,
                   weights: Optional[np.ndarray] = None
                   ) -> Optional[np.ndarray]:
    """Fair Share queue lengths of an ``(M, n)`` rate batch from the C
    kernel, or None when the C tier has not built, a rate is NaN,
    negative or infinite, or a weight is not finite and positive.

    ``weights`` (``n`` of them) selects the weighted law of
    :class:`~repro.core.weighted.WeightedFairShare`; None is the
    unweighted law."""
    lib = _cext.load()
    if lib is None:
        return None
    r = np.ascontiguousarray(rates, dtype=np.float64)
    m, n = r.shape
    phi = None
    if weights is not None:
        phi = np.ascontiguousarray(weights, dtype=np.float64)
        if phi.shape != (n,):
            raise ValueError(f"need {n} weights, got shape {phi.shape}")
    out = np.empty_like(r)
    if lib.fs_queue_batch(r.ctypes.data,
                          None if phi is None else phi.ctypes.data,
                          m, n, float(mu), out.ctypes.data):
        return None
    return out


def fs_loads_batch(sorted_rates: np.ndarray,
                   mu: float) -> Optional[np.ndarray]:
    """Cumulative loads over row-sorted rates from the C kernel, or
    None (as :func:`fs_queue_batch`)."""
    lib = _cext.load()
    if lib is None:
        return None
    r = np.ascontiguousarray(sorted_rates, dtype=np.float64)
    out = np.empty_like(r)
    m, n = r.shape
    if lib.fs_loads_batch(r.ctypes.data, m, n, float(mu),
                          out.ctypes.data):
        return None
    return out


def ind_congestion_batch(queues: np.ndarray) -> Optional[np.ndarray]:
    """Individual congestion measures of an ``(M, n)`` queue batch from
    the C kernel, or None when the C tier has not built or a queue is
    NaN or negative (infinite queues are in its domain)."""
    lib = _cext.load()
    if lib is None:
        return None
    q = np.ascontiguousarray(queues, dtype=np.float64)
    out = np.empty_like(q)
    m, n = q.shape
    if lib.ind_congestion_batch(q.ctypes.data, m, n, out.ctypes.data):
        return None
    return out
