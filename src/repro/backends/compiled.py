"""Compiled-kernel tier selection and dispatch.

The C extension (:mod:`repro.backends._cext`, built at first use when a
C compiler exists) serves two hot paths:

* the Fair Share sorted prefix-sum laws — queue lengths (unweighted
  and weighted), cumulative loads and the individual congestion
  measure.  :func:`fs_queue_batch`,
  :func:`fs_loads_batch` and :func:`ind_congestion_batch` are the one
  wrapper between :mod:`repro.core.fairshare` / :mod:`repro.core.signals`
  and the ctypes call.  They run whenever the C tier has built,
  whatever the active backend, because they give the same bits as the
  numpy pipeline; they return None when it has not built or when the
  input lies outside the kernel's domain, and the caller then runs the
  numpy pipeline.
* the FIFO event loop (:func:`fifo_lib`).

:func:`tier` still names the best tier for the backend registry:
``numba`` when numba is importable and compiles the loop twins of
:mod:`repro.backends._fs_python`, else ``cext``, else ``python``.  The
numba twins serve no kernel; they only answer ``resolve("numba")``.

Observability: :data:`METRICS` carries per-phase
:class:`~repro.observability.metrics.Timer` spans — ``compile.cext``
(actual C build time, zero on a cache hit), ``compile.numba`` (JIT
warmup of the Fair Share twins), and ``run.fifo`` (steady-state time
inside the compiled event loop) — so ``BENCH_compiled.json`` can
separate warmup from throughput.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _cext, _fs_python

__all__ = ["tier", "fs_available", "fifo_lib", "metrics",
           "numba_tier_ready", "fs_queue_batch", "fs_loads_batch",
           "ind_congestion_batch", "warmup"]

_TIER: Optional[str] = None
_NUMBA_TRIED = False
_NUMBA_KERNELS = None
_METRICS = None


def metrics():
    """The module's :class:`~repro.observability.metrics.
    MetricsRegistry` (created lazily to keep imports cycle-free)."""
    global _METRICS
    if _METRICS is None:
        from ..observability.metrics import MetricsRegistry
        _METRICS = MetricsRegistry()
    return _METRICS


def _try_numba():
    """Compile the numba tier once; returns the jitted kernels or None
    (a failed import or compilation is remembered, not retried)."""
    global _NUMBA_TRIED, _NUMBA_KERNELS
    if _NUMBA_TRIED:
        return _NUMBA_KERNELS
    _NUMBA_TRIED = True
    try:
        import numba
    except Exception:
        return None
    try:
        with metrics().timer("compile.numba").time():
            jit = numba.njit(cache=False, fastmath=False)
            kernels = {
                "fs_queue_batch": jit(_fs_python.fs_queue_batch),
                "fs_loads_batch": jit(_fs_python.fs_loads_batch),
                "ind_congestion_batch":
                    jit(_fs_python.ind_congestion_batch),
            }
            # Force compilation now so "compile" time is not smeared
            # into the first measured run.
            probe = np.array([[0.25, 0.5, 0.125]])
            out = np.empty_like(probe)
            kernels["fs_queue_batch"](probe, 1.0, out)
            kernels["fs_loads_batch"](np.sort(probe, axis=1), 1.0, out)
            kernels["ind_congestion_batch"](probe, out)
    except Exception:
        return None
    _NUMBA_KERNELS = kernels
    return kernels


def numba_tier_ready() -> bool:
    """numba is importable *and* the kernels actually compiled."""
    return _try_numba() is not None


def tier() -> str:
    """The best live tier: ``"numba"`` > ``"cext"`` > ``"python"``."""
    global _TIER
    if _TIER is None:
        if _try_numba() is not None:
            _TIER = "numba"
        elif _cext.load() is not None:
            _TIER = "cext"
        else:
            _TIER = "python"
    return _TIER


def fs_available() -> bool:
    """The C Fair Share kernels have built."""
    return _cext.load() is not None


def fifo_lib():
    """The C library serving the FIFO event loop, or None.

    Independent of :func:`tier`: even under the numba tier the event
    loop runs through the C extension (numba has no story for the
    heap/pool/RNG resume trampoline), so this is simply "the cext
    built" — with the pure-python ``_run_fifo`` as the graceful
    fallback when it did not.
    """
    return _cext.load()


def warmup() -> str:
    """Force tier resolution (and any compilation); returns the tier."""
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
