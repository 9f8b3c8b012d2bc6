"""Compiled-kernel tier selection and dispatch.

The C extension (:mod:`repro.backends._cext`, built at first use when a
C compiler exists) serves four hot paths:

* the Fair Share sorted prefix-sum laws — queue lengths (unweighted
  and weighted), cumulative loads and the individual congestion
  measure.  :func:`fs_queue_batch`,
  :func:`fs_loads_batch` and :func:`ind_congestion_batch` are the one
  wrapper between :mod:`repro.core.fairshare` / :mod:`repro.core.signals`
  and the ctypes call.  They run whenever the C tier has built,
  because they give the same bits as the numpy pipeline; they return
  None when it has not built or when the input lies outside the
  kernel's domain, and the caller then runs the numpy pipeline.
* the observe stage of :class:`~repro.core.signals.FeedbackScheme`
  (:func:`observe_batch`): every gateway's queue law, congestion
  measure, signal, bottleneck MAX and sojourns in one call, for the
  schemes it serves; None sends the caller to the numpy loop, as
  above.
* :meth:`~repro.core.dynamics.FlowControlSystem.run`'s whole step
  loop (:func:`run_loop`) for the schemes the observe stage serves and
  the six built-in rules; None sends ``run`` to its Python loop.
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

import ctypes
from typing import Optional

import numpy as np

from . import _cext

__all__ = ["tier", "fs_available", "fifo_lib", "metrics",
           "fs_queue_batch", "fs_loads_batch", "ind_congestion_batch",
           "observe_batch", "run_loop", "warmup"]

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


def observe_batch(rates: np.ndarray, plan,
                  with_delays: bool) -> Optional[tuple]:
    """The observe stage of an ``(M, N)`` rate batch from the C kernel:
    ``(b, d)``, with ``d`` None unless ``with_delays``.  None when the
    C tier has not built, or when a rate is NaN, negative or infinite
    or a congestion measure is NaN or negative; the caller then runs
    the numpy loop.

    ``plan`` holds the kernel's static arguments for one scheme: ``n``
    connections, ``args`` (the gateway CSR, service rates, law and
    measure codes and weights, as addresses) and ``latency`` (the
    address of the path latencies).
    :class:`~repro.core.signals.FeedbackScheme` builds it once."""
    lib = _cext.load()
    if lib is None:
        return None
    r = np.ascontiguousarray(rates, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] != plan.n:
        raise ValueError(f"need an (M, {plan.n}) rate batch, got shape "
                         f"{r.shape}")
    m, n = r.shape
    b = np.empty_like(r)
    d = np.empty_like(r) if with_delays else None
    if lib.observe_batch(r.ctypes.data, m, n, *plan.args,
                         plan.latency if with_delays else None,
                         b.ctypes.data, None if d is None else d.ctypes.data):
        return None
    return b, d


def _check_buffer(name: str, a, dtype, shape) -> None:
    """Raise ValueError unless ``a`` is a writeable C-contiguous array
    of ``dtype`` and ``shape`` (``None`` matches any length)."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.c_contiguous and a.flags.writeable
            and a.ndim == len(shape)
            and all(want is None or got == want
                    for got, want in zip(a.shape, shape))):
        raise ValueError(f"{name} must be a writeable C-contiguous "
                         f"{np.dtype(dtype).name} array of shape {shape}")


def run_loop(history: np.ndarray, plan, with_delays: bool,
             codes: np.ndarray, params: np.ndarray, tol: float,
             settle: int, limit: float,
             changes: Optional[np.ndarray] = None) -> Optional[tuple]:
    """:meth:`~repro.core.dynamics.FlowControlSystem.run`'s step loop in
    one C call, from the state in row 0 of ``history``, a
    ``(max_steps + 1, N)`` buffer it fills row by row.

    ``plan`` is the scheme's observe plan (see :func:`observe_batch`),
    ``codes`` the ``(N,)`` ``RULE_*`` codes and ``params`` the ``(N,
    3)`` rule parameters; ``changes``, when given, receives each step's
    largest rate change.  Returns ``(status, steps)``, with ``status``
    one of ``ST_CONVERGED``, ``ST_DIVERGED`` and ``ST_DONE`` (the
    budget spent), or None when the C tier has not built or the run
    left the kernel's domain; the caller then runs its Python loop."""
    lib = _cext.load()
    if lib is None:
        return None
    n = plan.n
    _check_buffer("history", history, np.float64, (None, n))
    _check_buffer("codes", codes, np.int64, (n,))
    _check_buffer("params", params, np.float64, (n, 3))
    max_steps = history.shape[0] - 1
    if changes is not None:
        _check_buffer("changes", changes, np.float64, (max_steps,))
    steps = ctypes.c_longlong(0)
    status = lib.run_loop(
        history.ctypes.data, max_steps, float(tol), int(settle),
        float(limit), n, *plan.args, plan.latency if with_delays else None,
        codes.ctypes.data, params.ctypes.data,
        None if changes is None else changes.ctypes.data,
        ctypes.byref(steps))
    if status not in (_cext.ST_CONVERGED, _cext.ST_DIVERGED, _cext.ST_DONE):
        return None
    return status, steps.value
