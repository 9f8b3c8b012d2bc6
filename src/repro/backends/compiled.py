"""Compiled-kernel tier selection and dispatch.

The C extension (:mod:`repro.backends._cext`, built at first use when a
C compiler exists) serves four hot paths:

* the Fair Share sorted prefix-sum laws — queue lengths (unweighted
  and weighted) and the individual congestion measure.
  :func:`fs_queue_batch` and :func:`ind_congestion_batch` are the one
  wrapper between :mod:`repro.core.fairshare` / :mod:`repro.core.signals`
  and the ctypes call.  They run whenever the C tier has built,
  because they give the same bits as the numpy pipeline; they return
  None when it has not built or when the input lies outside the
  kernel's domain, and the caller then runs the numpy pipeline.
* the observe stage of :class:`~repro.core.signals.FeedbackScheme`
  (:func:`observe_batch`): every gateway's queue law, congestion
  measure, signal, bottleneck MAX and sojourns in one call, for the
  schemes it serves (the three shipped signal functions, evaluated
  with libm as their scalar ``__call__`` is); None sends the caller
  to the numpy loop, as above.
* the trajectory loop (:func:`ensemble_loop`): a whole member block of
  the ensemble loop that ``run_ensemble``, ``run_async_ensemble`` and,
  at ``M = 1``, ``run`` share, with the clock gate (:class:`Gate`) and
  the fault and structural plans (:class:`Perturbation`), for the
  schemes the observe stage serves and nine rules (the six built-in
  rules and the three adversaries), or under a router-side controller
  (:class:`Control`); None sends the caller to its Python loop.
* the packet event loop (:func:`packet_lib`) for every discipline and
  drop policy, which ``NetworkSimulation(engine="auto")`` runs whenever
  the C tier has built.

:func:`tier` names the live tier: ``cext`` when the C library has
built, else ``python``.

Observability: :func:`metrics` carries the ``compile.cext``
:class:`~repro.observability.metrics.Timer` span (actual C build time,
zero on a cache hit), so ``BENCH.json`` can separate warmup from
throughput.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple, Optional

import numpy as np

from . import _cext

__all__ = ["tier", "packet_lib", "metrics", "fs_queue_batch",
           "ind_congestion_batch", "observe_batch", "Gate", "NO_GATE",
           "Perturbation", "Control", "ensemble_loop", "stream_words",
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


def packet_lib():
    """The C library serving the packet event loop, or None when it has
    not built (the Python loop of ``FastEngine`` then runs)."""
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


def _addr(a: Optional[np.ndarray]) -> Optional[int]:
    """The address of array ``a``'s data, as the C entry points take
    it; None for None.

    Every read of ``a.ctypes.data`` builds numpy's ``_ctypes`` helper
    object, which costs about three times a ctypes view of the buffer
    (DESIGN.md, section 13).  The view needs a writeable, non-empty,
    C-contiguous buffer, so any other array (read-only, zero-size or
    strided) takes the helper; both give the same address."""
    if a is None:
        return None
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


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
    if lib.fs_queue_batch(_addr(r), _addr(phi), m, n, float(mu),
                          _addr(out)):
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
    if lib.ind_congestion_batch(_addr(q), m, n, _addr(out)):
        return None
    return out


def observe_batch(rates: np.ndarray, plan,
                  with_delays: bool) -> Optional[tuple]:
    """The observe stage of an ``(M, N)`` rate batch from the C kernel:
    ``(b, d)``, with ``d`` None unless ``with_delays``.  None when the
    C tier has not built, or when a rate is NaN, negative or infinite,
    a congestion measure is NaN or negative or the signal's parameter
    is not finite and positive; the caller then runs the numpy loop.

    ``plan`` holds the kernel's arguments for one scheme: ``n``
    connections, ``args`` (the gateway CSR, service rates, law and
    measure codes and weights, as addresses, then the signal code and
    its parameter, read at each access) and ``latency`` (the address
    of the path latencies).
    :class:`~repro.core.signals.FeedbackScheme` builds it once."""
    lib = _cext.load()
    if lib is None:
        return None
    r = np.ascontiguousarray(rates, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] != plan.n:
        raise ValueError(f"need an (M, {plan.n}) rate batch, got shape "
                         f"{r.shape}")
    m, n = r.shape
    # b and d are the two planes of one block: one allocation, one
    # address read.
    out = np.empty((2 if with_delays else 1, m, n))
    at = _addr(out)
    if lib.observe_batch(_addr(r), m, n, *plan.args,
                         plan.latency if with_delays else None,
                         at, at + r.nbytes if with_delays else None):
        return None
    return out[0], out[1] if with_delays else None


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


class Gate(NamedTuple):
    """A clock gate of :func:`ensemble_loop`: ``code`` is one of
    ``GATE_NONE``, ``GATE_ROUND_ROBIN`` (source ``(step - 1) % n``
    ticks) and ``GATE_COINS``, where source ``i`` ticks at step ``t``
    (schedule step ``t - 1``) when ``u_i < on[i]``, with ``u =
    default_rng([seed, t - 1]).random(n)``; for a bursty clock ``off``
    replaces ``on`` in the odd bursts, those with ``(t - 1 + offsets[i])
    // burst_len`` odd.  ``seed`` holds the seed's little-endian 32-bit
    entropy words (one word for 0; at most eight)."""

    code: int
    seed: Optional[np.ndarray] = None
    on: Optional[np.ndarray] = None
    off: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None
    burst_len: int = 1

    def args(self) -> tuple:
        """The gate's arguments of the C ``ensemble_loop`` call."""
        return (self.code, _addr(self.seed),
                0 if self.seed is None else self.seed.shape[0],
                _addr(self.on), _addr(self.off), _addr(self.offsets),
                self.burst_len)


#: No clock gate: every source updates at every step.
NO_GATE = Gate(_cext.GATE_NONE)


def _int64s(a, shape) -> np.ndarray:
    """``a`` as a C-contiguous int64 array of ``shape``."""
    return np.ascontiguousarray(a, dtype=np.int64).reshape(shape)


class Perturbation:
    """The structural and fault plans of a member block as
    :func:`ensemble_loop` runs them, between the observe and decide
    stages.

    ``structural`` is ``(si, factors, starts)``: per injector in plan
    order its gateway's index in the CSR, its kind (``SI_DEGRADE`` or
    ``SI_BLACKHOLE``), window duration and period (0 for a single
    window), its factor (0.0 for a blackhole), and each member's window
    starts, ``(M, J)``.  ``faults`` is ``(fi, reals, sets, cap, skew,
    streams)``: per injector in stage order its code (its stage), three
    integer parameters (skew: its row in ``skew``; delay: delay and
    jitter; outage: start, duration, period; quantisation: levels - 1)
    and the offset into ``sets`` and the length of its connection list
    (-1 for every connection), two real parameters (loss and noise
    rate, noise amplitude), the rows of true-signal history ``cap``,
    each member's ``(n_skew, N)`` skew lags and the six words of its
    PCG64 stream (state and increment as high and low halves,
    ``has_uint32``, ``uinteger``).  Either may be None.

    After each call :attr:`fault_log` and :attr:`structural_log` hold
    the events the block logged, member after member and each member's
    in step order: an ``(E, 4)`` int64 array of (step, position in the
    block, index, kind) rows, the index a connection or an injector and
    the kind an injector's stage or an ``SI_*`` kind, and the ``(E,)``
    details."""

    def __init__(self, faults=None, structural=None):
        self._c = _cext.Perturb()
        self._arrays = []
        if structural is not None:
            si, factors, starts = structural
            si = _int64s(si, (-1, 4))
            self._c.n_si = si.shape[0]
            self._c.si = self._keep(si)
            self._c.si_factor = self._keep(np.ascontiguousarray(
                factors, dtype=np.float64))
            self._c.si_start = self._keep(_int64s(starts,
                                                  (-1, si.shape[0])))
            self.n_members = len(starts)
        self._c.cap = 1
        if faults is not None:
            fi, reals, sets, cap, skew, streams = faults
            fi = _int64s(fi, (-1, 6))
            skew = np.ascontiguousarray(skew, dtype=np.int64)
            self._c.n_fi = fi.shape[0]
            self._c.cap = cap
            self._c.n_skew = skew.shape[1]
            self._c.fi = self._keep(fi)
            self._c.fi_real = self._keep(np.ascontiguousarray(
                reals, dtype=np.float64))
            self._c.fi_sets = self._keep(_int64s(sets, (-1,)))
            self._c.skew = self._keep(skew)
            self._c.streams = self._keep(np.ascontiguousarray(
                streams, dtype=np.uint64))
            self.n_members = len(streams)
        self.fault_log = self.structural_log = None

    def _keep(self, a: np.ndarray) -> int:
        self._arrays.append(a)
        return _addr(a)

    def _take_logs(self, lib) -> None:
        """Copy the two logs out of the library's buffers and free
        them."""
        logs = []
        for log in (self._c.flog, self._c.slog):
            ints = np.empty((log.len, 4), dtype=np.int64)
            detail = np.empty(log.len)
            if log.len:
                ctypes.memmove(_addr(ints), log.ints, ints.nbytes)
                ctypes.memmove(_addr(detail), log.detail, detail.nbytes)
            lib.event_log_free(ctypes.byref(log))
            logs.append((ints, detail))
        self.fault_log, self.structural_log = logs


class Control:
    """A router-side controller (an :class:`~repro.core.rcp.RcpBank`)
    as :func:`ensemble_loop` runs it in place of the observe, perturb
    and decide stages.

    ``arrays`` are the bank's gateway member CSR (``gw_ptr``,
    ``members``), its route CSR (``route_ptr``, ``routes``), both int64,
    and its ``(G,)`` service rates and advertised-rate floors; ``state``
    is the ``(G,)`` initial advertised rates every member starts from,
    ``alpha`` and ``beta`` the gains and ``[factor_min, factor_max]``
    the envelope of the update factor."""

    def __init__(self, arrays, state, alpha: float, beta: float,
                 factor_min: float, factor_max: float):
        gw_ptr, members, route_ptr, routes, mu, floor = arrays
        g = mu.shape[0]
        self._state = np.ascontiguousarray(state, dtype=np.float64)
        for name, a, dtype, shape in (
                ("gw_ptr", gw_ptr, np.int64, (g + 1,)),
                ("members", members, np.int64, (gw_ptr[-1],)),
                ("route_ptr", route_ptr, np.int64, (None,)),
                ("routes", routes, np.int64, (route_ptr[-1],)),
                ("mu", mu, np.float64, (g,)),
                ("floor", floor, np.float64, (g,)),
                ("state", self._state, np.float64, (g,))):
            _check_buffer(name, a, dtype, shape)
        self.n = route_ptr.shape[0] - 1
        self._arrays = arrays
        self._c = _cext.Control(
            mu.shape[0], _addr(gw_ptr), _addr(members), _addr(route_ptr),
            _addr(routes), _addr(mu), _addr(floor), _addr(self._state),
            float(alpha), float(beta), float(factor_min),
            float(factor_max))


#: The observe plan, delay flag, rule codes and parameters of a
#: controlled call, which the kernel does not read.
_NO_STAGES = (0, None, None, None, 0, None, 0, None, _cext.SIGNAL_LINEAR,
              0.0, None, None, None)


def ensemble_loop(initials: np.ndarray, max_steps: int, tol: float,
                  settle: np.ndarray, limit: float, plan, with_delays: bool,
                  codes: np.ndarray, params: np.ndarray, tau: int = 0,
                  gate: Gate = NO_GATE, tail: Optional[np.ndarray] = None,
                  full: Optional[np.ndarray] = None,
                  agg: Optional[np.ndarray] = None,
                  perturb: Optional[Perturbation] = None,
                  control: Optional[Control] = None
                  ) -> Optional[tuple]:
    """The ensemble loop on an ``(M, N)`` member block in one C call.

    Each member iterates from its row of ``initials`` for at most
    ``max_steps`` steps under the scheme's observe ``plan``, the
    ``(N,)`` ``RULE_*`` ``codes`` (the nine rules of
    :data:`repro.core.ratecontrol._LOOP_RULES`: the six built-in rules
    and the three adversaries) and ``(N, 3)`` rule ``params``, the
    signal delay ``tau``, the structural and fault plans of
    ``perturb`` (whose logs then hold the block's events) and the clock
    ``gate``, or, when ``control`` is given, under that router-side
    controller alone (``plan``, ``with_delays``, ``codes`` and
    ``params`` are then not read and may be None), until it diverges
    past
    ``limit`` or ``settle[m]`` quiet steps (change ``<= tol * max(1,
    peak)``) converge it.  ``tail`` (``(M, tcap, N)``, rolling) and
    ``full`` (``(M, max_steps + 1, N)``) receive each member's states
    after row 0, which is the caller's; ``agg`` (``(max_steps,)``)
    receives, per step, the largest change among the members still
    running after it (inf when none is).

    Returns ``(finals, steps, status)``, with ``status`` per member one
    of ``ST_CONVERGED``, ``ST_DIVERGED`` and ``ST_DONE`` (the budget
    spent), or None when the C tier has not built or a member left the
    kernel's domain; the caller then runs the block on its Python loop,
    and nothing the kernel wrote into the buffers counts."""
    lib = _cext.load()
    if lib is None:
        return None
    r0 = np.ascontiguousarray(initials, dtype=np.float64)
    m, n = r0.shape
    width = plan.n if control is None else control.n
    if n != width:
        raise ValueError(f"need an (M, {width}) batch, got {r0.shape}")
    settle = np.ascontiguousarray(np.broadcast_to(settle, (m,)),
                                  dtype=np.int64)
    if control is None:
        _check_buffer("codes", codes, np.int64, (n,))
        _check_buffer("params", params, np.float64, (n, 3))
        stages = (*plan.args, plan.latency if with_delays else None,
                  _addr(codes), _addr(params))
    else:
        stages = _NO_STAGES
    tcap = 0
    if tail is not None:
        _check_buffer("tail", tail, np.float64, (m, None, n))
        tcap = tail.shape[1]
    if full is not None:
        _check_buffer("full", full, np.float64, (m, max_steps + 1, n))
    if agg is not None:
        _check_buffer("agg", agg, np.float64, (max_steps,))
    if perturb is not None and perturb.n_members != m:
        raise ValueError(f"the perturbation has {perturb.n_members} "
                         f"members, the block {m}")
    finals = np.empty_like(r0)
    steps = np.empty(m, dtype=np.int64)
    status = np.empty(m, dtype=np.int64)
    code = lib.ensemble_loop(
            _addr(r0), m, n, max_steps, float(tol), _addr(settle),
            float(limit), tau, *stages, *gate.args(), _addr(finals),
            _addr(steps), _addr(status), _addr(tail), tcap, _addr(full),
            _addr(agg), None if perturb is None else ctypes.byref(perturb._c),
            None if control is None else ctypes.byref(control._c))
    if perturb is not None:
        perturb._take_logs(lib)
    if code:
        return None
    return finals, steps, status


def stream_words(state: dict) -> np.ndarray:
    """The six words of a PCG64 ``bit_generator.state`` as
    :class:`Perturbation` takes a member's stream."""
    pcg, low = state["state"], 2**64 - 1
    return np.array([pcg["state"] >> 64, pcg["state"] & low,
                     pcg["inc"] >> 64, pcg["inc"] & low,
                     state["has_uint32"], state["uinteger"]],
                    dtype=np.uint64)

