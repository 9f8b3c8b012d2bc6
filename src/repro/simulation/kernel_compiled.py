"""The compiled packet engine: the kernel's event loop in C.

:class:`CompiledEngine` is a :class:`~repro.simulation.kernel.
FastEngine` whose events run inside the runtime-compiled C library
from :mod:`repro.backends._cext`, for every discipline and drop policy
``FastEngine`` runs.  ``NetworkSimulation`` picks it for
``engine="auto"`` (and its synonym ``"compiled"``) whenever the C tier
has built (:meth:`CompiledEngine.serves`); otherwise the Python loop
of ``FastEngine`` runs, with the same bits.

Bit-identity is by construction, not accident:

* the C loop is a statement-for-statement transcription of
  ``_run_general`` (same drop-before-draw order, same statistics
  accumulation order, same sink rule; for the class disciplines the
  same thinning walk, banked remainder on preemption and push order;
  for Fair Queueing the same virtual-clock arithmetic and finish-tag
  order) and of ``_evict_longest`` for drop-from-longest, compiled
  with FMA contraction disabled.  FIFO, the one-class case, runs in a
  branch of its own whose completions absorb a gateway's departure
  chain while the next completion strictly precedes every pending
  event: the heap would pop exactly those events next, so the branch
  saves heap traffic and changes no event, count or float;
* heap entries are ordered by the unique key ``(time, seq)``, so any
  valid binary min-heap — python's ``heapq`` array or the C one — pops
  the identical event sequence;
* random variates never cross the language boundary as state: the C
  loop reads the :class:`~repro.simulation.rng.VariateRows` rows and
  *yields back to Python* before any event whose draws would exhaust a
  row, so the generator objects (and hence the exact bitstream, shared
  with the Python loop) advance only via ``refill``.

Nothing is marshalled per call.  The C state lives as long as the
engine: it keeps pointers to the engine's numpy arrays (constants,
per-gateway and per-connection state, Fair Share tables, variate rows),
which the :class:`~repro.simulation.kernel.KernelGatewayStats` and
:class:`~repro.simulation.kernel.KernelEndToEndStats` views read
directly, and it owns the event heap, the packet pool, the queue
chains and the Fair Queueing heaps and clocks.  A ``run_until`` is one
C call plus one per row refill.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..backends import _cext, compiled
from ..errors import SimulationError
from .kernel import FastEngine, fair_share_table
from .rng import RandomStreams, VariateRows

__all__ = ["CompiledEngine"]

_DISCIPLINES = {"fifo": _cext.D_FIFO, "fair-share": _cext.D_FAIR_SHARE,
                "fixed-priority": _cext.D_PRIORITY,
                "fair-queueing": _cext.D_FAIR_QUEUEING}


class CompiledEngine(FastEngine):
    """FastEngine with its event loop in compiled C."""

    @staticmethod
    def serves() -> bool:
        """Whether the C loop has built; it serves every configuration
        ``FastEngine`` runs."""
        return compiled.packet_lib() is not None

    def _build_state(self, streams: RandomStreams) -> None:
        lib = compiled.packet_lib()
        compiled.warmup()
        i8, f8 = np.int64, np.float64
        n_gw = len(self.gw_names)
        n = self.n_conn
        sizes = [len(lc) for lc in self.local_conns]
        gw_ptr = np.zeros(n_gw + 1, i8)
        gw_ptr[1:] = np.cumsum(sizes)
        fs_ptr = np.zeros(n_gw + 1, i8)
        fs_ptr[1:] = np.cumsum([k * k for k in sizes])
        path_ptr = np.zeros(n + 1, i8)
        path_ptr[1:] = np.cumsum([len(p) for p in self.paths])
        n_local = int(gw_ptr[-1])
        # Sentinel caps (2**62 ~ infinite; no larger size can fill)
        # make the overflow test one int64 comparison.
        buffer_cap = [(1 << 62) if size is None else min(size, 1 << 62)
                      for size in self.buffer_size]
        # Connection -> local position at each gateway, -1 where foreign.
        pos_flat = [pos.get(c, -1) for pos in self.local_pos
                    for c in range(n)]

        def rows(flat):
            return [flat[gw_ptr[g]:gw_ptr[g + 1]] for g in range(n_gw)]

        # State the Python side reads (the stats and server views) or
        # writes (resets, Fair Share tables); the C loop mutates it in
        # place through the pointers packet_new keeps.
        self.serving = np.full(n_gw, -1, i8)
        self.in_system_count = np.zeros(n_gw, i8)
        self.st_last = np.zeros(n_gw, f8)
        self._st_integral = np.zeros(n_local, f8)
        self._st_counts = np.zeros((4, n_local), i8)
        self.st_integral = rows(self._st_integral)
        self.st_count, self.st_arrivals, self.st_departures, \
            self.st_drops = (rows(c) for c in self._st_counts)
        self.e2e_delivered = np.zeros(n, i8)
        self.e2e_delay = np.zeros(n, f8)
        self.scale = np.zeros(n, f8)
        self.arr_epoch = np.zeros(n, i8)
        self._fs_widths = np.zeros(max(int(fs_ptr[-1]), 1), f8)
        self._fs_total = np.zeros(max(n_local, 1), f8)
        self._fs_fallback = np.full(max(n_local, 1), -1, i8)
        self._gw_ptr = gw_ptr
        self._fs_ptr = fs_ptr
        self._regs = np.zeros(2, i8)

        names = ([f"service:{g}" for g in self.gw_names]
                 + [f"arrival:c{i}" for i in range(n)])
        if self.discipline_kind == "fair-share":
            names += [f"thinning:{g}" for g in self.gw_names]
        self._rows = VariateRows(
            [streams.stream(name) for name in names],
            [not name.startswith("thinning:") for name in names])

        # Constants, kept alive beside the pointers the C state holds.
        self._consts = (
            np.asarray(self.latency, f8), np.asarray(self.mu_scale, f8),
            np.asarray(buffer_cap, i8), np.asarray(pos_flat, i8),
            np.asarray(self.first_hop, i8), gw_ptr, path_ptr,
            np.asarray([g for p in self.paths for g in p], i8), fs_ptr)
        state = (self.scale, self.arr_epoch, self.serving,
                 self.in_system_count, self.st_last, self._st_integral,
                 *self._st_counts, self.e2e_delivered, self.e2e_delay,
                 self._fs_widths, self._fs_total, self._fs_fallback,
                 self._rows.values, self._rows.index, self._regs)
        handle = lib.packet_new(
            n_gw, n, self._rows.values.shape[1],
            _DISCIPLINES[self.discipline_kind], int(self.evicts),
            *(compiled._addr(a) for a in self._consts + state))
        if not handle:
            raise MemoryError("compiled packet loop ran out of memory")
        self._lib = lib
        self._handle = handle
        weakref.finalize(self, lib.packet_free, handle)

    # -- sources & rate pushes ------------------------------------------
    def resample_arrivals(self, rates: np.ndarray) -> None:
        # Each source draws at most one variate: refill its spent row.
        rows = self._rows
        first = len(self.gw_names)
        spent = rows.index[first:first + self.n_conn] >= rows.values.shape[1]
        for i in np.flatnonzero(spent):
            rows.refill(first + int(i))
        rates = np.ascontiguousarray(rates, dtype=np.float64)
        self._check(self._lib.packet_resample(self._handle, self.now,
                                              compiled._addr(rates)))

    def rebuild_fs_tables(self, per_gateway_rates) -> None:
        if self.discipline_kind != "fair-share":
            return
        for g, local_rates in enumerate(per_gateway_rates):
            base = int(self._gw_ptr[g])
            nloc = int(self._gw_ptr[g + 1]) - base
            at = int(self._fs_ptr[g])
            for p, entry in enumerate(fair_share_table(local_rates)):
                if entry is None:
                    self._fs_fallback[base + p] = -1
                    continue
                widths, total, fallback = entry
                self._fs_widths[at + p * nloc:at + (p + 1) * nloc] = widths
                self._fs_total[base + p] = total
                self._fs_fallback[base + p] = fallback

    # -- the compiled loop ---------------------------------------------
    def run_until(self, t_end: float, max_events: int = 50_000_000) -> None:
        if t_end < self.now:
            raise SimulationError(
                f"t_end {t_end} is before current time {self.now}")
        lib, handle, regs, rows = self._lib, self._handle, self._regs, \
            self._rows
        regs[0] = 0
        status = lib.packet_run(handle, t_end, max_events)
        while status == _cext.ST_REFILL:
            rows.refill(int(regs[1]))
            status = lib.packet_run(handle, t_end, max_events)
        self.events_processed += int(regs[0])
        if status != _cext.ST_DONE:
            self.now = lib.packet_now(handle)
            if status == _cext.ST_MAX_EVENTS:
                raise SimulationError(
                    f"exceeded {max_events} events before t={t_end}; "
                    f"runaway simulation?")
            self._check(status)
        self.now = t_end

    def _check(self, status: int) -> None:
        if status == _cext.ST_IDLE_SERVER:
            raise SimulationError("completion event with idle server")
        if status == _cext.ST_NONFINITE:
            # EventCalendar.push's wording, so both loops read alike.
            bad = self._lib.packet_bad_time(self._handle)
            raise SimulationError(f"event time must be finite, got {bad!r}")
        if status == _cext.ST_OOM:
            raise MemoryError("compiled packet loop ran out of memory")
