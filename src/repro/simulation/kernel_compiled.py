"""Compiled FIFO engine: ``NetworkSimulation(engine="compiled")``.

:class:`CompiledFifoEngine` is a :class:`~repro.simulation.kernel.
FastEngine` whose ``_run_fifo`` executes inside the runtime-compiled C
library from :mod:`repro.backends._cext` instead of the Python
bytecode loop.  Everything else — construction, rate pushes, the
general loop (class disciplines, Fair Queueing), the measurement
surface — is inherited unchanged, and when the C library is unavailable (no
compiler, failed build) every call falls back to the inherited Python
loop, so ``engine="compiled"`` degrades gracefully to ``engine="fast"``
behaviour with identical results.  The C loop has no drop-from-longest
eviction, so a configuration that evicts also runs the Python loop.

Bit-identity is by construction, not accident:

* the C loop is a statement-for-statement transcription of
  ``_run_fifo`` (same drop-before-draw order, same statistics
  accumulation order, same eager-sink and burst-absorption branches),
  compiled with FMA contraction disabled;
* heap entries are ordered by the unique key ``(time, seq)``, so any
  valid binary min-heap — python's ``heapq`` array or the C one —
  pops the identical event sequence, and the array handed back is a
  valid ``heapq`` heap for the next Python-side push;
* random variates never cross the language boundary as state: the C
  loop consumes the pre-drawn :class:`~repro.simulation.rng.
  VariateBuffer` blocks and *yields back to Python* before any event
  whose draws would exhaust a block, so the generator objects (and
  hence the exact bitstream, shared with the legacy and fast engines)
  advance only via the normal ``_refill`` path.

The marshal cost is O(state size) per ``run_until`` call — amortised
over the thousands-to-millions of events a call processes.
"""

from __future__ import annotations

import numpy as np

from ..backends import _cext, compiled
from ..errors import SimulationError
from .kernel import _EMIT, _HANDOFF, FastEngine

__all__ = ["CompiledFifoEngine"]


class CompiledFifoEngine(FastEngine):
    """FastEngine with the FIFO hot loop in compiled C."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Times a ``_run_fifo`` call fell back to the Python loop.
        self.fifo_fallbacks = 0
        # Resolve (and if necessary build) the library once up front
        # so compile time lands in construction, not the first run.
        self._lib = compiled.fifo_lib()
        compiled.warmup()

    # -- the compiled hot loop -----------------------------------------
    def _run_fifo(self, t_end: float, max_events: int) -> None:
        lib = self._lib
        bufs = self.svc_buf + self.arr_buf
        block = bufs[0]._block if bufs else 0
        if (lib is None or block <= 0 or self.evicts
                or any(b._block != block or len(b._values) != block
                       for b in bufs)):
            self.fifo_fallbacks += 1
            return super()._run_fifo(t_end, max_events)

        i8, f8 = np.int64, np.float64
        n_gw = len(self.gw_names)
        n = self.n_conn
        pool = self.pool
        cal = self.calendar

        # ---- fixed-size state: numpy buffers the C loop mutates ----
        latency = np.asarray(self.latency, f8)
        mu_scale = np.asarray(self.mu_scale, f8)
        buffer_cap = np.asarray(self.buffer_cap, i8)
        pos_flat = np.asarray(self.local_pos_flat, i8).reshape(-1)
        first_hop = np.asarray(self.first_hop, i8)
        gw_ptr = np.zeros(n_gw + 1, i8)
        gw_ptr[1:] = np.cumsum([len(lc) for lc in self.local_conns])
        path_ptr = np.zeros(n + 1, i8)
        path_ptr[1:] = np.cumsum(self.path_len)
        path_arr = np.asarray(
            [g for p in self.paths for g in p], i8)
        serving = np.asarray(self.serving, i8)
        in_sys = np.asarray(self.in_system_count, i8)
        arr_epoch = np.asarray(self.arr_epoch, i8)
        st_last = np.asarray(self.st_last, f8)
        st_integral = np.asarray(
            [x for row in self.st_integral for x in row], f8)
        st_count = np.asarray(
            [x for row in self.st_count for x in row], i8)
        st_arrivals = np.asarray(
            [x for row in self.st_arrivals for x in row], i8)
        st_departures = np.asarray(
            [x for row in self.st_departures for x in row], i8)
        st_drops = np.asarray(
            [x for row in self.st_drops for x in row], i8)
        e2e_delivered = np.asarray(self.e2e_delivered, i8)
        e2e_delay = np.asarray(self.e2e_delay, f8)
        scale = np.asarray(self.scale, f8)

        # ---- queues as intrusive chains over packet ids ----
        pool_len = len(pool.conn)
        q_head = np.full(n_gw, -1, i8)
        q_tail = np.full(n_gw, -1, i8)
        q_next = np.full(max(pool_len, 1), -1, i8)
        for g, dq in enumerate(self.queues):
            prev = -1
            for pid in dq:
                if prev < 0:
                    q_head[g] = pid
                else:
                    q_next[prev] = pid
                prev = pid
            q_tail[g] = prev

        # ---- RNG blocks (values only; generators stay in Python) ----
        rng_vals = np.empty((len(bufs), block), f8)
        rng_idx = np.empty(len(bufs), i8)
        for s_i, buf in enumerate(bufs):
            rng_vals[s_i, :] = buf._values
            rng_idx[s_i] = buf._index

        # ---- event heap and packet pool, column form ----
        hp = cal._heap
        hl = len(hp)
        h_time = np.empty(hl, f8)
        h_seq = np.empty(hl, i8)
        h_kind = np.empty(hl, i8)
        h_a = np.empty(hl, i8)
        h_b = np.empty(hl, i8)
        for j, e in enumerate(hp):
            h_time[j] = e[0]
            h_seq[j] = e[1]
            h_kind[j] = e[3]
            h_a[j] = e[4]
            h_b[j] = e[5] if len(e) > 5 else -1
        p_conn = np.asarray(pool.conn, i8)
        p_created = np.asarray(pool.created, f8)
        p_hop = np.asarray(pool.hop, i8)
        p_rem = np.asarray(pool.remaining, f8)
        p_free = np.asarray(pool._free, i8)

        handle = lib.fifo_enter(
            n_gw, n, block, float(t_end), int(max_events),
            float(self.now), int(cal._seq),
            latency.ctypes.data, mu_scale.ctypes.data,
            buffer_cap.ctypes.data,
            pos_flat.ctypes.data, first_hop.ctypes.data,
            gw_ptr.ctypes.data, path_ptr.ctypes.data,
            path_arr.ctypes.data,
            serving.ctypes.data, in_sys.ctypes.data,
            arr_epoch.ctypes.data,
            st_last.ctypes.data, st_integral.ctypes.data,
            st_count.ctypes.data, st_arrivals.ctypes.data,
            st_departures.ctypes.data, st_drops.ctypes.data,
            e2e_delivered.ctypes.data, e2e_delay.ctypes.data,
            q_head.ctypes.data, q_tail.ctypes.data,
            q_next.ctypes.data,
            scale.ctypes.data, rng_vals.ctypes.data,
            rng_idx.ctypes.data,
            h_time.ctypes.data, h_seq.ctypes.data,
            h_kind.ctypes.data, h_a.ctypes.data, h_b.ctypes.data, hl,
            p_conn.ctypes.data, p_created.ctypes.data,
            p_hop.ctypes.data, p_rem.ctypes.data, pool_len,
            p_free.ctypes.data, len(pool._free))
        if not handle:
            self.fifo_fallbacks += 1
            return super()._run_fifo(t_end, max_events)

        try:
            with compiled.metrics().timer("run.fifo").time():
                status = lib.fifo_run(handle)
                while status == _cext.ST_REFILL:
                    s_i = int(lib.fifo_need_stream(handle))
                    buf = bufs[s_i]
                    buf._refill("exponential")
                    rng_vals[s_i, :] = buf._values
                    rng_idx[s_i] = 0
                    status = lib.fifo_run(handle)

            # ---- sync back (the `finally` contract of _run_fifo) ----
            self.now = float(lib.fifo_now(handle))
            self.events_processed += int(lib.fifo_processed(handle))
            cal._seq = int(lib.fifo_seq(handle))
            self.serving[:] = serving.tolist()
            self.in_system_count[:] = in_sys.tolist()
            self.st_last[:] = st_last.tolist()
            for g in range(n_gw):
                s0, s1 = int(gw_ptr[g]), int(gw_ptr[g + 1])
                self.st_count[g][:] = st_count[s0:s1].tolist()
                self.st_integral[g][:] = st_integral[s0:s1].tolist()
                self.st_arrivals[g][:] = st_arrivals[s0:s1].tolist()
                self.st_departures[g][:] = \
                    st_departures[s0:s1].tolist()
                self.st_drops[g][:] = st_drops[s0:s1].tolist()
            self.e2e_delivered[:] = e2e_delivered.tolist()
            self.e2e_delay[:] = e2e_delay.tolist()
            for s_i, buf in enumerate(bufs):
                buf._index = int(rng_idx[s_i])

            hl2 = int(lib.fifo_heap_len(handle))
            pl2 = int(lib.fifo_pool_len(handle))
            fl2 = int(lib.fifo_free_len(handle))
            ht2 = np.empty(hl2, f8)
            hs2 = np.empty(hl2, i8)
            hk2 = np.empty(hl2, i8)
            ha2 = np.empty(hl2, i8)
            hb2 = np.empty(hl2, i8)
            pc2 = np.empty(pl2, i8)
            pcr2 = np.empty(pl2, f8)
            php2 = np.empty(pl2, i8)
            prm2 = np.empty(pl2, f8)
            pf2 = np.empty(fl2, i8)
            qn2 = np.empty(pl2, i8)
            lib.fifo_extract(
                handle, ht2.ctypes.data, hs2.ctypes.data,
                hk2.ctypes.data, ha2.ctypes.data, hb2.ctypes.data,
                pc2.ctypes.data, pcr2.ctypes.data, php2.ctypes.data,
                prm2.ctypes.data, pf2.ctypes.data, qn2.ctypes.data)
            # Heap entries reconstructed by kind: EMIT carries its
            # epoch and HANDOFF its hop (6-tuples); COMPLETE/SINK are
            # 5-tuples.  The C array satisfies the binary-heap
            # invariant, so it is a valid heapq list as-is.
            tl, sl = ht2.tolist(), hs2.tolist()
            kl, al, bl = hk2.tolist(), ha2.tolist(), hb2.tolist()
            new_heap = []
            for j in range(hl2):
                k = kl[j]
                if k == _EMIT or k == _HANDOFF:
                    new_heap.append((tl[j], sl[j], -1, k, al[j],
                                     bl[j]))
                else:
                    new_heap.append((tl[j], sl[j], -1, k, al[j]))
            cal._heap[:] = new_heap
            pool.conn[:] = pc2.tolist()
            pool.created[:] = pcr2.tolist()
            pool.hop[:] = php2.tolist()
            pool.remaining[:] = prm2.tolist()
            if pl2 > len(pool.seq):
                # the hot loop does not maintain the diagnostic
                # seq/klass columns; grown slots get the same zeros
                # the Python loop appends
                pool.seq.extend([0] * (pl2 - len(pool.seq)))
                pool.klass.extend([0] * (pl2 - len(pool.klass)))
            pool._free[:] = pf2.tolist()
            qh2 = q_head.tolist()
            qn_list = qn2.tolist()
            for g, dq in enumerate(self.queues):
                dq.clear()
                pid = qh2[g]
                while pid >= 0:
                    dq.append(pid)
                    pid = qn_list[pid]
        finally:
            lib.fifo_release(handle)

        if status == _cext.ST_MAX_EVENTS:
            raise SimulationError(
                f"exceeded {max_events} events before t={t_end}; "
                f"runaway simulation?")
        if status == _cext.ST_IDLE_SERVER:
            raise SimulationError("completion event with idle server")
        if status == _cext.ST_OOM:
            raise MemoryError("compiled FIFO kernel ran out of memory")
