"""The fast packet-simulation kernel.

:class:`FastEngine` re-implements the legacy object engine
(:mod:`repro.simulation.server` + :class:`Scheduler`) on flat data:

* events live in the struct-of-arrays :class:`~repro.simulation.events.
  EventCalendar` and are dispatched on an integer kind — no callback
  closures, no :class:`EventHandle` objects;
* packets live in the :class:`~repro.simulation.packet.PacketPool`
  columns and travel as integer ids recycled through a free-list;
* every random variate comes from a per-stream
  :class:`~repro.simulation.rng.VariateBuffer`, so the hot loop never
  crosses into numpy one float at a time;
* statistics accumulate in plain Python lists owned by the engine;
  :class:`KernelGatewayStats` / :class:`KernelEndToEndStats` are views
  over them exposing the exact read API of the legacy monitors;
* a FIFO **burst fast path** (:meth:`FastEngine._run_fifo`, a single
  monolithic loop with the calendar, pool, RNG buffers and statistics
  all inlined into locals) services back-to-back departures at a
  gateway without touching the calendar whenever the next completion
  *strictly* precedes every pending event; ties, the preemptive class
  disciplines and Fair Queueing take the general path;
* Fair Queueing keeps the legacy virtual clock and finish tags per
  gateway (:class:`_FairQueueingGateway`), and the drop-from-longest
  buffer policy evicts through :meth:`FastEngine._evict_longest`,
  which runs only on overflow.

Correctness bar: given the same seed, the kernel consumes every random
stream in the same order and performs the same float arithmetic as the
legacy engine, so trajectories are **bit-identical** — for FIFO, Fair
Share, fixed-priority and Fair Queueing, under drop-tail and
drop-from-longest alike (the equivalence tests assert 0 ulp).  The
burst path is exact, not approximate: when the next completion
strictly precedes all pending events, the legacy engine would pop that
completion next anyway, and on a tie the kernel falls back to the
calendar where the fresh completion's later insertion sequence loses
the tie exactly as it would have under the legacy scheduler.

Every configuration ``NetworkSimulation`` accepts runs here; the legacy
engine (``engine="legacy"``) is kept only as the reference these
guarantees are tested against.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.topology import Network
from ..errors import SimulationError
from .events import EventCalendar
from .packet import PacketPool
from .rng import RandomStreams

__all__ = [
    "FastEngine",
    "KernelGatewayStats",
    "KernelEndToEndStats",
    "KernelServerView",
]

# Event kinds (the calendar's integer ``kind`` column).
_EMIT = 0      # a = connection index
_COMPLETE = 1  # a = gateway index
_HANDOFF = 2   # a = packet id, b = next hop index on its path
_SINK = 3      # a = packet id

#: Disciplines the kernel implements: all four of the legacy engine's.
_FAST_DISCIPLINES = ("fifo", "fair-share", "fixed-priority",
                     "fair-queueing")


class KernelGatewayStats:
    """Monitor-compatible view of one gateway's engine-owned statistics.

    Mirrors :class:`~repro.simulation.monitors.GatewayMonitor` method
    for method — same accumulation formulae evaluated scalar-wise (a
    loop of ``integral[j] += count[j] * dt`` is bit-identical to the
    monitor's elementwise ``integral += in_system * dt``), so the fast
    and legacy engines report identical floats.  The data itself lives
    in :class:`FastEngine` parallel lists, which the kernel's inlined
    run loops mutate directly.
    """

    __slots__ = ("_e", "_g", "local_conns_", "pos")

    def __init__(self, engine: "FastEngine", g: int):
        self._e = engine
        self._g = g
        self.local_conns_ = list(engine.local_conns[g])
        self.pos = {conn: k for k, conn in enumerate(self.local_conns_)}

    # -- mutation (the generic engine path) ----------------------------
    def accumulate(self, now: float) -> None:
        e, g = self._e, self._g
        dt = now - e.st_last[g]
        if dt > 0.0:
            count = e.st_count[g]
            integral = e.st_integral[g]
            # Skipping zero counts is bitwise exact: the integral only
            # ever accumulates positive products, so it is never -0.0
            # and adding 0.0 would not change it.
            for j, c in enumerate(count):
                if c:
                    integral[j] += c * dt
            e.st_last[g] = now
        elif dt < 0.0:
            raise SimulationError(
                f"monitor time went backwards: {now} < {e.st_last[g]}")

    def on_arrival(self, conn: int, now: float) -> None:
        self.accumulate(now)
        e, g, pos = self._e, self._g, self.pos[conn]
        e.st_count[g][pos] += 1
        e.st_arrivals[g][pos] += 1

    def on_departure(self, conn: int, now: float) -> None:
        self.accumulate(now)
        e, g, pos = self._e, self._g, self.pos[conn]
        if e.st_count[g][pos] <= 0:
            raise SimulationError(
                f"departure of connection {conn} with empty gateway count")
        e.st_count[g][pos] -= 1
        e.st_departures[g][pos] += 1

    def on_drop(self, conn: int, now: float) -> None:
        self.accumulate(now)
        self._e.st_drops[self._g][self.pos[conn]] += 1

    def on_evict(self, conn: int, now: float) -> None:
        self.accumulate(now)
        e, g, pos = self._e, self._g, self.pos[conn]
        if e.st_count[g][pos] <= 0:
            raise SimulationError(
                f"eviction of connection {conn} with empty gateway count")
        e.st_count[g][pos] -= 1
        if e.st_arrivals[g][pos] > 0:
            e.st_arrivals[g][pos] -= 1
        e.st_drops[g][pos] += 1

    def reset_statistics(self, now: float) -> None:
        self.accumulate(now)
        e, g = self._e, self._g
        n = len(self.local_conns_)
        # In-place so the engine's hoisted list references stay valid.
        e.st_integral[g][:] = [0.0] * n
        e.st_arrivals[g][:] = [0] * n
        e.st_departures[g][:] = [0] * n
        e.st_drops[g][:] = [0] * n
        e.st_start[g] = now
        e.st_last[g] = now

    # -- reads (the GatewayMonitor API) --------------------------------
    def mean_queue_lengths(self, now: float) -> np.ndarray:
        self.accumulate(now)
        e, g = self._e, self._g
        horizon = now - e.st_start[g]
        if horizon <= 0:
            return np.zeros(len(self.local_conns_), dtype=float)
        return np.array([v / horizon for v in e.st_integral[g]],
                        dtype=float)

    def arrival_rates(self, now: float) -> np.ndarray:
        e, g = self._e, self._g
        horizon = now - e.st_start[g]
        if horizon <= 0:
            return np.zeros(len(self.local_conns_), dtype=float)
        return np.array(
            [(a + d) / horizon
             for a, d in zip(e.st_arrivals[g], e.st_drops[g])], dtype=float)

    def drop_fractions(self) -> np.ndarray:
        e, g = self._e, self._g
        return np.array(
            [d / (a + d) if (a + d) > 0 else 0.0
             for a, d in zip(e.st_arrivals[g], e.st_drops[g])], dtype=float)

    @property
    def drops(self) -> np.ndarray:
        return np.array(self._e.st_drops[self._g], dtype=int)

    def aggregate_drop_fraction(self) -> float:
        e, g = self._e, self._g
        offered = sum(e.st_arrivals[g]) + sum(e.st_drops[g])
        if offered == 0:
            return 0.0
        return float(sum(e.st_drops[g])) / offered

    @property
    def local_conns(self) -> List[int]:
        return list(self.local_conns_)

    def occupancy(self) -> np.ndarray:
        return np.array(self._e.st_count[self._g], dtype=int)

    def snapshot(self, now: float) -> Dict[str, object]:
        e, g = self._e, self._g
        return {
            "local_conns": list(self.local_conns_),
            "mean_queue_lengths": [float(q) for q in
                                   self.mean_queue_lengths(now)],
            "arrival_rates": [float(a) for a in self.arrival_rates(now)],
            "drop_fractions": [float(d) for d in self.drop_fractions()],
            "drops": [int(d) for d in e.st_drops[g]],
            "occupancy": [int(c) for c in e.st_count[g]],
            "aggregate_drop_fraction": self.aggregate_drop_fraction(),
            "horizon": float(now - e.st_start[g]),
        }


class KernelEndToEndStats:
    """Monitor-compatible view of the engine's end-to-end tallies.

    The :class:`~repro.simulation.monitors.EndToEndMonitor` read API;
    scalar adds in the kernel are bit-identical to the monitor's
    elementwise updates.
    """

    __slots__ = ("_e",)

    def __init__(self, engine: "FastEngine"):
        self._e = engine

    def on_delivery(self, conn: int, created: float, now: float) -> None:
        e = self._e
        e.e2e_delivered[conn] += 1
        e.e2e_delay[conn] += now - created

    def reset_statistics(self, now: float) -> None:
        e = self._e
        n = len(e.e2e_delivered)
        e.e2e_delivered[:] = [0] * n
        e.e2e_delay[:] = [0.0] * n
        e.e2e_start = now

    def throughput(self, now: float) -> np.ndarray:
        e = self._e
        horizon = now - e.e2e_start
        if horizon <= 0:
            return np.zeros(len(e.e2e_delivered), dtype=float)
        return np.array([c / horizon for c in e.e2e_delivered], dtype=float)

    def mean_delays(self, now: float = 0.0) -> np.ndarray:
        e = self._e
        return np.array(
            [s / c if c > 0 else np.nan
             for c, s in zip(e.e2e_delivered, e.e2e_delay)], dtype=float)

    @property
    def delivered(self) -> np.ndarray:
        return np.array(self._e.e2e_delivered, dtype=int)

    def snapshot(self, now: float) -> Dict[str, object]:
        e = self._e
        delays = self.mean_delays(now)
        return {
            "delivered": [int(d) for d in e.e2e_delivered],
            "throughput": [float(t) for t in self.throughput(now)],
            "mean_delays": [None if np.isnan(d) else float(d)
                            for d in delays],
            "horizon": float(now - e.e2e_start),
        }


class KernelServerView:
    """Read-only :class:`GatewayServer`-shaped view of one kernel gateway."""

    __slots__ = ("name", "mu", "buffer_size", "drop_policy",
                 "_engine", "_g")

    def __init__(self, engine: "FastEngine", g: int):
        self._engine = engine
        self._g = g
        self.name = engine.gw_names[g]
        self.mu = 1.0 / engine.mu_scale[g]
        self.buffer_size = engine.buffer_size[g]
        self.drop_policy = engine.drop_policy

    @property
    def busy(self) -> bool:
        return self._engine.serving[self._g] >= 0

    @property
    def in_system(self) -> int:
        """Waiting packets plus the one in service."""
        return self._engine.in_system_count[self._g]


class _FairQueueingGateway:
    """One gateway's Fair Queueing state over packet ids.

    :class:`~repro.simulation.queues.FairQueueingQueue` with local
    positions for connections and an integer count of backlogged
    positions instead of a recount per call: the same operations in the
    same order, hence the same floats.  ``backlog`` counts a position's
    waiting packets plus the one in service.
    """

    __slots__ = ("heap", "counter", "virtual", "last_update", "finish",
                 "backlog", "active")

    def __init__(self, n_local: int):
        self.heap: list = []  # (finish, counter, pid)
        self.counter = 0
        self.virtual = 0.0
        self.last_update = 0.0
        self.finish = [0.0] * n_local
        self.backlog = [0] * n_local
        self.active = 0

    def advance(self, now: float) -> None:
        if self.active > 0:
            self.virtual += (now - self.last_update) / self.active
        self.last_update = now

    def push(self, pid: int, pos: int, service: float, now: float) -> None:
        self.advance(now)
        finish = max(self.virtual, self.finish[pos]) + service
        self.finish[pos] = finish
        self.counter += 1
        heapq.heappush(self.heap, (finish, self.counter, pid))
        if not self.backlog[pos]:
            self.active += 1
        self.backlog[pos] += 1

    def pop(self, now: float) -> int:
        """The packet with the smallest finish tag, or -1."""
        self.advance(now)
        if not self.heap:
            return -1
        return heapq.heappop(self.heap)[2]

    def release(self, pos: int, now: float) -> None:
        """The packet in service at ``pos`` completed.  When the
        gateway drains, a new busy period starts: the clock and the
        tags reset (the last-update time does not)."""
        self.advance(now)
        self.backlog[pos] -= 1
        if not self.backlog[pos]:
            self.active -= 1
        if not self.heap:
            self.virtual = 0.0
            self.finish[:] = [0.0] * len(self.finish)


class FastEngine:
    """Flat-data discrete-event engine behind ``NetworkSimulation``.

    Replicates the legacy engine's event and random-draw order exactly
    (see the module docstring); everything here is an implementation
    detail of :class:`~repro.simulation.network_sim.NetworkSimulation`,
    which owns validation and the public measurement surface.
    """

    def __init__(self, network: Network, discipline_kind: str,
                 streams: RandomStreams, rates: np.ndarray,
                 buffer_map: Dict[str, Optional[int]], drop_policy: str):
        if discipline_kind not in _FAST_DISCIPLINES:
            raise SimulationError(
                f"unknown discipline {discipline_kind!r}; choose from "
                f"{sorted(_FAST_DISCIPLINES)}")
        gw_names = list(network.gateway_names)
        n_gw = len(gw_names)
        n = network.num_connections
        gw_index = {g: k for k, g in enumerate(gw_names)}

        self.network = network
        self.discipline_kind = discipline_kind
        self.drop_policy = drop_policy
        self.gw_names = gw_names
        self.n_conn = n

        self.local_conns = [list(network.connections_at(g))
                            for g in gw_names]
        self.local_pos = [{c: p for p, c in enumerate(lc)}
                          for lc in self.local_conns]
        # Flat connection -> local-position tables (-1 where foreign):
        # a list index beats a dict hash in the hot loop.
        self.local_pos_flat = [[pos.get(c, -1) for c in range(n)]
                               for pos in self.local_pos]
        self.latency = [float(network.gateway(g).latency) for g in gw_names]
        self.mu_scale = [1.0 / float(network.mu(g)) for g in gw_names]
        self.paths = [[gw_index[g] for g in network.gamma(i)]
                      for i in range(n)]
        self.first_hop = [p[0] for p in self.paths]
        self.path_len = [len(p) for p in self.paths]
        self.buffer_size: List[Optional[int]] = []
        for g in gw_names:
            size = buffer_map.get(g)
            if size is not None and size < 1:
                raise SimulationError(
                    f"gateway {g!r}: buffer size must be >= 1 (room for "
                    f"the packet in service), got {size!r}")
            self.buffer_size.append(size)
        # Sentinel caps (2**62 ~ infinite) make the hot loop's overflow
        # test a single integer comparison.
        self.buffer_cap = [s if s is not None else (1 << 62)
                           for s in self.buffer_size]
        #: Whether an overflow evicts (drop-from-longest with some
        #: finite buffer) instead of refusing the newcomer.
        self.evicts = drop_policy == "longest" and any(
            s is not None for s in self.buffer_size)

        # Queues: one deque per gateway (FIFO), one per priority class
        # (the class-based disciplines never need more classes than
        # local connections), or a finish-tag heap (Fair Queueing).
        self.queues: Optional[List[deque]] = None
        self.cqueues: Optional[List[List[deque]]] = None
        self.fq: Optional[List[_FairQueueingGateway]] = None
        if discipline_kind == "fifo":
            self.queues = [deque() for _ in gw_names]
        elif discipline_kind == "fair-queueing":
            self.fq = [_FairQueueingGateway(len(lc))
                       for lc in self.local_conns]
        else:
            self.cqueues = [[deque() for _ in lc] for lc in self.local_conns]

        # Server state: packet id in service (or -1), its scheduled
        # completion (calendar slot + absolute time), number in system.
        self.serving = [-1] * n_gw
        self.completion_slot = [-1] * n_gw
        self.completion_time = [0.0] * n_gw
        self.in_system_count = [0] * n_gw

        # Buffered random streams — same names, hence same bitstreams,
        # as the legacy engine's scalar draws.
        self.svc_buf = [streams.buffer(f"service:{g}") for g in gw_names]
        self.arr_buf = [streams.buffer(f"arrival:c{i}") for i in range(n)]
        self.thin_buf = ([streams.buffer(f"thinning:{g}") for g in gw_names]
                         if discipline_kind == "fair-share" else None)
        # Prime the exponential buffers: prefetching a block does not
        # change which variate is the k-th draw from a stream, and it
        # lets the hot loop test ``index >= block`` instead of calling
        # ``len`` on the value list.
        for buf in self.svc_buf + self.arr_buf:
            if not buf._values:
                buf._refill("exponential")

        # Statistics (engine-owned parallel lists; the Kernel*Stats
        # views give them the legacy monitors' read API).
        self.st_count = [[0] * len(lc) for lc in self.local_conns]
        self.st_integral = [[0.0] * len(lc) for lc in self.local_conns]
        self.st_arrivals = [[0] * len(lc) for lc in self.local_conns]
        self.st_departures = [[0] * len(lc) for lc in self.local_conns]
        self.st_drops = [[0] * len(lc) for lc in self.local_conns]
        self.st_last = [0.0] * n_gw
        self.st_start = [0.0] * n_gw
        self.e2e_delivered = [0] * n
        self.e2e_delay = [0.0] * n
        self.e2e_start = 0.0
        self.gw_stats = [KernelGatewayStats(self, g) for g in range(n_gw)]
        self.e2e_stats = KernelEndToEndStats(self)

        self.calendar = EventCalendar()
        self.pool = PacketPool()
        self.now = 0.0
        self.events_processed = 0

        # Sources: 1/rate (0.0 marks a silent source), per-connection
        # sequence numbers, and the pending-arrival bookkeeping.  The
        # class disciplines track the pending calendar slot; FIFO
        # instead validates arrival payload entries against a
        # per-connection epoch (bumped on resample), so its hot loop
        # never touches the slot columns at all.
        self.scale = [0.0] * n
        self.seq_counter = [0] * n
        self.pending_slot = [-1] * n
        self.arr_epoch = [0] * n

        # Fair Share thinning tables, per gateway per local position:
        # None => class 0 with no uniform consumed, else
        # (widths, total, fallback_class); rebuilt on rate pushes.
        self.fs_tables: List[list] = [[] for _ in gw_names]
        if discipline_kind == "fair-share":
            self.rebuild_fs_tables(
                [rates[list(lc)].copy() for lc in self.local_conns])

        for i in range(n):
            r = float(rates[i])
            self.scale[i] = 1.0 / r if r > 0.0 else 0.0
            self._schedule_next_arrival(i)

    # ------------------------------------------------------------------
    # sources & rate pushes
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self, conn: int) -> None:
        scale = self.scale[conn]
        if scale <= 0.0:
            self.pending_slot[conn] = -1
            return
        gap = self.arr_buf[conn].next_exponential(scale)
        if self.queues is not None:
            # FIFO: epoch-validated payload entry (no calendar slot).
            cal = self.calendar
            heapq.heappush(cal._heap, (self.now + gap, cal._seq, -1,
                                       _EMIT, conn, self.arr_epoch[conn]))
            cal._seq += 1
        else:
            self.pending_slot[conn] = self.calendar.schedule(
                self.now + gap, _EMIT, conn)

    def resample_arrivals(self, rates: np.ndarray) -> None:
        """Adopt new sending rates; resample every pending arrival
        (exact for Poisson sources by memorylessness — and the same
        per-connection draws the legacy engine makes)."""
        scale = self.scale
        cancel = self.calendar.cancel
        fifo = self.queues is not None
        for i in range(self.n_conn):
            r = float(rates[i])
            scale[i] = 1.0 / r if r > 0.0 else 0.0
            if fifo:
                # Invalidate the pending payload arrival: its epoch no
                # longer matches, so the loop skips it unprocessed.
                self.arr_epoch[i] += 1
            else:
                slot = self.pending_slot[i]
                if slot >= 0:
                    cancel(slot)
            self._schedule_next_arrival(i)

    def rebuild_fs_tables(self,
                          per_gateway_rates: Sequence[np.ndarray]) -> None:
        """Recompute the Fair Share thinning tables from per-gateway
        local rate vectors (oracle push or measured refresh).

        Same numpy pipeline as ``FairShareQueue._classify`` — sort,
        substream widths, total — evaluated once per rate push instead
        of once per packet, so the per-packet walk sees identical
        floats.
        """
        if self.discipline_kind != "fair-share":
            return
        for g, local_rates in enumerate(per_gateway_rates):
            rates = np.asarray(local_rates, dtype=float)
            sorted_rates = np.sort(rates)
            prev = np.concatenate(([0.0], sorted_rates[:-1]))
            table = []
            for p in range(rates.shape[0]):
                own = float(rates[p])
                if own <= 0.0:
                    table.append(None)
                    continue
                widths = np.clip(
                    np.minimum(own, sorted_rates) - prev, 0.0, None)
                total = float(widths.sum())
                if total <= 0.0:
                    table.append(None)
                    continue
                table.append(([float(w) for w in widths], total,
                              int(np.max(np.nonzero(widths)[0]))))
            self.fs_tables[g] = table

    # ------------------------------------------------------------------
    # drop-from-longest eviction (overflow only; both loops)
    # ------------------------------------------------------------------
    def _evict_longest(self, g: int, now: float) -> bool:
        """Make room at the full gateway ``g`` as the legacy
        ``GatewayServer._evict_hog`` does: the connection with the most
        packets here (ties to the lowest local position) loses its most
        recent *waiting* packet.  False when no candidate has one; the
        caller then refuses the arrival."""
        counts = self.st_count[g]
        p_conn = self.pool.conn
        if self.queues is not None:
            queues = (self.queues[g],)
        else:  # class disciplines: lowest-priority class first
            queues = self.cqueues[g][::-1]
        # ``sorted`` is stable, also with ``reverse``.
        for pos in sorted(range(len(counts)), key=counts.__getitem__,
                          reverse=True):
            if counts[pos] <= 0:
                break
            conn = self.local_conns[g][pos]
            for q in queues:
                for idx in range(len(q) - 1, -1, -1):
                    pid = q[idx]
                    if p_conn[pid] == conn:
                        del q[idx]
                        self.gw_stats[g].on_evict(conn, now)
                        self.in_system_count[g] -= 1
                        self.pool.free(pid)
                        return True
        return False

    # ------------------------------------------------------------------
    # general-path event handlers (class disciplines, Fair Queueing)
    # ------------------------------------------------------------------
    def _arrive(self, g: int, pid: int, now: float) -> None:
        """A packet reaches gateway ``g`` — the legacy ``arrive`` order:
        buffer check (evict or drop before any draw), service draw,
        monitor, enqueue, then start or preempt."""
        pool = self.pool
        conn = pool.conn[pid]
        stats = self.gw_stats[g]
        size = self.buffer_size[g]
        if (size is not None and self.in_system_count[g] >= size
                and not (self.evicts and self._evict_longest(g, now))):
            stats.on_drop(conn, now)
            pool.free(pid)
            return
        pool.remaining[pid] = self.svc_buf[g].next_exponential(
            self.mu_scale[g])
        stats.on_arrival(conn, now)
        self.in_system_count[g] += 1

        pos = self.local_pos[g][conn]
        if self.fq is not None:  # non-preemptive: start only if idle
            self.fq[g].push(pid, pos, pool.remaining[pid], now)
            if self.serving[g] < 0:
                self._start_next(g, now)
            return
        # Classify into a priority class.
        if self.thin_buf is not None:  # fair-share thinning
            entry = self.fs_tables[g][pos]
            if entry is None:
                klass = 0
            else:
                widths, total, fallback = entry
                u = self.thin_buf[g].next_uniform() * total
                acc = 0.0
                klass = fallback
                for k, width in enumerate(widths):
                    acc += width
                    if u <= acc:
                        klass = k
                        break
        else:  # fixed-priority: class = local position
            klass = pos
        pool.klass[pid] = klass
        self.cqueues[g][klass].append(pid)
        serving = self.serving[g]
        if serving < 0:
            self._start_next(g, now)
        elif klass < pool.klass[serving]:
            # Preemptive resume: bank the unserved remainder, cancel
            # the stale completion, push the victim back at the front
            # of its class, serve the best head.
            pool.remaining[serving] = max(
                self.completion_time[g] - now, 0.0)
            self.calendar.cancel(self.completion_slot[g])
            self.cqueues[g][pool.klass[serving]].appendleft(serving)
            self.serving[g] = -1
            self.completion_slot[g] = -1
            self._start_next(g, now)

    def _start_next(self, g: int, now: float) -> None:
        pid = -1
        if self.fq is not None:
            pid = self.fq[g].pop(now)
        else:
            for q in self.cqueues[g]:
                if q:
                    pid = q.popleft()
                    break
        if pid < 0:
            self.serving[g] = -1
            self.completion_slot[g] = -1
            return
        self.serving[g] = pid
        t = now + self.pool.remaining[pid]
        self.completion_time[g] = t
        self.completion_slot[g] = self.calendar.schedule(t, _COMPLETE, g)

    def _emit(self, conn: int, now: float) -> None:
        pid = self.pool.alloc(conn, self.seq_counter[conn], now)
        self.seq_counter[conn] += 1
        self._arrive(self.first_hop[conn], pid, now)
        self._schedule_next_arrival(conn)

    def _complete(self, g: int, now: float) -> None:
        """A service completion at gateway ``g`` (general path)."""
        pool = self.pool
        pid = self.serving[g]
        if pid < 0:
            raise SimulationError("completion event with idle server")
        self.serving[g] = -1
        self.completion_slot[g] = -1
        conn = pool.conn[pid]
        if self.fq is not None:
            self.fq[g].release(self.local_pos[g][conn], now)
        self.gw_stats[g].on_departure(conn, now)
        self.in_system_count[g] -= 1
        path = self.paths[conn]
        next_hop = pool.hop[pid] + 1
        if next_hop < len(path):
            self.calendar.schedule(now + self.latency[g], _HANDOFF,
                                   pid, next_hop)
        else:
            self.calendar.schedule(now + self.latency[g], _SINK, pid)
        self._start_next(g, now)

    # ------------------------------------------------------------------
    # main loops
    # ------------------------------------------------------------------
    def run_until(self, t_end: float, max_events: int = 50_000_000) -> None:
        """Process events in time order until ``t_end`` (inclusive);
        the clock then advances to ``t_end`` exactly like the legacy
        :meth:`Scheduler.run_until`."""
        if t_end < self.now:
            raise SimulationError(
                f"t_end {t_end} is before current time {self.now}")
        if self.queues is not None:
            self._run_fifo(t_end, max_events)
        else:
            self._run_general(t_end, max_events)
        self.now = t_end

    def _run_general(self, t_end: float, max_events: int) -> None:
        cal = self.calendar
        heap = cal._heap
        live = cal._live
        free = cal._free
        ev_kind = cal._kind
        ev_a = cal._a
        ev_b = cal._b
        pool = self.pool
        heappop = heapq.heappop
        processed = 0
        try:
            while heap:
                time, _, slot = heap[0]
                if not live[slot]:
                    heappop(heap)
                    free.append(slot)
                    continue
                if time > t_end:
                    break
                heappop(heap)
                kind = ev_kind[slot]
                a = ev_a[slot]
                b = ev_b[slot]
                live[slot] = 0
                free.append(slot)
                self.now = time
                processed += 1
                if kind == _COMPLETE:
                    self._complete(a, time)
                elif kind == _EMIT:
                    self._emit(a, time)
                elif kind == _HANDOFF:
                    pool.hop[a] = b
                    self._arrive(self.paths[pool.conn[a]][b], a, time)
                else:  # _SINK
                    self.e2e_stats.on_delivery(pool.conn[a],
                                               pool.created[a], time)
                    pool.free(a)
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events before t={t_end}; "
                        f"runaway simulation?")
        finally:
            self.events_processed += processed


    def _run_fifo(self, t_end: float, max_events: int) -> None:
        """The FIFO hot loop: every data structure inlined into locals.

        In FIFO mode *every* event rides the heap as a self-describing
        payload tuple ``(time, seq, -1, kind, a[, b])`` — the slot
        columns are bypassed entirely.  That is possible because FIFO's
        only cancellable events are source arrivals, and those are
        invalidated by bumping the connection's epoch
        (``resample_arrivals``) rather than by clearing a slot's
        liveness flag; a stale arrival is skipped, uncounted, when it
        surfaces.  The burst branch in the COMPLETE case absorbs a
        departure chain without any heap traffic whenever the next
        completion strictly precedes every pending event — exactly the
        events the legacy scheduler would pop next anyway.
        """
        cal = self.calendar
        heap = cal._heap
        seq = cal._seq
        pool = self.pool
        p_conn = pool.conn
        p_seq = pool.seq
        p_created = pool.created
        p_hop = pool.hop
        p_rem = pool.remaining
        p_free = pool._free
        heappop = heapq.heappop
        heappush = heapq.heappush

        paths = self.paths
        path_len = self.path_len
        first_hop = self.first_hop
        latency = self.latency
        mu_scale = self.mu_scale
        buffer_cap = self.buffer_cap
        queues = self.queues
        serving = self.serving
        in_sys = self.in_system_count
        svc_buf = self.svc_buf
        arr_buf = self.arr_buf
        scale = self.scale
        arr_epoch = self.arr_epoch
        pos_flat = self.local_pos_flat
        st_count = self.st_count
        st_integral = self.st_integral
        st_arrivals = self.st_arrivals
        st_departures = self.st_departures
        st_drops = self.st_drops
        st_last = self.st_last
        e2e_delivered = self.e2e_delivered
        e2e_delay = self.e2e_delay

        now = self.now
        processed = 0
        # One-gateway cache: most events hit the same gateway as their
        # predecessor (always, on single-gateway topologies), so the
        # per-gateway structure lookups are reloaded only on a gateway
        # switch.  ``serving``/``in_sys``/``st_last`` mutate per event
        # and stay list-indexed.
        cg = -1
        c_q = c_cnt = c_integ = c_deps = c_arrs = c_drops = c_pos = None
        c_svc = None
        c_lat = c_mu = 0.0
        c_cap = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > t_end:
                    break
                heappop(heap)
                kind = entry[3]
                a = entry[4]

                if kind == _EMIT:
                    conn = a
                    if entry[5] != arr_epoch[conn]:
                        continue  # arrival cancelled by a rate change
                    now = time
                    processed += 1
                    # packet allocation (inlined pool.alloc; the
                    # diagnostic ``seq`` column is not maintained here)
                    if p_free:
                        pid = p_free.pop()
                        p_conn[pid] = conn
                        p_created[pid] = now
                        p_hop[pid] = 0
                    else:
                        pid = len(p_conn)
                        p_conn.append(conn)
                        p_seq.append(0)
                        p_created.append(now)
                        p_hop.append(0)
                        p_rem.append(0.0)
                        pool.klass.append(0)
                    g = first_hop[conn]
                    if g != cg:
                        cg = g
                        c_q = queues[g]
                        c_lat = latency[g]
                        c_cnt = st_count[g]
                        c_integ = st_integral[g]
                        c_deps = st_departures[g]
                        c_arrs = st_arrivals[g]
                        c_drops = st_drops[g]
                        c_pos = pos_flat[g]
                        c_svc = svc_buf[g]
                        c_mu = mu_scale[g]
                        c_cap = buffer_cap[g]
                    # --- arrive at g (inlined; on overflow, evict or
                    # refuse) ---
                    if in_sys[g] >= c_cap and not (
                            self.evicts and self._evict_longest(g, now)):
                        dt = now - st_last[g]
                        if dt > 0.0:
                            for j, c in enumerate(c_cnt):
                                if c:
                                    c_integ[j] += c * dt
                            st_last[g] = now
                        c_drops[c_pos[conn]] += 1
                        p_free.append(pid)
                    else:
                        i = c_svc._index
                        vals = c_svc._values
                        if i >= c_svc._block:
                            c_svc._refill("exponential")
                            vals = c_svc._values
                            i = 0
                        c_svc._index = i + 1
                        p_rem[pid] = c_mu * vals[i]
                        dt = now - st_last[g]
                        if dt > 0.0:
                            if in_sys[g]:  # all counts zero when empty
                                for j, c in enumerate(c_cnt):
                                    if c:
                                        c_integ[j] += c * dt
                            st_last[g] = now
                        pos = c_pos[conn]
                        c_cnt[pos] += 1
                        c_arrs[pos] += 1
                        in_sys[g] += 1
                        if serving[g] < 0:
                            serving[g] = pid
                            heappush(heap, (now + p_rem[pid], seq, -1,
                                            _COMPLETE, g))
                            seq += 1
                        else:
                            c_q.append(pid)
                    # --- schedule the next arrival of conn
                    # (epoch-validated payload; a rate change cancels
                    # it by bumping the connection's epoch) ---
                    buf = arr_buf[conn]
                    i = buf._index
                    vals = buf._values
                    if i >= buf._block:
                        buf._refill("exponential")
                        vals = buf._values
                        i = 0
                    buf._index = i + 1
                    heappush(heap, (now + scale[conn] * vals[i], seq, -1,
                                    _EMIT, conn, arr_epoch[conn]))
                    seq += 1

                elif kind == _COMPLETE:
                    now = time
                    processed += 1
                    g = a
                    if g != cg:
                        cg = g
                        c_q = queues[g]
                        c_lat = latency[g]
                        c_cnt = st_count[g]
                        c_integ = st_integral[g]
                        c_deps = st_departures[g]
                        c_arrs = st_arrivals[g]
                        c_drops = st_drops[g]
                        c_pos = pos_flat[g]
                        c_svc = svc_buf[g]
                        c_mu = mu_scale[g]
                        c_cap = buffer_cap[g]
                    while True:
                        pid = serving[g]
                        if pid < 0:
                            raise SimulationError(
                                "completion event with idle server")
                        conn = p_conn[pid]
                        # departure statistics (inlined accumulate)
                        dt = now - st_last[g]
                        if dt > 0.0:
                            for j, c in enumerate(c_cnt):
                                if c:
                                    c_integ[j] += c * dt
                            st_last[g] = now
                        pos = c_pos[conn]
                        c_cnt[pos] -= 1
                        c_deps[pos] += 1
                        in_sys[g] -= 1
                        # forward (payload: handoff or sink)
                        h = p_hop[pid] + 1
                        t = now + c_lat
                        if h < path_len[conn]:
                            heappush(heap, (t, seq, -1, _HANDOFF, pid, h))
                            seq += 1
                        elif t <= t_end:
                            # Eager delivery: a sink only touches its
                            # connection's end-to-end counters, so it
                            # commutes with every other event — process
                            # it here (same timestamp arithmetic, same
                            # per-connection accumulation order) and
                            # skip the heap round-trip entirely.
                            e2e_delivered[conn] += 1
                            e2e_delay[conn] += t - p_created[pid]
                            p_free.append(pid)
                            processed += 1
                        else:
                            heappush(heap, (t, seq, -1, _SINK, pid))
                            seq += 1
                        # next in FIFO order
                        if not c_q:
                            serving[g] = -1
                            break
                        nxt = c_q.popleft()
                        serving[g] = nxt
                        t_next = now + p_rem[nxt]
                        # burst: absorb the next completion without
                        # heap traffic when it strictly precedes every
                        # pending event.
                        if t_next <= t_end and processed < max_events:
                            if not heap or t_next < heap[0][0]:
                                now = t_next
                                processed += 1
                                continue
                        heappush(heap, (t_next, seq, -1, _COMPLETE, g))
                        seq += 1
                        break

                elif kind == _HANDOFF:
                    now = time
                    processed += 1
                    pid = a
                    conn = p_conn[pid]
                    b = entry[5]
                    p_hop[pid] = b
                    g = paths[conn][b]
                    if g != cg:
                        cg = g
                        c_q = queues[g]
                        c_lat = latency[g]
                        c_cnt = st_count[g]
                        c_integ = st_integral[g]
                        c_deps = st_departures[g]
                        c_arrs = st_arrivals[g]
                        c_drops = st_drops[g]
                        c_pos = pos_flat[g]
                        c_svc = svc_buf[g]
                        c_mu = mu_scale[g]
                        c_cap = buffer_cap[g]
                    # --- arrive at g (inlined, same as EMIT's) ---
                    if in_sys[g] >= c_cap and not (
                            self.evicts and self._evict_longest(g, now)):
                        dt = now - st_last[g]
                        if dt > 0.0:
                            for j, c in enumerate(c_cnt):
                                if c:
                                    c_integ[j] += c * dt
                            st_last[g] = now
                        c_drops[c_pos[conn]] += 1
                        p_free.append(pid)
                    else:
                        i = c_svc._index
                        vals = c_svc._values
                        if i >= c_svc._block:
                            c_svc._refill("exponential")
                            vals = c_svc._values
                            i = 0
                        c_svc._index = i + 1
                        p_rem[pid] = c_mu * vals[i]
                        dt = now - st_last[g]
                        if dt > 0.0:
                            if in_sys[g]:  # all counts zero when empty
                                for j, c in enumerate(c_cnt):
                                    if c:
                                        c_integ[j] += c * dt
                            st_last[g] = now
                        pos = c_pos[conn]
                        c_cnt[pos] += 1
                        c_arrs[pos] += 1
                        in_sys[g] += 1
                        if serving[g] < 0:
                            serving[g] = pid
                            heappush(heap, (now + p_rem[pid], seq, -1,
                                            _COMPLETE, g))
                            seq += 1
                        else:
                            c_q.append(pid)

                else:  # _SINK
                    now = time
                    processed += 1
                    pid = a
                    conn = p_conn[pid]
                    e2e_delivered[conn] += 1
                    e2e_delay[conn] += now - p_created[pid]
                    p_free.append(pid)

                if processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events before t={t_end}; "
                        f"runaway simulation?")
        finally:
            self.now = now
            self.events_processed += processed
            cal._seq = seq
