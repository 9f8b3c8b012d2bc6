"""The packet-simulation kernel.

:class:`FastEngine` runs the network on flat data:

* events are ``(time, seq, kind, a, b)`` tuples on the
  :class:`~repro.simulation.events.EventCalendar` heap, dispatched on
  an integer kind.  Nothing is cancelled: a source arrival carries its
  source's epoch, which a rate change bumps, and a completion its
  gateway's completion epoch, which a preemption bumps; the loops skip
  an event whose epoch is stale, uncounted;
* packets live in the :class:`~repro.simulation.packet.PacketPool`
  columns and travel as integer ids recycled through a free-list;
* every random variate comes from a per-stream
  :class:`~repro.simulation.rng.VariateBuffer`, so the hot loop never
  crosses into numpy one float at a time;
* statistics accumulate in plain Python lists owned by the engine;
  :class:`KernelGatewayStats` / :class:`KernelEndToEndStats` are the
  per-gateway and end-to-end read API over them;
* one event loop, :meth:`FastEngine._run_general`, serves every
  discipline.  Fair Share and fixed priority keep one queue per
  priority class and preempt with resume; FIFO is their one-class
  case (one queue per gateway, so an arrival never outranks the packet
  in service); Fair Queueing keeps a virtual clock and finish tags per
  gateway (:class:`_FairQueueingGateway`).  The drop-from-longest
  buffer policy evicts through :meth:`FastEngine._evict_longest`,
  which runs only on overflow;
* the sink rule: a completion that sends its packet off its last hop
  with the delivery due by the run's horizon (``now + latency <=
  t_end``) delivers it there, counted as an event, instead of pushing
  a sink event.  A delivery touches nothing but its connection's
  end-to-end tallies and the free-list, so no other event sees the
  difference, and the run ends with the same deliveries.  Only the
  order of a connection's delay sum can differ from sink-time order:
  a sink pushed past one run's horizon is added after a packet the
  next run delivers at its completion.

Every configuration ``NetworkSimulation`` accepts runs here.
:class:`~repro.simulation.kernel_compiled.CompiledEngine` runs the same
loop in C, for every configuration, with the same bits.  What the two
loops share (the queueing disciplines, preemptive resume, Fair Share
thinning, buffer accounting) answers to queueing theory instead: at a
single gateway the paper's queue laws and M/M/1/K blocking hold
exactly, and with infinite buffers the four disciplines keep it busy
over the same intervals (``tests/integration/test_queue_laws.py``).
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

# Event kinds: the ``kind`` of a ``(time, seq, kind, a, b)`` heap entry.
_EMIT = 0      # a = connection index, b = the source's epoch
_COMPLETE = 1  # a = gateway index, b = the gateway's completion epoch
_HANDOFF = 2   # a = packet id, b = next hop index on its path
_SINK = 3      # a = packet id, b = 0

#: Disciplines the kernel implements.
_FAST_DISCIPLINES = ("fifo", "fair-share", "fixed-priority",
                     "fair-queueing")


class KernelGatewayStats:
    """One gateway's monitor: a view of its engine-owned statistics.

    Per local connection: the time integral of the number in the
    gateway (waiting plus in service), arrivals, departures and drops
    since the last reset.  The data itself lives in :class:`FastEngine`
    parallel lists, which the Python loop mutates through the methods
    here and the C loop through pointers.
    """

    __slots__ = ("_e", "_g", "local_conns_", "pos")

    def __init__(self, engine: "FastEngine", g: int):
        self._e = engine
        self._g = g
        self.local_conns_ = list(engine.local_conns[g])
        self.pos = {conn: k for k, conn in enumerate(self.local_conns_)}

    # -- mutation (the Python loop) -------------------------------------
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
        # In place: under the C loop these rows are views of the arrays
        # it points to.
        e.st_integral[g][:] = [0.0] * n
        e.st_arrivals[g][:] = [0] * n
        e.st_departures[g][:] = [0] * n
        e.st_drops[g][:] = [0] * n
        e.st_start[g] = now
        e.st_last[g] = now

    # -- reads --------------------------------------------------------
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

    def occupancy(self) -> np.ndarray:
        return np.array(self._e.st_count[self._g], dtype=int)


class KernelEndToEndStats:
    """The engine's end-to-end tallies: per connection, packets
    delivered and their summed delays since the last reset."""

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


class KernelServerView:
    """Read-only view of one kernel gateway's server."""

    __slots__ = ("buffer_size", "_engine", "_g")

    def __init__(self, engine: "FastEngine", g: int):
        self._engine = engine
        self._g = g
        self.buffer_size = engine.buffer_size[g]

    @property
    def busy(self) -> bool:
        return bool(self._engine.serving[self._g] >= 0)

    @property
    def in_system(self) -> int:
        """Waiting packets plus the one in service."""
        return int(self._engine.in_system_count[self._g])


class _FairQueueingGateway:
    """One gateway's Fair Queueing state over packet ids.

    Self-clocked fair queueing with equal weights: a packet's finish
    tag is ``max(V, last finish tag of its connection) + service``,
    where the virtual clock ``V`` advances at ``1 / active`` per unit
    of time while ``active`` connections are backlogged; the server
    takes the smallest tag (ties to the earlier push) and never
    preempts.  Connections are local positions, and ``backlog`` counts
    a position's waiting packets plus the one in service.
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


def fair_share_table(local_rates) -> list:
    """One gateway's Fair Share thinning table, per local position:
    None (class 0, no uniform drawn) or ``(widths, total, fallback)``.

    Connection ``p`` at rate ``r_p`` splits into substreams of widths
    ``min(r_p, r_(k)) - r_(k-1)`` over the sorted rates ``r_(k)``; a
    packet joins class ``k`` with probability ``width_k / r_p`` (the
    walk takes the first ``k`` whose cumulative width reaches ``u *
    total``).  Evaluated once per rate push instead of once per packet.
    """
    rates = np.asarray(local_rates, dtype=float)
    sorted_rates = np.sort(rates)
    prev = np.concatenate(([0.0], sorted_rates[:-1]))
    table = []
    for p in range(rates.shape[0]):
        own = float(rates[p])
        if own <= 0.0:
            table.append(None)
            continue
        widths = np.clip(np.minimum(own, sorted_rates) - prev, 0.0, None)
        total = float(widths.sum())
        if total <= 0.0:
            table.append(None)
            continue
        table.append(([float(w) for w in widths], total,
                      int(np.max(np.nonzero(widths)[0]))))
    return table


class FastEngine:
    """Flat-data discrete-event engine behind ``NetworkSimulation``.

    Everything here is an implementation detail of
    :class:`~repro.simulation.network_sim.NetworkSimulation`, which
    owns validation and the public measurement surface.
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
        self.latency = [float(network.gateway(g).latency) for g in gw_names]
        self.mu_scale = [1.0 / float(network.mu(g)) for g in gw_names]
        self.paths = [[gw_index[g] for g in network.gamma(i)]
                      for i in range(n)]
        self.first_hop = [p[0] for p in self.paths]
        # Sizes are None or ints >= 1 (NetworkSimulation validates).
        self.buffer_size: List[Optional[int]] = [buffer_map.get(g)
                                                 for g in gw_names]
        #: Whether an overflow evicts (drop-from-longest with some
        #: finite buffer) instead of refusing the newcomer.
        self.evicts = drop_policy == "longest" and any(
            s is not None for s in self.buffer_size)

        self.now = 0.0
        self.events_processed = 0
        # Statistics start; the views read the state _build_state makes.
        self.st_start = [0.0] * n_gw
        self.e2e_start = 0.0
        self._build_state(streams)
        self.gw_stats = [KernelGatewayStats(self, g) for g in range(n_gw)]
        self.e2e_stats = KernelEndToEndStats(self)
        if discipline_kind == "fair-share":
            self.rebuild_fs_tables(
                [rates[list(lc)].copy() for lc in self.local_conns])
        # The first arrivals: the draws and pushes of a rate change.
        self.resample_arrivals(rates)

    def _build_state(self, streams: RandomStreams) -> None:
        """The mutable state of the Python loop: queues, servers,
        buffered random streams, statistics, calendar, pool, sources."""
        gw_names = self.gw_names
        n_gw = len(gw_names)
        n = self.n_conn
        # Queues: one deque per priority class (FIFO has one class;
        # Fair Share and fixed priority never need more classes than
        # local connections), or a finish-tag heap (Fair Queueing).
        self.cqueues: Optional[List[List[deque]]] = None
        self.fq: Optional[List[_FairQueueingGateway]] = None
        if self.discipline_kind == "fair-queueing":
            self.fq = [_FairQueueingGateway(len(lc))
                       for lc in self.local_conns]
        else:
            fifo = self.discipline_kind == "fifo"
            self.cqueues = [[deque() for _ in range(1 if fifo else len(lc))]
                            for lc in self.local_conns]

        # Server state: packet id in service (or -1), the absolute time
        # of its scheduled completion and the completion epoch that
        # entry carries (a preemption bumps it), number in system.
        self.serving = [-1] * n_gw
        self.completion_time = [0.0] * n_gw
        self.comp_epoch = [0] * n_gw
        self.in_system_count = [0] * n_gw

        # Buffered random streams, one per named substream.
        self.svc_buf = [streams.buffer(f"service:{g}") for g in gw_names]
        self.arr_buf = [streams.buffer(f"arrival:c{i}") for i in range(n)]
        self.thin_buf = ([streams.buffer(f"thinning:{g}") for g in gw_names]
                         if self.discipline_kind == "fair-share" else None)

        # Statistics (engine-owned parallel lists; the Kernel*Stats
        # views read them).
        self.st_count = [[0] * len(lc) for lc in self.local_conns]
        self.st_integral = [[0.0] * len(lc) for lc in self.local_conns]
        self.st_arrivals = [[0] * len(lc) for lc in self.local_conns]
        self.st_departures = [[0] * len(lc) for lc in self.local_conns]
        self.st_drops = [[0] * len(lc) for lc in self.local_conns]
        self.st_last = [0.0] * n_gw
        self.e2e_delivered = [0] * n
        self.e2e_delay = [0.0] * n

        self.calendar = EventCalendar()
        self.pool = PacketPool()

        # Sources: 1/rate (0.0 marks a silent source) and the epoch
        # each pending arrival carries (a rate change bumps it, so the
        # stale arrival is skipped).
        self.scale = [0.0] * n
        self.arr_epoch = [0] * n

        # Fair Share thinning tables, per gateway per local position
        # (see fair_share_table); rebuilt on rate pushes.
        self.fs_tables: List[list] = [[] for _ in gw_names]

    # ------------------------------------------------------------------
    # sources & rate pushes
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self, conn: int) -> None:
        scale = self.scale[conn]
        if scale <= 0.0:
            return
        gap = self.arr_buf[conn].next_exponential(scale)
        self.calendar.push(self.now + gap, _EMIT, conn, self.arr_epoch[conn])

    def resample_arrivals(self, rates: np.ndarray) -> None:
        """Adopt new sending rates; resample every pending arrival
        (exact for Poisson sources by memorylessness), one draw per
        source with a positive rate.  Bumping a source's epoch
        invalidates its pending arrival."""
        scale = self.scale
        for i in range(self.n_conn):
            r = float(rates[i])
            scale[i] = 1.0 / r if r > 0.0 else 0.0
            self.arr_epoch[i] += 1
            self._schedule_next_arrival(i)

    def rebuild_fs_tables(self,
                          per_gateway_rates: Sequence[np.ndarray]) -> None:
        """Recompute the Fair Share thinning tables from per-gateway
        local rate vectors (oracle push or measured refresh)."""
        if self.discipline_kind != "fair-share":
            return
        for g, local_rates in enumerate(per_gateway_rates):
            self.fs_tables[g] = fair_share_table(local_rates)

    # ------------------------------------------------------------------
    # drop-from-longest eviction (overflow only)
    # ------------------------------------------------------------------
    def _evict_longest(self, g: int, now: float) -> bool:
        """Make room at the full gateway ``g``: the connection with the
        most packets here (ties to the lowest local position) loses its
        most recent *waiting* packet.  False when no candidate has one; the
        caller then refuses the arrival."""
        counts = self.st_count[g]
        p_conn = self.pool.conn
        queues = self.cqueues[g][::-1]  # lowest-priority class first
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
    # event handlers
    # ------------------------------------------------------------------
    def _arrive(self, g: int, pid: int, now: float) -> None:
        """A packet reaches gateway ``g``: buffer check (evict or drop
        before any draw), service draw, monitor, enqueue, then start or
        preempt."""
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
        # Classify into a priority class.  FIFO has one, so its
        # arrivals never preempt.
        klass = 0
        if self.thin_buf is not None:  # fair-share thinning
            entry = self.fs_tables[g][pos]
            if entry is not None:
                widths, total, fallback = entry
                u = self.thin_buf[g].next_uniform() * total
                acc = 0.0
                klass = fallback
                for k, width in enumerate(widths):
                    acc += width
                    if u <= acc:
                        klass = k
                        break
        elif self.discipline_kind == "fixed-priority":
            klass = pos  # class = local position
        pool.klass[pid] = klass
        self.cqueues[g][klass].append(pid)
        serving = self.serving[g]
        if serving < 0:
            self._start_next(g, now)
        elif klass < pool.klass[serving]:
            # Preemptive resume: bank the unserved remainder, make the
            # pending completion stale, push the victim back at the
            # front of its class, serve the best head.
            pool.remaining[serving] = max(
                self.completion_time[g] - now, 0.0)
            self.comp_epoch[g] += 1
            self.cqueues[g][pool.klass[serving]].appendleft(serving)
            self.serving[g] = -1
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
            return
        self.serving[g] = pid
        t = now + self.pool.remaining[pid]
        self.completion_time[g] = t
        self.calendar.push(t, _COMPLETE, g, self.comp_epoch[g])

    def _emit(self, conn: int, now: float) -> None:
        pid = self.pool.alloc(conn, now)
        self._arrive(self.first_hop[conn], pid, now)
        self._schedule_next_arrival(conn)

    def _complete(self, g: int, now: float, t_end: float) -> int:
        """A service completion at gateway ``g``: forward the packet,
        serve the next.  Returns 1 when the packet left its last hop due
        by ``t_end`` and was delivered here (the sink rule: one more
        event processed), else 0."""
        pool = self.pool
        pid = self.serving[g]
        if pid < 0:
            raise SimulationError("completion event with idle server")
        self.serving[g] = -1
        conn = pool.conn[pid]
        if self.fq is not None:
            self.fq[g].release(self.local_pos[g][conn], now)
        self.gw_stats[g].on_departure(conn, now)
        self.in_system_count[g] -= 1
        next_hop = pool.hop[pid] + 1
        t = now + self.latency[g]
        delivered = 0
        if next_hop < len(self.paths[conn]):
            self.calendar.push(t, _HANDOFF, pid, next_hop)
        elif t <= t_end:
            self._deliver(pid, t)
            delivered = 1
        else:
            self.calendar.push(t, _SINK, pid)
        self._start_next(g, now)
        return delivered

    def _deliver(self, pid: int, now: float) -> None:
        """Packet ``pid`` reaches its sink at ``now``."""
        pool = self.pool
        self.e2e_stats.on_delivery(pool.conn[pid], pool.created[pid], now)
        pool.free(pid)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run_until(self, t_end: float, max_events: int = 50_000_000) -> None:
        """Process events in time order until ``t_end`` (inclusive);
        the clock then advances to ``t_end``, so time-weighted
        statistics integrate the full horizon."""
        if t_end < self.now:
            raise SimulationError(
                f"t_end {t_end} is before current time {self.now}")
        self._run_general(t_end, max_events)
        self.now = t_end

    def _run_general(self, t_end: float, max_events: int) -> None:
        heap = self.calendar._heap
        arr_epoch = self.arr_epoch
        comp_epoch = self.comp_epoch
        pool = self.pool
        heappop = heapq.heappop
        processed = 0
        try:
            while heap:
                time, _, kind, a, b = heap[0]
                if time > t_end:
                    break
                heappop(heap)
                if kind == _EMIT:
                    if b != arr_epoch[a]:
                        continue  # arrival cancelled by a rate change
                elif kind == _COMPLETE:
                    if b != comp_epoch[a]:
                        continue  # completion cancelled by a preemption
                self.now = time
                processed += 1
                if kind == _COMPLETE:
                    processed += self._complete(a, time, t_end)
                elif kind == _EMIT:
                    self._emit(a, time)
                elif kind == _HANDOFF:
                    pool.hop[a] = b
                    self._arrive(self.paths[pool.conn[a]][b], a, time)
                else:  # _SINK
                    self._deliver(a, time)
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events before t={t_end}; "
                        f"runaway simulation?")
        finally:
            self.events_processed += processed
