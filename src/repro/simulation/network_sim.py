"""Packet-level simulation of a whole network (the model's substrate).

:class:`NetworkSimulation` instantiates, for a
:class:`~repro.core.topology.Network`, the physical system the analytic
model abstracts: Poisson sources, exponential-server gateways with a
chosen queueing discipline, line latencies applied after each gateway's
service, and per-gateway / end-to-end monitors.

Sending rates can be changed while the simulation runs (Poisson
memorylessness makes rescheduling the pending arrival exact), which is
what the closed-loop feedback driver builds on.

Fair Share gateways need the connection rates to define their substream
classes.  Two modes:

* ``rate_mode="oracle"`` — gateways read the true current sending rates
  (the analytic model's assumption);
* ``rate_mode="measured"`` — gateways use arrival-rate estimates
  gathered by their own monitors over the previous measurement window
  (what a real router could do).

Interchangeable engines run the system (``engine=`` selects):

* ``"fast"`` — the :class:`~repro.simulation.kernel.FastEngine` on the
  struct-of-arrays calendar, pooled packet ids and buffered random
  streams.  It runs every configuration this class accepts.
* ``"auto"`` (default) — the same as ``"fast"``.
* ``"compiled"`` — the fast engine with its FIFO loop in runtime-built
  C (:class:`~repro.simulation.kernel_compiled.CompiledFifoEngine`).
* ``"legacy"`` — the original object engine: callback
  :class:`~repro.simulation.events.Scheduler`, :class:`Packet`
  dataclasses, per-draw numpy crossings.  It is the reference the
  others are tested against: same seed ⇒ bit-identical trajectories
  (same draws, same event order, same float arithmetic).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..core.topology import Network
from ..errors import SimulationError
from .events import EventHandle, Scheduler
from .kernel import FastEngine, KernelServerView
from .monitors import EndToEndMonitor, GatewayMonitor
from .packet import Packet
from .queues import make_discipline
from .rng import RandomStreams
from .server import GatewayServer

__all__ = ["NetworkSimulation"]


class NetworkSimulation:
    """An executable network: sources, gateways, routing, monitors."""

    def __init__(self, network: Network, discipline_kind: str = "fifo",
                 seed: int = 0,
                 initial_rates: Optional[Sequence[float]] = None,
                 rate_mode: str = "oracle",
                 buffer_sizes=None,
                 drop_policy: str = "tail",
                 engine: str = "auto"):
        if rate_mode not in ("oracle", "measured"):
            raise SimulationError(
                f"rate_mode must be 'oracle' or 'measured', got {rate_mode!r}")
        if drop_policy not in ("tail", "longest"):
            raise SimulationError(
                f"drop_policy must be 'tail' or 'longest', "
                f"got {drop_policy!r}")
        if engine not in ("auto", "fast", "compiled", "legacy"):
            raise SimulationError(
                f"engine must be 'auto', 'fast', 'compiled' or "
                f"'legacy', got {engine!r}")
        if buffer_sizes is None or isinstance(buffer_sizes, dict):
            buffer_map = dict(buffer_sizes or {})
        else:
            buffer_map = {g: int(buffer_sizes)
                          for g in network.gateway_names}
        if (discipline_kind == "fair-queueing" and drop_policy == "longest"
                and any(v is not None for v in buffer_map.values())):
            raise SimulationError(
                "discipline 'fair-queueing' does not support "
                "drop_policy 'longest' with finite buffers: it cannot "
                "evict a queued packet")
        self.network = network
        self.discipline_kind = discipline_kind
        self.rate_mode = rate_mode
        self.streams = RandomStreams(seed)
        n = network.num_connections

        if initial_rates is None:
            self._rates = np.zeros(n, dtype=float)
        else:
            self._rates = np.asarray(initial_rates, dtype=float).copy()
            if self._rates.shape != (n,):
                raise SimulationError(
                    f"initial_rates must have length {n}")
            if np.any(self._rates < 0) or not np.all(
                    np.isfinite(self._rates)):
                raise SimulationError("initial rates must be finite and >= 0")

        self.engine = "fast" if engine == "auto" else engine

        # Rates the Fair Share classifier sees, per gateway (local order).
        self._fs_rates: Dict[str, np.ndarray] = {}
        for gname in network.gateway_names:
            local = network.connections_at(gname)
            self._fs_rates[gname] = self._rates[list(local)].copy()

        if self.engine in ("fast", "compiled"):
            if self.engine == "compiled":
                # Same construction, compiled FIFO hot loop (with a
                # per-call fallback to the Python loop when no C tier
                # could be built or when an overflow may evict).
                from .kernel_compiled import CompiledFifoEngine
                engine_cls = CompiledFifoEngine
            else:
                engine_cls = FastEngine
            self._engine: Optional[FastEngine] = engine_cls(
                network, discipline_kind, self.streams, self._rates,
                buffer_map, drop_policy)
            self.scheduler = None
            self.e2e = self._engine.e2e_stats
            self.monitors = {g: self._engine.gw_stats[k]
                             for k, g in enumerate(network.gateway_names)}
            self.servers = {g: KernelServerView(self._engine, k)
                            for k, g in enumerate(network.gateway_names)}
            return

        self._engine = None
        self.scheduler = Scheduler()
        self.e2e = EndToEndMonitor(n)
        self.monitors: Dict[str, GatewayMonitor] = {}
        self.servers: Dict[str, GatewayServer] = {}

        for gname in network.gateway_names:
            local = network.connections_at(gname)
            monitor = GatewayMonitor(local)
            self.monitors[gname] = monitor
            if discipline_kind == "fixed-priority":
                # Priority by local position: the analytic counterpart is
                # PreemptivePriority(range(N)) at a single gateway.
                discipline = make_discipline(
                    discipline_kind,
                    class_of_conn={conn: pos
                                   for pos, conn in enumerate(local)})
            else:
                discipline = make_discipline(discipline_kind)
            discipline.bind(
                local,
                rate_provider=self._make_rate_provider(gname),
                rng=self.streams.stream(f"thinning:{gname}"),
            )
            self.servers[gname] = GatewayServer(
                name=gname,
                mu=network.mu(gname),
                discipline=discipline,
                scheduler=self.scheduler,
                service_rng=self.streams.stream(f"service:{gname}"),
                monitor=monitor,
                forward=self._make_forwarder(gname),
                buffer_size=buffer_map.get(gname),
                drop_policy=drop_policy,
            )

        self._pending: list = [None] * n
        self._seq = np.zeros(n, dtype=int)
        for i in range(n):
            self._schedule_next_arrival(i)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _make_rate_provider(self, gname: str):
        def provider() -> np.ndarray:
            return self._fs_rates[gname]
        return provider

    def _make_forwarder(self, gname: str):
        latency = self.network.gateway(gname).latency

        def forward(pkt: Packet) -> None:
            path = self.network.gamma(pkt.conn)
            next_hop = pkt.hop + 1
            if next_hop < len(path):
                def deliver(p=pkt, h=next_hop):
                    p.hop = h
                    self.servers[path[h]].arrive(p)
                self.scheduler.schedule_after(latency, deliver)
            else:
                def sink(p=pkt):
                    self.e2e.on_delivery(p.conn, p.created,
                                         self.scheduler.now)
                self.scheduler.schedule_after(latency, sink)
        return forward

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self, conn: int) -> None:
        rate = float(self._rates[conn])
        if rate <= 0.0:
            self._pending[conn] = None
            return
        gap = float(self.streams.stream(f"arrival:c{conn}")
                    .exponential(1.0 / rate))

        def emit():
            self._emit(conn)
        self._pending[conn] = self.scheduler.schedule_after(gap, emit)

    def _emit(self, conn: int) -> None:
        pkt = Packet(conn=conn, seq=int(self._seq[conn]),
                     created=self.scheduler.now, hop=0)
        self._seq[conn] += 1
        first = self.network.gamma(conn)[0]
        self.servers[first].arrive(pkt)
        self._schedule_next_arrival(conn)

    # ------------------------------------------------------------------
    # control surface
    # ------------------------------------------------------------------
    @property
    def rates(self) -> np.ndarray:
        """Current sending rates (copy)."""
        return self._rates.copy()

    def set_rates(self, rates: Sequence[float]) -> None:
        """Change all sending rates, effective immediately.

        Pending next-arrival events are resampled at the new rates —
        exact for Poisson sources by memorylessness.
        """
        vec = np.asarray(rates, dtype=float)
        if vec.shape != self._rates.shape:
            raise SimulationError(
                f"rate vector must have length {self._rates.shape[0]}")
        if np.any(vec < 0) or not np.all(np.isfinite(vec)):
            raise SimulationError("rates must be finite and >= 0")
        self._rates[:] = vec
        if self._engine is not None:
            self._engine.resample_arrivals(self._rates)
        else:
            for conn in range(vec.shape[0]):
                pending: Optional[EventHandle] = self._pending[conn]
                if pending is not None:
                    pending.cancel()
                self._schedule_next_arrival(conn)
        if self.rate_mode == "oracle":
            self._push_oracle_rates()

    def _push_oracle_rates(self) -> None:
        for gname in self.network.gateway_names:
            local = list(self.network.connections_at(gname))
            self._fs_rates[gname] = self._rates[local].copy()
        if self._engine is not None:
            self._engine.rebuild_fs_tables(
                [self._fs_rates[g] for g in self.network.gateway_names])

    def refresh_measured_rates(self) -> None:
        """In ``measured`` mode: update the Fair Share classifier rates
        from each gateway monitor's arrival-rate estimate."""
        now = self.now
        for gname, monitor in self.monitors.items():
            estimate = monitor.arrival_rates(now)
            self._fs_rates[gname] = estimate
        if self._engine is not None:
            self._engine.rebuild_fs_tables(
                [self._fs_rates[g] for g in self.network.gateway_names])

    # ------------------------------------------------------------------
    # running & measuring
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self._engine is not None:
            return self._engine.now
        return self.scheduler.now

    @property
    def events_processed(self) -> int:
        """Events executed since construction (either engine)."""
        if self._engine is not None:
            return self._engine.events_processed
        return self.scheduler.events_processed

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` time units."""
        if duration < 0:
            raise SimulationError("duration must be nonnegative")
        if self._engine is not None:
            self._engine.run_until(self._engine.now + duration)
        else:
            self.scheduler.run_until(self.scheduler.now + duration)

    def reset_statistics(self) -> None:
        """Discard all accumulated statistics (e.g. after warm-up)."""
        now = self.now
        for monitor in self.monitors.values():
            monitor.reset_statistics(now)
        self.e2e.reset_statistics(now)

    def mean_queue_lengths(self) -> Dict[str, np.ndarray]:
        """Time-average per-connection queues per gateway since reset."""
        now = self.now
        return {g: m.mean_queue_lengths(now)
                for g, m in self.monitors.items()}

    def measured_arrival_rates(self) -> Dict[str, np.ndarray]:
        now = self.now
        return {g: m.arrival_rates(now) for g, m in self.monitors.items()}

    def drop_fractions(self) -> Dict[str, np.ndarray]:
        """Per-connection drop fractions per gateway since the reset
        (all zeros for infinite-buffer gateways)."""
        return {g: m.drop_fractions() for g, m in self.monitors.items()}

    def throughput(self) -> np.ndarray:
        """Delivered end-to-end packets per unit time since reset."""
        return self.e2e.throughput(self.now)

    def mean_delays(self) -> np.ndarray:
        """Mean end-to-end delays since reset (``nan`` when silent)."""
        return self.e2e.mean_delays()
