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

Two engines run the system (``engine=`` selects):

* ``"auto"`` (default) — the kernel's event loop in runtime-built C
  (:class:`~repro.simulation.kernel_compiled.CompiledEngine`), for
  every configuration, whenever the C tier has built; otherwise (no C
  compiler) the same as ``"fast"``.  :attr:`engine` names the engine
  that runs: ``"compiled"`` or ``"fast"``.
* ``"fast"`` — the :class:`~repro.simulation.kernel.FastEngine`'s
  Python loop over its event heap, pooled packet ids and buffered
  random streams.  It runs every configuration this class accepts,
  with the C loop's bits: same seed, same trajectory.
* ``"compiled"`` — a synonym of ``"auto"``.

``buffer_sizes`` (None, one size for every gateway, or a dict by
gateway name) is validated once, for either engine: each size is None
(infinite) or a whole number >= 1, kept as an ``int``; anything else,
or an unknown gateway name, raises :class:`~repro.errors.
SimulationError` naming the gateway and the value.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.topology import Network
from ..errors import SimulationError
from .kernel import FastEngine, KernelServerView
from .rng import RandomStreams

__all__ = ["NetworkSimulation"]


def _buffer_size(gateway: str, size) -> Optional[int]:
    """One gateway's buffer size: None (infinite) or a whole number
    >= 1 (room for the packet in service), as an int."""
    if size is None:
        return None
    if isinstance(size, bool) or not isinstance(size, numbers.Real):
        whole = False
    elif isinstance(size, numbers.Integral):
        whole = size >= 1
    else:
        whole = (math.isfinite(size) and float(size).is_integer()
                 and size >= 1)
    if not whole:
        raise SimulationError(
            f"gateway {gateway!r}: buffer size must be None or a whole "
            f"number >= 1 (room for the packet in service), got {size!r}")
    return int(size)


def _buffer_map(network: Network, buffer_sizes) -> Dict[str, Optional[int]]:
    """``buffer_sizes`` (None, one size for every gateway, or a dict by
    gateway name) as validated sizes by gateway name."""
    names = list(network.gateway_names)
    if buffer_sizes is None:
        return {}
    if not isinstance(buffer_sizes, dict):
        return {g: _buffer_size(g, buffer_sizes) for g in names}
    for g, size in buffer_sizes.items():
        if g not in names:
            raise SimulationError(
                f"buffer_sizes names unknown gateway {g!r} (size "
                f"{size!r}); the gateways are {names}")
    return {g: _buffer_size(g, size) for g, size in buffer_sizes.items()}


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
        if engine not in ("auto", "fast", "compiled"):
            raise SimulationError(
                f"engine must be 'auto', 'fast' or 'compiled', "
                f"got {engine!r}")
        buffer_map = _buffer_map(network, buffer_sizes)
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

        engine_cls = FastEngine
        if engine != "fast":
            from .kernel_compiled import CompiledEngine
            if CompiledEngine.serves():
                engine_cls = CompiledEngine
        #: The engine that runs: "compiled" or "fast".
        self.engine = "fast" if engine_cls is FastEngine else "compiled"
        self._engine = engine_cls(network, discipline_kind, self.streams,
                                  self._rates, buffer_map, drop_policy)
        self.e2e = self._engine.e2e_stats
        self.monitors = {g: self._engine.gw_stats[k]
                         for k, g in enumerate(network.gateway_names)}
        self.servers = {g: KernelServerView(self._engine, k)
                        for k, g in enumerate(network.gateway_names)}

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
        self._engine.resample_arrivals(self._rates)
        if self.rate_mode == "oracle":
            self._push_oracle_rates()

    def _push_oracle_rates(self) -> None:
        self._engine.rebuild_fs_tables(
            [self._rates[list(self.network.connections_at(g))]
             for g in self.network.gateway_names])

    def refresh_measured_rates(self) -> None:
        """In ``measured`` mode: update the Fair Share classifier rates
        from each gateway monitor's arrival-rate estimate."""
        now = self.now
        self._engine.rebuild_fs_tables(
            [self.monitors[g].arrival_rates(now)
             for g in self.network.gateway_names])

    # ------------------------------------------------------------------
    # running & measuring
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._engine.now

    @property
    def events_processed(self) -> int:
        """Events executed since construction."""
        return self._engine.events_processed

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` time units (finite and
        nonnegative)."""
        if not math.isfinite(duration):
            raise SimulationError(
                f"duration must be finite, got {duration!r}")
        if duration < 0:
            raise SimulationError("duration must be nonnegative")
        self._engine.run_until(self._engine.now + duration)

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
