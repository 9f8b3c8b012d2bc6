"""The exponential gateway server with pluggable queueing discipline.

The server owns the in-service packet and the preemption mechanics; the
discipline (see :mod:`repro.simulation.queues`) owns the waiting room.
Service requirements are sampled exponentially (rate ``mu``) on arrival
at the gateway; preemption is *resume*: the preempted packet keeps its
unserved remainder (exact, no memoryless re-sampling shortcut).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import SimulationError
from .events import EventHandle, Scheduler
from .monitors import GatewayMonitor
from .packet import Packet
from .queues import FairQueueingQueue, SimDiscipline

__all__ = ["GatewayServer"]


class GatewayServer:
    """One gateway: exponential server + discipline + monitor."""

    def __init__(self, name: str, mu: float, discipline: SimDiscipline,
                 scheduler: Scheduler, service_rng: np.random.Generator,
                 monitor: GatewayMonitor,
                 forward: Callable[[Packet], None],
                 buffer_size: Optional[int] = None,
                 drop_policy: str = "tail"):
        if mu <= 0:
            raise SimulationError(f"gateway {name!r}: mu must be positive")
        if buffer_size is not None and buffer_size < 1:
            raise SimulationError(
                f"gateway {name!r}: buffer size must be >= 1 (room for "
                f"the packet in service), got {buffer_size!r}")
        if drop_policy not in ("tail", "longest"):
            raise SimulationError(
                f"gateway {name!r}: drop_policy must be 'tail' or "
                f"'longest', got {drop_policy!r}")
        self.name = name
        self.mu = float(mu)
        self.discipline = discipline
        self._scheduler = scheduler
        self._service_rng = service_rng
        self.monitor = monitor
        self._forward = forward
        self.buffer_size = buffer_size
        self.drop_policy = drop_policy
        self._serving: Optional[Packet] = None
        self._completion: Optional[EventHandle] = None

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._serving is not None

    @property
    def in_system(self) -> int:
        """Waiting packets plus the one in service."""
        return len(self.discipline) + (1 if self.busy else 0)

    def arrive(self, pkt: Packet) -> None:
        """Handle a packet arriving at this gateway.

        With a finite ``buffer_size`` (counting the packet in service),
        a full gateway sheds one packet per arrival: under the ``tail``
        policy it refuses the newcomer (classic drop-tail, the implicit
        signal of Jacobson-style schemes); under ``longest`` it admits
        the newcomer and evicts the most recent packet of the
        connection holding the most packets — Nagle's fairness-
        preserving buffer policy [Nag87].
        """
        now = self._scheduler.now
        if (self.buffer_size is not None
                and self.in_system >= self.buffer_size):
            if self.drop_policy == "longest" and self._evict_hog(pkt):
                pass  # room was made; fall through and admit
            else:
                self.monitor.on_drop(pkt.conn, now)
                return
        pkt.service_time = float(self._service_rng.exponential(1.0 / self.mu))
        pkt.remaining = pkt.service_time
        self.monitor.on_arrival(pkt.conn, now)
        self.discipline.push(pkt, now)
        if not self.busy:
            self._start_next()
        elif (self.discipline.preemptive
              and self.discipline.would_preempt(self._serving, pkt)):
            self._preempt()

    def _evict_hog(self, arriving: Packet) -> bool:
        """Make room by evicting from the most-occupying connection.

        Picks the connection with the most packets in system here,
        ties going to the lowest local position (a stable sort: an
        unstable one orders ties differently from CPU to CPU); if
        its only packet is the one in service (never evicted), falls
        back to refusing the arrival.  Returns True when a slot was
        freed for ``arriving``.
        """
        now = self._scheduler.now
        counts = self.monitor.occupancy()
        order = list(np.argsort(-counts, kind="stable"))
        local = self.monitor.local_conns
        for pos in order:
            if counts[pos] <= 0:
                break
            conn = local[pos]
            victim = self.discipline.remove_recent(conn)
            if victim is not None:
                self.monitor.on_evict(conn, now)
                return True
        return False

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        now = self._scheduler.now
        pkt = self.discipline.pop(now)
        if pkt is None:
            self._serving = None
            self._completion = None
            return
        self._serving = pkt
        self._completion = self._scheduler.schedule_after(
            pkt.remaining, self._complete)

    def _preempt(self) -> None:
        now = self._scheduler.now
        serving = self._serving
        if serving is None or self._completion is None:
            raise SimulationError("preemption with no packet in service")
        serving.remaining = max(self._completion.time - now, 0.0)
        self._completion.cancel()
        self.discipline.requeue_front(serving)
        self._serving = None
        self._completion = None
        self._start_next()

    def _complete(self) -> None:
        now = self._scheduler.now
        pkt = self._serving
        if pkt is None:
            raise SimulationError("completion event with idle server")
        self._serving = None
        self._completion = None
        if isinstance(self.discipline, FairQueueingQueue):
            self.discipline.release(pkt, now)
        self.monitor.on_departure(pkt.conn, now)
        self._forward(pkt)
        self._start_next()
