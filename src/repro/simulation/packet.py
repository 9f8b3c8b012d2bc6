"""Packets and per-connection bookkeeping for the simulator.

:class:`Packet` is the legacy object engine's per-packet dataclass.
:class:`PacketPool` is the fast kernel's struct-of-arrays replacement:
packet fields live in parallel columns indexed by an integer packet id,
and delivered/dropped ids return to a free-list, so a steady-state run
recycles a bounded working set of slots instead of allocating one
object per packet.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Packet", "PacketPool"]


@dataclass
class Packet:
    """One packet travelling through the simulated network.

    Attributes:
        conn: index of the owning connection.
        seq: per-connection sequence number.
        created: simulation time the source emitted the packet.
        hop: index into the connection's path of the gateway currently
            holding (or about to receive) the packet.
        service_time: total service requirement at the current gateway,
            sampled on arrival there (exponential with the gateway's
            rate).
        remaining: service still owed at the current gateway; equals
            ``service_time`` until the packet is preempted, after which
            it tracks the unserved remainder (preemptive *resume*).
        priority_class: class assigned by a priority-style discipline at
            the current gateway (0 is the highest priority).
    """

    conn: int
    seq: int
    created: float
    hop: int = 0
    service_time: float = 0.0
    remaining: float = 0.0
    priority_class: int = 0

    def __repr__(self):
        return (f"Packet(conn={self.conn}, seq={self.seq}, "
                f"created={self.created:.4f}, hop={self.hop})")


class PacketPool:
    """Struct-of-arrays packet storage with a free-list.

    Columns mirror :class:`Packet`'s fields but ``seq`` and
    ``service_time``: the kernel never reads a sequence number and only
    needs the preemptive-resume ``remaining``.  :meth:`alloc` hands out
    a recycled slot when one is free and grows the columns otherwise;
    :meth:`free` returns a slot once the packet is delivered or
    dropped.
    """

    __slots__ = ("conn", "created", "hop", "remaining", "klass", "_free")

    def __init__(self):
        self.conn: list = []
        self.created: list = []
        self.hop: list = []
        self.remaining: list = []
        self.klass: list = []
        self._free: list = []

    def alloc(self, conn: int, created: float) -> int:
        """A packet id for a fresh packet (hop 0, no service sampled)."""
        free = self._free
        if free:
            pid = free.pop()
            self.conn[pid] = conn
            self.created[pid] = created
            self.hop[pid] = 0
            self.remaining[pid] = 0.0
            self.klass[pid] = 0
        else:
            pid = len(self.conn)
            self.conn.append(conn)
            self.created.append(created)
            self.hop.append(0)
            self.remaining.append(0.0)
            self.klass.append(0)
        return pid

    def free(self, pid: int) -> None:
        """Recycle ``pid``; the caller must hold no further references."""
        self._free.append(pid)

    @property
    def capacity(self) -> int:
        """Total slots ever allocated (in-flight + recyclable)."""
        return len(self.conn)

    @property
    def in_flight(self) -> int:
        """Slots currently holding an un-freed packet."""
        return len(self.conn) - len(self._free)
