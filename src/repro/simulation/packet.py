"""Packet storage for the simulator's Python loop.

:class:`PacketPool` keeps packet fields in parallel columns indexed by
an integer packet id, and delivered/dropped ids return to a free-list,
so a steady-state run recycles a bounded working set of slots instead
of allocating one object per packet.
"""

from __future__ import annotations

__all__ = ["PacketPool"]


class PacketPool:
    """Struct-of-arrays packet storage with a free-list.

    Columns: the owning connection, the emission time, the hop index
    into the connection's path, the service still owed at the current
    gateway (preemptive resume banks the unserved remainder here) and
    the priority class there.  :meth:`alloc` hands out
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
