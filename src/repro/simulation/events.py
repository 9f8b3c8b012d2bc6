"""The packet kernel's discrete-event calendar.

Ties in time pop in insertion order, so runs are fully deterministic
given the random streams.  Dispatch on the integer ``kind`` is the
caller's job.
"""

from __future__ import annotations

import heapq
import math

from ..errors import SimulationError

__all__ = ["EventCalendar"]


class EventCalendar:
    """The fast kernel's event heap.

    Every event is one ``(time, seq, kind, a, b)`` tuple on a binary
    heap: ``seq`` counts pushes, so ties in time pop in push order, and
    the tuple never compares past it.  The calendar cancels nothing.
    The kernel invalidates an event by bumping an epoch that the event
    carries in ``b``: a source's on a rate change, a gateway's
    completion epoch on a preemption.  The kernel's Python loop pushes
    through :meth:`push`, pops from :attr:`_heap` directly and skips a
    popped event whose epoch is stale, uncounted.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self):
        self._heap: list = []
        self._seq = 0

    def push(self, time: float, kind: int, a: int, b: int = 0) -> None:
        """Schedule an event of ``kind`` with operands ``a`` and ``b``."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        heapq.heappush(self._heap, (time, self._seq, kind, a, b))
        self._seq += 1
