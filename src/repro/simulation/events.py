"""Discrete-event calendars.

Two implementations share one semantics — a binary-heap event list on
which a cancelled event stays until it surfaces and is then skipped,
and ties in time broken by insertion order, so runs are fully
deterministic given the random streams:

* :class:`Scheduler` — the legacy object engine: one Python callback
  closure and one :class:`EventHandle` per event.
* :class:`EventCalendar` — the fast kernel's heap of
  ``(time, seq, kind, a, b)`` tuples; a stale event is recognised by
  the epoch it carries, not cancelled.  Dispatch on the integer
  ``kind`` is the caller's job.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional, Tuple

from ..errors import SimulationError

__all__ = ["EventHandle", "Scheduler", "EventCalendar"]


class EventHandle:
    """Opaque handle returned by :meth:`Scheduler.schedule`.

    Holds the cancellation flag; callers should treat it as opaque apart
    from :meth:`cancel` / :attr:`cancelled`.
    """

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float):
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Scheduler:
    """Event loop: schedule callbacks at absolute times, run in order."""

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self._now = 0.0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at absolute simulation time ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self._now}")
        handle = EventHandle(time)
        heapq.heappush(self._heap, (time, next(self._counter),
                                    action, handle))
        return handle

    def schedule_after(self, delay: float,
                       action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` after a nonnegative ``delay``."""
        if delay < 0:
            raise SimulationError(f"delay must be nonnegative, got {delay!r}")
        return self.schedule(self._now + delay, action)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when the heap is empty."""
        while self._heap:
            time, _, _, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            return time
        return None

    def run_until(self, t_end: float, max_events: int = 50_000_000) -> None:
        """Process events in time order until ``t_end`` (inclusive).

        The clock is advanced to ``t_end`` at the end even if the last
        event fires earlier, so time-weighted monitors integrate the
        full horizon.
        """
        if t_end < self._now:
            raise SimulationError(
                f"t_end {t_end} is before current time {self._now}")
        processed = 0
        while self._heap:
            time, _, action, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            if time > t_end:
                break
            heapq.heappop(self._heap)
            self._now = time
            action()
            processed += 1
            self._events_processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before t={t_end}; "
                    f"runaway simulation?")
        self._now = t_end


class EventCalendar:
    """The fast kernel's event heap.

    Every event is one ``(time, seq, kind, a, b)`` tuple on a binary
    heap: ``seq`` counts pushes, so ties in time pop in push order, as
    under the legacy :class:`Scheduler`, and the tuple never compares
    past it.  The calendar cancels nothing.  The kernel invalidates an
    event by bumping an epoch that the event carries in ``b``: a
    source's on a rate change, a gateway's completion epoch on a
    preemption.  The kernel's loops skip a popped event whose epoch is
    stale, uncounted, and push to :attr:`_heap` directly.
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

    def pop(self) -> Optional[Tuple[float, int, int, int]]:
        """Remove and return the next event as ``(time, kind, a, b)``,
        or ``None`` when the heap is empty."""
        if not self._heap:
            return None
        time, _, kind, a, b = heapq.heappop(self._heap)
        return time, kind, a, b
