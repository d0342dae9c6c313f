"""Event loop with (time, issue-order) execution, fully deterministic.

An event is a callable plus the positional arguments it runs with, so a
caller that would otherwise wrap a call in a fresh closure (a packet
delivery, a delayed send) schedules the bound method and its arguments.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import SchedulingInPast


class EventEngine:
    """Min-heap of events ``(at, seq, action, args)`` ordered by timestamp
    and sequence number; running one calls ``action(*args)``.

    Two events at the same timestamp run in the order they were scheduled,
    so a run is a pure function of the schedule calls. Sequence numbers are
    unique, so the heap never compares two actions or argument tuples.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self.executed = 0

    def schedule(
        self,
        at: float,
        action: Callable[..., None],
        seq: int | None = None,
        args: tuple[Any, ...] = (),
    ) -> int:
        """Queue ``action(*args)`` at ``at``. ``seq``, a number from
        ``ticket``, places it among events at the same instant where an
        event scheduled when the ticket was taken would be."""
        if at < self.now:
            raise SchedulingInPast(f"at={at} < now={self.now}")
        if seq is None:
            self._seq += 1
            seq = self._seq
        heapq.heappush(self._heap, (at, seq, action, args))
        return seq

    def ticket(self) -> int:
        """Reserve the next sequence number for one event scheduled later."""
        self._seq += 1
        return self._seq

    def schedule_in(
        self, delay: float, action: Callable[..., None], args: tuple[Any, ...] = ()
    ) -> int:
        return self.schedule(self.now + delay, action, None, args)

    def pending(self) -> int:
        return len(self._heap)

    def advance(self) -> bool:
        """Execute the next event; False if none remain."""
        if not self._heap:
            return False
        at, _seq, action, args = heapq.heappop(self._heap)
        self.now = at
        self.executed += 1
        action(*args)
        return True
