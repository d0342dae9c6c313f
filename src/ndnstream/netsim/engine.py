"""Event loop with (time, issue-order) execution, fully deterministic."""

from __future__ import annotations

import heapq
from typing import Callable

from ..errors import SchedulingInPast


class EventEngine:
    """Min-heap of events ordered by (timestamp, sequence number).

    Two events at the same timestamp run in the order they were scheduled,
    so a run is a pure function of the schedule calls.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self.executed = 0

    def schedule(self, at: float, action: Callable[[], None], seq: int | None = None) -> int:
        """Queue ``action`` at ``at``. ``seq``, a number from ``ticket``,
        places it among events at the same instant where an event
        scheduled when the ticket was taken would be."""
        if at < self.now:
            raise SchedulingInPast(f"at={at} < now={self.now}")
        if seq is None:
            self._seq += 1
            seq = self._seq
        heapq.heappush(self._heap, (at, seq, action))
        return seq

    def ticket(self) -> int:
        """Reserve the next sequence number for one event scheduled later."""
        self._seq += 1
        return self._seq

    def schedule_in(self, delay: float, action: Callable[[], None]) -> int:
        return self.schedule(self.now + delay, action)

    def pending(self) -> int:
        return len(self._heap)

    def advance(self) -> bool:
        """Execute the next event; False if none remain."""
        if not self._heap:
            return False
        at, _seq, action = heapq.heappop(self._heap)
        self.now = at
        self.executed += 1
        action()
        return True

    def run(self, until: float | None = None) -> int:
        """Drain the queue, optionally stopping after ``until``.

        Returns the number of events executed by this call.
        """
        count = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.advance()
            count += 1
        if until is not None and self.now < until and (
            not self._heap or self._heap[0][0] > until
        ):
            self.now = until
        return count
