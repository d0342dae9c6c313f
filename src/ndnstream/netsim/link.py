"""Point-to-point links with per-direction bandwidth, delay and tail-drop queues."""

from __future__ import annotations

from collections import deque


class _Direction:
    __slots__ = (
        "propagation_s",
        "bandwidth_bps",
        "queue_limit_bytes",
        "busy_until",
        "drops",
        "queued",
        "queued_bytes",
    )

    def __init__(self, propagation_ms: float, bandwidth_bps: float | None, queue_limit_bytes: int | None):
        self.propagation_s = propagation_ms / 1000.0
        self.bandwidth_bps = bandwidth_bps
        self.queue_limit_bytes = queue_limit_bytes
        self.busy_until = 0.0
        self.drops = 0
        # Packets not yet fully sent, as (end of serialization, size, bytes/s
        # they were queued at); tracked only under a queue limit.
        self.queued: deque[tuple[float, int, float]] = deque()
        self.queued_bytes = 0

    def backlog_bytes(self, now: float) -> float:
        """Bytes committed to the direction and not yet on the wire."""
        while self.queued and self.queued[0][0] <= now:
            self.queued_bytes -= self.queued.popleft()[1]
        if not self.queued:
            return 0.0
        end, size, rate = self.queued[0]
        return self.queued_bytes - size + (end - now) * rate


class Link:
    """FIFO per direction. A packet sent at ``now`` starts serializing when
    the direction goes idle and arrives one propagation delay after the
    last bit leaves; with no bandwidth it serializes in no time, but still
    waits for the direction to go idle. Bandwidth changes apply to packets
    sent afterwards; anything already queued keeps its committed timing,
    and counts toward the tail-drop backlog with the bytes it has left at
    its own rate.

    Each direction is keyed by its sending node, since the receiving one is
    the other end: the ``dst`` the methods take names that end and is not
    looked up. A link from a node to itself has one direction, which both
    of its faces share.
    """

    def __init__(
        self,
        a: str,
        b: str,
        propagation_ms: float = 0.0,
        bandwidth_bps: float | None = None,
        queue_limit_bytes: int | None = None,
    ):
        self.a = a
        self.b = b
        self._dir = {
            a: _Direction(propagation_ms, bandwidth_bps, queue_limit_bytes),
            b: _Direction(propagation_ms, bandwidth_bps, queue_limit_bytes),
        }

    def direction(self, src: str, dst: str) -> _Direction:
        return self._dir[src]

    def set_bandwidth(self, src: str, dst: str, bandwidth_bps: float | None) -> None:
        self._dir[src].bandwidth_bps = bandwidth_bps

    def transmit(self, src: str, dst: str, size_bytes: int, now: float) -> float | None:
        """Arrival time at ``dst``, or None on tail-drop."""
        d = self._dir[src]
        busy_until = d.busy_until
        start = busy_until if busy_until > now else now
        rate = d.bandwidth_bps
        if rate is None:
            return start + d.propagation_s  # behind what is still serializing
        limit = d.queue_limit_bytes
        # Tail drop once the untransmitted backlog exceeds the limit.
        if limit is not None and d.backlog_bytes(now) > limit:
            d.drops += 1
            return None
        busy_until = start + size_bytes * 8.0 / rate
        d.busy_until = busy_until
        if limit is not None:
            d.queued.append((busy_until, size_bytes, rate / 8.0))
            d.queued_bytes += size_bytes
        return busy_until + d.propagation_s

    def drop_counts(self) -> dict[str, int]:
        """Drops per direction, keyed ``"<src>-><dst>"`` in order of ``src``."""
        return {
            f"{src}->{self.b if src == self.a else self.a}": d.drops
            for src, d in sorted(self._dir.items())
        }
