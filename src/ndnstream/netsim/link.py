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
    last bit leaves. Bandwidth changes apply to packets sent afterwards;
    anything already queued keeps its committed timing, and counts toward
    the tail-drop backlog with the bytes it has left at its own rate.
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
            (a, b): _Direction(propagation_ms, bandwidth_bps, queue_limit_bytes),
            (b, a): _Direction(propagation_ms, bandwidth_bps, queue_limit_bytes),
        }

    def direction(self, src: str, dst: str) -> _Direction:
        return self._dir[(src, dst)]

    def set_bandwidth(self, src: str, dst: str, bandwidth_bps: float | None) -> None:
        self._dir[(src, dst)].bandwidth_bps = bandwidth_bps

    def transmit(self, src: str, dst: str, size_bytes: int, now: float) -> float | None:
        """Arrival time at ``dst``, or None on tail-drop."""
        d = self._dir[(src, dst)]
        if d.bandwidth_bps is None:
            return now + d.propagation_s
        if d.queue_limit_bytes is not None:
            # Tail drop once the untransmitted backlog exceeds the limit.
            if d.backlog_bytes(now) > d.queue_limit_bytes:
                d.drops += 1
                return None
        start = d.busy_until if d.busy_until > now else now
        serialization = size_bytes * 8.0 / d.bandwidth_bps
        d.busy_until = start + serialization
        if d.queue_limit_bytes is not None:
            d.queued.append((d.busy_until, size_bytes, d.bandwidth_bps / 8.0))
            d.queued_bytes += size_bytes
        return d.busy_until + d.propagation_s

    def drop_counts(self) -> dict[str, int]:
        return {
            f"{src}->{dst}": d.drops for (src, dst), d in sorted(self._dir.items())
        }
