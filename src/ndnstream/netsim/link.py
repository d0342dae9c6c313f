"""Point-to-point links with per-direction bandwidth, delay and tail-drop queues."""

from __future__ import annotations

from dataclasses import dataclass


class _Direction:
    __slots__ = ("propagation_s", "bandwidth_bps", "queue_limit_bytes", "busy_until", "drops")

    def __init__(self, propagation_ms: float, bandwidth_bps: float | None, queue_limit_bytes: int | None):
        self.propagation_s = propagation_ms / 1000.0
        self.bandwidth_bps = bandwidth_bps
        self.queue_limit_bytes = queue_limit_bytes
        self.busy_until = 0.0
        self.drops = 0


@dataclass(frozen=True)
class Dropped:
    reason: str = "queue-overflow"


class Link:
    """FIFO per direction. A packet sent at ``now`` starts serializing when
    the direction goes idle and arrives one propagation delay after the
    last bit leaves. Bandwidth changes apply to packets sent afterwards;
    anything already queued keeps its committed timing.
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

    def transmit(self, src: str, dst: str, size_bytes: int, now: float) -> float | Dropped:
        """Arrival time at ``dst``, or Dropped on tail-drop."""
        d = self._dir[(src, dst)]
        if d.bandwidth_bps is None:
            return now + d.propagation_s
        if d.queue_limit_bytes is not None:
            # Tail drop once the untransmitted backlog exceeds the limit.
            backlog = max(0.0, d.busy_until - now) * d.bandwidth_bps / 8.0
            if backlog > d.queue_limit_bytes:
                d.drops += 1
                return Dropped()
        start = max(now, d.busy_until)
        serialization = size_bytes * 8.0 / d.bandwidth_bps
        d.busy_until = start + serialization
        return d.busy_until + d.propagation_s

    def drop_counts(self) -> dict[str, int]:
        return {
            f"{src}->{dst}": d.drops for (src, dst), d in sorted(self._dir.items())
        }
