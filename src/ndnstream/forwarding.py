"""Per-node forwarding plane: PIT, FIB, content store and strategies.

A ForwarderNode is a single-owner state machine. Each handler takes the
arrival face and current simulation time and returns an ordered list of
actions, each a (face, packet) pair: send this packet on that face. The
packet's own type says whether it is an interest, data or a nack. The
host running the node owns all I/O, which keeps the forwarding logic
synchronous and directly testable.

Face 0 is reserved on every node as an internal face: prefetch-created
PIT entries list it as their only downstream so the fetched data lands in
the content store without being forwarded anywhere. The node also indexes
those entries by file base and then by (version, chunk), as the content
store indexes its packets, so a prefetch plan tests each slot of its window
by dict lookups: a slot fresh in the CS is skipped, then a slot in the
prefetch index; only the rest build a chunk name and test the PIT, which
catches consumer-made entries and slots the CS holds only stale.

A retransmission (a fresh nonce from a face already downstream of the PIT
entry) is forwarded upstream and extends the entry's expiry, as in NFD; an
interest from a new face is aggregated.

Names match by one rule: an interest names one chunk exactly or, with
CanBePrefix, one file's base. The content store answers a base through
its base index, and a data packet satisfies the PIT entry at its full
name and, if a CanBePrefix interest created it, the one at its base, so
neither table is ever scanned.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass

from .errors import UnknownFace
from .names import Name, chunk_index, chunk_name, name_is_prefix_of
from .packets import Data, Interest, Nack, NackReason, Packet
from .wire import encoded_size

INTERNAL_FACE = 0

Action = tuple[int, Packet]  # (face, packet to send on it)


@dataclass(frozen=True)
class BestRoute:
    pass


@dataclass(frozen=True)
class GatewayPrefetch:
    depth: int = 16

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("prefetch depth must be at least 1")


Strategy = BestRoute | GatewayPrefetch


@dataclass
class FibEntry:
    prefix: Name
    next_hops: list[tuple[int, int]]  # (face, cost), costs strictly ascending

    def __post_init__(self) -> None:
        if not self.next_hops:
            raise ValueError("next_hops must be non-empty")
        costs = [c for _, c in self.next_hops]
        if any(a >= b for a, b in zip(costs, costs[1:])):
            raise ValueError("next hop costs must be strictly ascending")


@dataclass
class PitEntry:
    downstream: set[int]
    seen_nonces: set[int]
    expiry: float
    can_be_prefix: bool  # of the interest that created the entry
    # (base, (version, chunk)) of an entry the prefetcher created, else None
    prefetch_slot: tuple[Name, tuple[int, int]] | None = None


@dataclass(slots=True)
class _CsEntry:
    data: Data
    size: int
    inserted: float


def _first_of_newest(slots: dict[tuple[int, int], Name]) -> tuple[int, int]:
    """The (version, chunk) slot of the lowest chunk of the highest version."""
    version = max(slots)[0]
    return version, min(chunk for v, chunk in slots if v == version)


class ContentStore:
    """Byte-capacity LRU cache of data packets keyed by full name.

    ``by_base`` indexes the cached full names by file base and then by
    (version, chunk), so a discovery interest finds its file's chunks and
    the prefetcher tests a chunk slot without building or scanning names.

    ``_bounds`` keeps, per base, a lower bound on the insert times and on
    the freshness of that base's entries: ``insert`` lowers it, ``_drop``
    leaves it (still a lower bound) and deletes it with the base's last
    entry, and a staleness scan sets it exactly from the entries it keeps.
    While ``(now - earliest) * 1000.0 <= least`` no entry of the base can
    be stale, since float subtraction and multiplication are monotone, so
    discovery and prefetch planning skip the per-entry staleness test.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = capacity_bytes
        self.entries: OrderedDict[Name, _CsEntry] = OrderedDict()
        self.by_base: dict[Name, dict[tuple[int, int], Name]] = {}
        # base -> (earliest insert time, least freshness_ms) of its entries
        self._bounds: dict[Name, tuple[float, int]] = {}
        self.used_bytes = 0

    def __len__(self) -> int:
        return len(self.entries)

    def _stale(self, entry: _CsEntry, now: float) -> bool:
        return (now - entry.inserted) * 1000.0 > entry.data.freshness_ms

    def all_fresh(self, base: Name, now: float) -> bool:
        """True if the store holds some chunk of ``base`` and none of them
        can be stale at ``now``."""
        bound = self._bounds.get(base)
        return bound is not None and (now - bound[0]) * 1000.0 <= bound[1]

    def _drop(self, full_name: Name) -> None:
        entry = self.entries.pop(full_name)
        self.used_bytes -= entry.size
        vc = entry.data.name
        chunks = self.by_base[vc.base]
        del chunks[vc.version, vc.chunk]
        if not chunks:
            del self.by_base[vc.base]
            del self._bounds[vc.base]

    def lookup(self, interest: Interest, now: float) -> Data | None:
        """The fresh packet named exactly, else, for a CanBePrefix interest
        on a file base, that file's lowest fresh chunk of its highest fresh
        version. Stale entries met on the way are dropped; when the base's
        bound shows none can be stale, the file's entries are not visited."""
        full_name = interest.name
        if interest.can_be_prefix and full_name not in self.entries:
            chunks = self.by_base.get(full_name)
            if chunks is None:
                return None
            if self.all_fresh(full_name, now):
                full_name = chunks[_first_of_newest(chunks)]
            else:
                full_name = self._fresh_scan(full_name, chunks, now)
                if full_name is None:
                    return None
        entry = self.entries.get(full_name)
        if entry is None:
            return None
        if self._stale(entry, now):
            self._drop(full_name)
            return None
        self.entries.move_to_end(full_name)
        return entry.data

    def _fresh_scan(
        self, base: Name, chunks: dict[tuple[int, int], Name], now: float
    ) -> Name | None:
        """Drop the base's stale entries, set its bound from the rest and
        return the full name of its lowest chunk of the highest version
        left, or None if none is left."""
        for cached in list(chunks.values()):
            if self._stale(self.entries[cached], now):
                self._drop(cached)  # deletes it from ``chunks``
        if not chunks:
            return None
        kept = [self.entries[cached] for cached in chunks.values()]
        self._bounds[base] = (
            min(entry.inserted for entry in kept),
            min(entry.data.freshness_ms for entry in kept),
        )
        return chunks[_first_of_newest(chunks)]

    def insert(self, data: Data, now: float) -> list[Name]:
        """Store a packet, evicting least-recently-accessed entries as needed.

        A packet larger than the whole store is not cached (no-op). Returns
        the full names evicted to make room.
        """
        size = encoded_size(data)
        if size > self.capacity_bytes:
            return []
        full_name = data.name.full()
        if full_name in self.entries:
            self._drop(full_name)
        self.entries[full_name] = _CsEntry(data, size, now)
        vc = data.name
        base = vc.base
        self.by_base.setdefault(base, {})[vc.version, vc.chunk] = full_name
        bound = self._bounds.get(base, (now, data.freshness_ms))
        self._bounds[base] = (min(bound[0], now), min(bound[1], data.freshness_ms))
        self.used_bytes += size
        evicted: list[Name] = []
        while self.used_bytes > self.capacity_bytes:
            victim = next(iter(self.entries))
            self._drop(victim)
            evicted.append(victim)
        return evicted


@dataclass
class NodeStats:
    interests_in: int = 0
    interests_out: int = 0
    data_in: int = 0
    data_out: int = 0
    nacks_in: int = 0
    nacks_out: int = 0
    cs_hits: int = 0
    cs_misses: int = 0
    prefetch_sent: int = 0


class ForwarderNode:
    """NDN forwarder with PIT aggregation, LPM forwarding and opportunistic caching."""

    def __init__(
        self,
        node_id: str,
        cs_capacity_bytes: int = 0,
        strategy: Strategy = BestRoute(),
        nonce_rng: random.Random | None = None,
        aggregate_interests: bool = True,
    ):
        self.node_id = node_id
        self.faces: set[int] = {INTERNAL_FACE}
        self.pit: dict[Name, PitEntry] = {}
        # The PIT entries the prefetcher created (downstream includes face 0),
        # by base and then by (version, chunk), as ``ContentStore.by_base``.
        self.prefetching: dict[Name, dict[tuple[int, int], Name]] = {}
        self.fib: dict[Name, FibEntry] = {}
        self.cs = ContentStore(cs_capacity_bytes)
        self.strategy = strategy
        self.stats = NodeStats()
        self.aggregate_interests = aggregate_interests
        self._rng = nonce_rng or random.Random(0)

    def add_face(self, face: int) -> None:
        if face == INTERNAL_FACE:
            raise ValueError("face 0 is reserved")
        self.faces.add(face)

    def add_route(self, prefix: Name, face: int, cost: int = 1) -> None:
        entry = self.fib.get(prefix)
        if entry is None:
            self.fib[prefix] = FibEntry(prefix, [(face, cost)])
        else:
            hops = sorted(entry.next_hops + [(face, cost)], key=lambda fc: fc[1])
            self.fib[prefix] = FibEntry(prefix, hops)

    def fib_longest_prefix_match(self, name: Name) -> FibEntry | None:
        best: FibEntry | None = None
        for prefix, entry in self.fib.items():
            if name_is_prefix_of(prefix, name):
                if best is None or len(prefix) > len(best.prefix):
                    best = entry
        return best

    def _check_face(self, face: int) -> None:
        if face not in self.faces:
            raise UnknownFace(f"{self.node_id}: no face {face}")

    def _next_hop(self, name: Name, exclude: int) -> int | None:
        entry = self.fib_longest_prefix_match(name)
        if entry is None:
            return None
        for face, _cost in entry.next_hops:
            if face != exclude:
                return face
        return None

    def on_interest(self, from_face: int, interest: Interest, now: float) -> list[Action]:
        if from_face not in self.faces:
            raise UnknownFace(f"{self.node_id}: no face {from_face}")
        self.stats.interests_in += 1
        existing = self.pit.get(interest.name)
        if existing is not None and interest.nonce in existing.seen_nonces:
            return []  # looped interest

        cached = self.cs.lookup(interest, now)
        if cached is not None:
            self.stats.cs_hits += 1
            self.stats.data_out += 1
            if isinstance(self.strategy, GatewayPrefetch):
                return [(from_face, cached), *self._prefetch(cached, now)]
            return [(from_face, cached)]
        self.stats.cs_misses += 1

        if existing is not None:
            retransmission = from_face in existing.downstream
            existing.downstream.add(from_face)
            existing.seen_nonces.add(interest.nonce)
            if self.aggregate_interests:
                if not retransmission:
                    return []
                expiry = now + interest.lifetime_ms / 1000.0
                existing.expiry = max(existing.expiry, expiry)
            upstream = self._next_hop(interest.name, exclude=from_face)
            if upstream is None:
                return []
            self.stats.interests_out += 1
            return [(upstream, interest)]

        upstream = self._next_hop(interest.name, exclude=from_face)
        if upstream is None:
            self.stats.nacks_out += 1
            return [(from_face, Nack(interest.name, NackReason.NO_ROUTE))]
        self.pit[interest.name] = PitEntry(
            downstream={from_face},
            seen_nonces={interest.nonce},
            expiry=now + interest.lifetime_ms / 1000.0,
            can_be_prefix=interest.can_be_prefix,
        )
        self.stats.interests_out += 1
        return [(upstream, interest)]

    def on_data(self, from_face: int, data: Data, now: float) -> list[Action]:
        self._check_face(from_face)
        self.stats.data_in += 1
        faces: set[int] = set()
        entry = self._pit_pop(data.name.full())
        if entry is not None:
            faces |= entry.downstream
        base = data.name.base
        entry = self.pit.get(base)
        if entry is not None and entry.can_be_prefix:
            del self.pit[base]
            faces |= entry.downstream
        if not faces:
            return []  # unsolicited
        actions: list[Action] = [(face, data) for face in sorted(faces) if face != INTERNAL_FACE]
        self.stats.data_out += len(actions)
        self.cs.insert(data, now)
        if isinstance(self.strategy, GatewayPrefetch):
            actions.extend(self._prefetch(data, now))
        return actions

    def on_nack(self, from_face: int, nack: Nack, now: float) -> list[Action]:
        self._check_face(from_face)
        self.stats.nacks_in += 1
        entry = self._pit_pop(nack.interest_name)
        if entry is None:
            return []
        actions: list[Action] = [
            (face, nack) for face in sorted(entry.downstream) if face != INTERNAL_FACE
        ]
        self.stats.nacks_out += len(actions)
        return actions

    def prefetch_plan(self, trigger: Data, now: float) -> list[Interest]:
        """Interests for the next chunks of the trigger's file, skipping
        anything already cached or pending. Each slot of the window is
        tested in turn: fresh in the CS (through its (version, chunk)
        index, and with no staleness test while the base's bound shows
        every entry fresh), skip; in the prefetch index, skip; otherwise
        its name is built (or taken from a stale CS entry) and tested in
        the PIT."""
        if not isinstance(self.strategy, GatewayPrefetch):
            return []
        vc = trigger.name
        base, version = vc.base, vc.version
        cs = self.cs
        held = cs.by_base.get(base, {})
        all_fresh = cs.all_fresh(base, now)
        cs_entries, stale = cs.entries, cs._stale
        prefetching = self.prefetching.get(base, {})
        plan: list[Interest] = []
        last = min(vc.chunk + self.strategy.depth, trigger.final_chunk)
        for chunk in range(vc.chunk + 1, last + 1):
            slot = (version, chunk)
            full = held.get(slot)
            if full is not None and (all_fresh or not stale(cs_entries[full], now)):
                continue
            if slot in prefetching:
                continue
            if full is None:
                full = chunk_name(base, version, chunk)
            if full in self.pit:
                continue
            plan.append(Interest(name=full, can_be_prefix=False, nonce=self._rng.getrandbits(32)))
        return plan

    def _prefetch(self, trigger: Data, now: float) -> list[Action]:
        actions: list[Action] = []
        base, version = trigger.name.base, trigger.name.version
        for interest in self.prefetch_plan(trigger, now):
            upstream = self._next_hop(interest.name, exclude=INTERNAL_FACE)
            if upstream is None:
                continue
            slot = (version, chunk_index(interest.name))
            self.pit[interest.name] = PitEntry(
                downstream={INTERNAL_FACE},
                seen_nonces={interest.nonce},
                expiry=now + interest.lifetime_ms / 1000.0,
                can_be_prefix=False,
                prefetch_slot=(base, slot),
            )
            self.prefetching.setdefault(base, {})[slot] = interest.name
            self.stats.interests_out += 1
            self.stats.prefetch_sent += 1
            actions.append((upstream, interest))
        return actions

    def _pit_pop(self, name: Name) -> PitEntry | None:
        """Remove and return the PIT entry at ``name``, keeping the prefetch
        index in step; None if there is none."""
        entry = self.pit.pop(name, None)
        if entry is not None and entry.prefetch_slot is not None:
            base, slot = entry.prefetch_slot
            slots = self.prefetching[base]
            del slots[slot]
            if not slots:
                del self.prefetching[base]
        return entry

    def pit_expire(self, now: float) -> list[Name]:
        """Drop entries whose expiry is at or before ``now``; return their names."""
        expired = [n for n, e in self.pit.items() if e.expiry <= now]
        for name in expired:
            self._pit_pop(name)
        return expired
