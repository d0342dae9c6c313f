"""Per-node forwarding plane: PIT, FIB, content store and prefetching.

A ForwarderNode is a single-owner state machine. Each handler takes the
arrival face and current simulation time and returns an ordered list of
actions, each a (face, packet) pair: send this packet on that face. The
packet's own type says whether it is an interest, data or a nack. The
host running the node owns all I/O, which keeps the forwarding logic
synchronous and directly testable.

Face 0 is reserved on every node as an internal face: prefetch-created
PIT entries list it as their only downstream so the fetched data lands in
the content store without being forwarded anywhere.

A prefetch plan skips each window slot that is fresh in the CS or pending
in the PIT. Per file base, the node keeps a coverage frontier ``(version,
lo, hi, losses)``: chunks ``lo..hi`` of that version were each covered
while ``cs.drops + _pit_losses`` was ``losses``. A slot loses cover only
through a CS drop, a PIT removal whose chunk the CS did not keep, or its
cached copy going stale. The first two move the count; the third fails
the store's ``all_fresh``, as a stale packet stays stale until dropped.
So while the count holds and the store's bound shows no entry can be
stale (or the base has no cached chunk), a plan whose window starts in
``lo..hi + 1`` tests only the slots past ``hi``.

The FIB maps a prefix to its next hops, (face, cost) pairs in ascending
cost, one per cost. An interest goes to the cheapest next hop of its
longest matching prefix other than the face it came in on (``next_hop``).

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

from .errors import InvalidTopology, UnknownFace
from .names import Name, chunk_name, name_is_prefix_of
from .packets import Data, Interest, Nack, NackReason, Packet, chunk_interest
# encoded_size is not used here; it stays importable as
# forwarding.encoded_size because bench/tracing.py patches it there.
from .wire import encoded_size  # noqa: F401

INTERNAL_FACE = 0

Action = tuple[int, Packet]  # (face, packet to send on it)


@dataclass(slots=True)
class PitEntry:
    downstream: set[int]
    seen_nonces: set[int]
    expiry: float
    can_be_prefix: bool  # of the interest that created the entry


@dataclass(slots=True)
class _CsEntry:
    data: Data
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

    ``earliest`` and ``least`` bound from below the insert time and the
    freshness of every entry the store has held: ``insert`` lowers them
    and nothing raises them. While ``(now - earliest) * 1000.0 <= least``
    no entry can be stale, since float subtraction and multiplication are
    monotone, so discovery and prefetch planning skip the per-entry
    staleness test. Once more time has passed since the first insert than
    the least freshness ever stored, they test each entry.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = capacity_bytes
        self.entries: OrderedDict[Name, _CsEntry] = OrderedDict()
        self.by_base: dict[Name, dict[tuple[int, int], Name]] = {}
        self.earliest = float("inf")  # no entry was inserted before this
        self.least = float("inf")  # no entry has a lower freshness_ms
        self.used_bytes = 0
        self.drops = 0  # entries removed: evicted, stale or replaced

    def __len__(self) -> int:
        return len(self.entries)

    def _stale(self, entry: _CsEntry, now: float) -> bool:
        return (now - entry.inserted) * 1000.0 > entry.data.freshness_ms

    def all_fresh(self, now: float) -> bool:
        """True if no entry can be stale at ``now``."""
        return (now - self.earliest) * 1000.0 <= self.least

    def _drop(self, full_name: Name) -> None:
        self.drops += 1
        entry = self.entries.pop(full_name)
        self.used_bytes -= entry.data._wire_size
        vc = entry.data.name
        chunks = self.by_base[vc.base]
        del chunks[vc.version, vc.chunk]
        if not chunks:
            del self.by_base[vc.base]

    def lookup(self, interest: Interest, now: float) -> Data | None:
        """The fresh packet named exactly, else, for a CanBePrefix interest
        on a file base, that file's lowest fresh chunk of its highest fresh
        version. Stale entries met on the way are dropped; when the store's
        bound shows none can be stale, the file's entries are not visited."""
        full_name = interest.name
        if interest.can_be_prefix and full_name not in self.entries:
            chunks = self.by_base.get(full_name)
            if chunks is None:
                return None
            if not self.all_fresh(now):
                for cached in list(chunks.values()):
                    if self._stale(self.entries[cached], now):
                        self._drop(cached)  # deletes it from ``chunks``
                if not chunks:
                    return None
            full_name = chunks[_first_of_newest(chunks)]
        entry = self.entries.get(full_name)
        if entry is None:
            return None
        if self._stale(entry, now):
            self._drop(full_name)
            return None
        self.entries.move_to_end(full_name)
        return entry.data

    def insert(self, data: Data, now: float) -> list[Name]:
        """Store a packet, evicting least-recently-accessed entries as needed.

        A packet larger than the whole store is not cached (no-op). Returns
        the full names evicted to make room.
        """
        size = data._wire_size
        if size > self.capacity_bytes:
            return []
        full_name = data.name.full()
        if full_name in self.entries:
            self._drop(full_name)
        self.entries[full_name] = _CsEntry(data, now)
        vc = data.name
        self.by_base.setdefault(vc.base, {})[vc.version, vc.chunk] = full_name
        self.earliest = min(self.earliest, now)
        self.least = min(self.least, data.freshness_ms)
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
    """NDN forwarder with PIT aggregation, LPM forwarding and opportunistic caching.
    A positive ``prefetch_depth`` also prefetches up to that many chunks past
    each data packet it answers from the CS or takes for a PIT entry, its own
    prefetches included: once one chunk of a file passes, the node pulls in
    the rest of the file, each plan reaching that many chunks past the chunk
    that triggered it. 0 forwards by best route alone."""

    def __init__(
        self,
        node_id: str,
        cs_capacity_bytes: int = 0,
        prefetch_depth: int = 0,
        nonce_rng: random.Random | None = None,
        aggregate_interests: bool = True,
    ):
        if prefetch_depth < 0:
            raise ValueError("prefetch depth must not be negative")
        self.node_id = node_id
        self.faces: set[int] = {INTERNAL_FACE}
        self.pit: dict[Name, PitEntry] = {}
        self._pit_losses = 0  # PIT removals whose chunk the CS did not keep
        # base -> (version, lo, hi, losses), written by prefetch_plan
        self._frontier: dict[Name, tuple[int, int, int, int]] = {}
        # prefix -> its next hops as (face, cost), costs strictly ascending
        self.fib: dict[Name, list[tuple[int, int]]] = {}
        self.cs = ContentStore(cs_capacity_bytes)
        self.prefetch_depth = prefetch_depth
        self.stats = NodeStats()
        self.aggregate_interests = aggregate_interests
        self._rng = nonce_rng or random.Random(0)

    def add_face(self, face: int) -> None:
        if face == INTERNAL_FACE:
            raise ValueError("face 0 is reserved")
        self.faces.add(face)

    def add_route(self, prefix: Name, face: int, cost: int = 1) -> None:
        """Add a next hop; a prefix has at most one hop per cost."""
        hops = self.fib.setdefault(prefix, [])
        if any(c == cost for _, c in hops):
            raise InvalidTopology(f"{self.node_id} has two routes for {prefix} at cost {cost}")
        hops.append((face, cost))
        hops.sort(key=lambda fc: fc[1])

    def fib_longest_prefix_match(self, name: Name) -> list[tuple[int, int]] | None:
        """The next hops of the longest FIB prefix of ``name``, or None."""
        best: Name | None = None
        for prefix in self.fib:
            if name_is_prefix_of(prefix, name) and (best is None or len(prefix) > len(best)):
                best = prefix
        return None if best is None else self.fib[best]

    def _check_face(self, face: int) -> None:
        if face not in self.faces:
            raise UnknownFace(f"{self.node_id}: no face {face}")

    def next_hop(self, name: Name, exclude: int) -> int | None:
        """The cheapest next hop for ``name`` other than ``exclude``, the face
        it arrived on, or None; ``NetworkSim``'s reachability check uses it too."""
        for face, _cost in self.fib_longest_prefix_match(name) or ():
            if face != exclude:
                return face
        return None

    def on_interest(self, from_face: int, interest: Interest, now: float) -> list[Action]:
        if from_face not in self.faces:
            raise UnknownFace(f"{self.node_id}: no face {from_face}")
        stats = self.stats
        stats.interests_in += 1
        existing = self.pit.get(interest.name)
        if existing is not None and interest.nonce in existing.seen_nonces:
            return []  # looped interest

        cached = self.cs.lookup(interest, now)
        if cached is not None:
            stats.cs_hits += 1
            stats.data_out += 1
            if self.prefetch_depth:
                return [(from_face, cached), *self._prefetch(cached, now)]
            return [(from_face, cached)]
        stats.cs_misses += 1

        if existing is not None:
            retransmission = from_face in existing.downstream
            existing.downstream.add(from_face)
            existing.seen_nonces.add(interest.nonce)
            if self.aggregate_interests:
                if not retransmission:
                    return []
                expiry = now + interest.lifetime_ms / 1000.0
                existing.expiry = max(existing.expiry, expiry)
            upstream = self.next_hop(interest.name, exclude=from_face)
            if upstream is None:
                return []
            stats.interests_out += 1
            return [(upstream, interest)]

        upstream = self.next_hop(interest.name, exclude=from_face)
        if upstream is None:
            stats.nacks_out += 1
            return [(from_face, Nack(interest.name, NackReason.NO_ROUTE))]
        self.pit[interest.name] = PitEntry(
            downstream={from_face},
            seen_nonces={interest.nonce},
            expiry=now + interest.lifetime_ms / 1000.0,
            can_be_prefix=interest.can_be_prefix,
        )
        stats.interests_out += 1
        return [(upstream, interest)]

    def on_data(self, from_face: int, data: Data, now: float) -> list[Action]:
        self._check_face(from_face)
        self.stats.data_in += 1
        faces: set[int] = set()
        full = data.name.full()
        entry = self.pit.pop(full, None)
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
        if self.prefetch_depth:
            if full not in self.cs.entries:
                self._pit_losses += 1
            actions.extend(self._prefetch(data, now))
        return actions

    def on_nack(self, from_face: int, nack: Nack, now: float) -> list[Action]:
        self._check_face(from_face)
        self.stats.nacks_in += 1
        entry = self.pit.pop(nack.interest_name, None)
        if entry is None:
            return []
        self._pit_losses += 1
        actions: list[Action] = [
            (face, nack) for face in sorted(entry.downstream) if face != INTERNAL_FACE
        ]
        self.stats.nacks_out += len(actions)
        return actions

    def prefetch_plan(self, trigger: Data, now: float) -> list[Interest]:
        """Interests for the next chunks of the trigger's file, skipping
        anything already cached or pending. Slots the base's frontier shows
        covered are not tested; any other slot fresh in the CS (with no
        staleness test while the store's bound shows every entry fresh) is
        skipped, and the rest are tested in the PIT. The plan then records
        the covered run up to its first planned slot as the frontier, the
        only state it writes."""
        if not self.prefetch_depth:
            return []
        vc = trigger.name
        base, version = vc.base, vc.version
        cs = self.cs
        held = cs.by_base.get(base, {})
        all_fresh = not held or cs.all_fresh(now)
        cs_entries, stale, pit = cs.entries, cs._stale, self.pit
        losses = cs.drops + self._pit_losses
        first = vc.chunk + 1
        last = min(vc.chunk + self.prefetch_depth, trigger.final_chunk)
        f_version, lo, hi, f_losses = self._frontier.get(base, (None, 0, -1, None))
        reused = all_fresh and f_version == version and f_losses == losses and lo <= first <= hi + 1
        if not reused:
            lo, hi = first, vc.chunk
        covered = max(hi, last)
        plan: list[Interest] = []
        for chunk in range(hi + 1, last + 1):
            full = held.get((version, chunk))
            if full is not None and (all_fresh or not stale(cs_entries[full], now)):
                continue
            if full is None:
                full = chunk_name(base, version, chunk)
            if full in pit:
                continue
            if not plan:
                covered = chunk - 1
            plan.append(chunk_interest(full, self._rng.getrandbits(32)))
        if not reused or covered != hi:
            self._frontier[base] = (version, lo, covered, losses)
        return plan

    def _prefetch(self, trigger: Data, now: float) -> list[Action]:
        actions: list[Action] = []
        for interest in self.prefetch_plan(trigger, now):
            upstream = self.next_hop(interest.name, exclude=INTERNAL_FACE)
            if upstream is None:
                continue
            self.pit[interest.name] = PitEntry(
                {INTERNAL_FACE}, {interest.nonce}, now + interest.lifetime_ms / 1000.0, False
            )
            self.stats.interests_out += 1
            self.stats.prefetch_sent += 1
            actions.append((upstream, interest))
        return actions

    def pit_expire(self, now: float) -> list[Name]:
        """Drop entries whose expiry is at or before ``now``; return their names."""
        expired = [n for n, e in self.pit.items() if e.expiry <= now]
        for name in expired:
            del self.pit[name]
        self._pit_losses += len(expired)
        return expired
