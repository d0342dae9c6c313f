import random

import pytest
from hypothesis import given, settings, strategies as st

from ndnstream.errors import InvalidTopology, UnknownFace
from ndnstream.forwarding import INTERNAL_FACE, ContentStore, ForwarderNode
from ndnstream.names import name_is_prefix_of, name_parse
from ndnstream.packets import Data, Interest, Nack, NackReason
from ndnstream.wire import encoded_size

from conftest import examples, make_data


def make_node(faces=(1, 2, 3), cs_bytes=1 << 20, prefetch_depth=0, aggregate=True):
    node = ForwarderNode(
        "n1",
        cs_capacity_bytes=cs_bytes,
        prefetch_depth=prefetch_depth,
        nonce_rng=random.Random(1),
        aggregate_interests=aggregate,
    )
    for f in faces:
        node.add_face(f)
    return node


# -- FIB ---------------------------------------------------------------------


def test_lpm_picks_longest_prefix():
    node = make_node()
    node.add_route(name_parse("/ndn"), 1)
    node.add_route(name_parse("/ndn/web"), 2)
    assert node.fib_longest_prefix_match(name_parse("/ndn/web/video/x")) == [(2, 1)]


def test_lpm_root_matches_everything():
    node = make_node()
    node.add_route(name_parse("/"), 1)
    assert node.fib_longest_prefix_match(name_parse("/anything/at/all")) is not None


def test_lpm_no_match():
    node = make_node()
    node.add_route(name_parse("/a"), 1)
    assert node.fib_longest_prefix_match(name_parse("/b/c")) is None


def test_add_route_keeps_one_hop_per_cost_in_cost_order():
    node = make_node()
    node.add_route(name_parse("/f"), 3, cost=2)
    node.add_route(name_parse("/f"), 1, cost=1)
    with pytest.raises(InvalidTopology, match="n1 has two routes for /f at cost 2"):
        node.add_route(name_parse("/f"), 2, cost=2)
    assert node.fib[name_parse("/f")] == [(1, 1), (3, 2)]


def test_negative_prefetch_depth_rejected():
    with pytest.raises(ValueError, match="prefetch depth"):
        make_node(prefetch_depth=-1)


def test_lpm_brute_force_oracle():
    rng = random.Random(5)
    node = make_node()
    prefixes = ["/a", "/a/b", "/a/b/c", "/b", "/c/d"]
    for i, p in enumerate(prefixes):
        node.add_route(name_parse(p), (i % 3) + 1)
    names = ["/a/b/c/d", "/a/x", "/b/z/w", "/c", "/c/d/e", "/q"]
    for text in names:
        name = name_parse(text)
        expected = None
        for p in prefixes:
            pn = name_parse(p)
            if name_is_prefix_of(pn, name) and (expected is None or len(pn) > len(expected)):
                expected = pn
        got = node.fib_longest_prefix_match(name)
        assert got is (node.fib[expected] if expected else None)


# -- Content store ------------------------------------------------------------


def test_cs_prefix_lookup_finds_versioned_chunk(key):
    cs = ContentStore(1 << 20)
    data = make_data("/f", version=3, chunk=0, content=b"x", key=key)
    cs.insert(data, now=0.0)
    hit = cs.lookup(Interest(name_parse("/f"), can_be_prefix=True), now=0.1)
    assert hit == data


def test_cs_empty_lookup_misses():
    cs = ContentStore(1 << 20)
    assert cs.lookup(Interest(name_parse("/f"), can_be_prefix=True), 0.0) is None


def test_cs_prefix_prefers_highest_version_lowest_chunk(key):
    cs = ContentStore(1 << 20)
    v1 = make_data("/f", version=1, chunk=0, key=key)
    v2c1 = make_data("/f", version=2, chunk=1, final=2, key=key)
    v2c0 = make_data("/f", version=2, chunk=0, final=2, key=key)
    for d in (v1, v2c1, v2c0):
        cs.insert(d, 0.0)
    hit = cs.lookup(Interest(name_parse("/f"), can_be_prefix=True), 0.1)
    assert hit == v2c0


def test_cs_prefix_lookup_answers_only_a_file_base(key):
    # "/" and "/f/v=1" are prefixes of the cached name but not its base.
    cs = ContentStore(1 << 20)
    cs.insert(make_data("/f", version=1, chunk=0, key=key), 0.0)
    for text in ("/", "/f/v=1"):
        assert cs.lookup(Interest(name_parse(text), can_be_prefix=True), 0.1) is None
    assert len(cs) == 1


def test_cs_lru_eviction_scripted(key):
    a = make_data("/a", content=b"\x00" * 100, key=key)
    b = make_data("/b", content=b"\x00" * 100, key=key)
    c = make_data("/c", content=b"\x00" * 100, key=key)
    capacity = encoded_size(a) + encoded_size(b)
    cs = ContentStore(capacity)
    cs.insert(a, 0.0)
    cs.insert(b, 1.0)
    assert cs.lookup(Interest(a.name.full()), 2.0) == a  # touch a
    evicted = cs.insert(c, 3.0)
    assert evicted == [b.name.full()]
    assert cs.lookup(Interest(a.name.full()), 4.0) == a


def test_cs_reinsert_is_idempotent(key):
    data = make_data("/f", content=b"zz", key=key)
    cs = ContentStore(1 << 20)
    cs.insert(data, 0.0)
    evicted = cs.insert(data, 1.0)
    assert evicted == []
    assert len(cs) == 1
    assert cs.used_bytes == encoded_size(data)


def test_cs_oversize_data_not_cached(key):
    data = make_data("/f", content=b"\x00" * 1000, key=key)
    cs = ContentStore(100)
    assert cs.insert(data, 0.0) == []
    assert len(cs) == 0


def test_cs_stale_entries_skipped(key):
    data = make_data("/f", content=b"x", key=key, freshness_ms=1000)
    cs = ContentStore(1 << 20)
    cs.insert(data, 0.0)
    assert cs.lookup(Interest(data.name.full()), 0.5) == data
    assert cs.lookup(Interest(data.name.full()), 1.5) is None
    assert len(cs) == 0  # lazily evicted


def test_cs_occupancy_never_exceeds_capacity(key):
    rng = random.Random(17)
    cs = ContentStore(5000)
    for i in range(300):
        data = make_data(f"/f{rng.randrange(40)}", content=bytes(rng.randrange(200)), key=key)
        cs.insert(data, float(i))
        assert cs.used_bytes <= 5000
        assert cs.used_bytes == sum(e.data._wire_size for e in cs.entries.values())


# -- on_interest ---------------------------------------------------------------


def chunk_interest(text, nonce, prefix=False):
    return Interest(name_parse(text), can_be_prefix=prefix, nonce=nonce)


def test_interest_aggregation_single_upstream():
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    interest = chunk_interest("/f/v=1/c=0", nonce=1)
    first = node.on_interest(1, interest, 0.0)
    second = node.on_interest(2, chunk_interest("/f/v=1/c=0", nonce=2), 0.1)
    assert first == [(3, interest)]
    assert second == []
    entry = node.pit[name_parse("/f/v=1/c=0")]
    assert entry.downstream == {1, 2}


def test_retransmission_from_same_face_forwarded_and_refreshes_expiry():
    """A fresh nonce from a face already downstream is a retransmission: it
    goes upstream again and the entry lives a full lifetime from it."""
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    name = name_parse("/f/v=1/c=0")
    node.on_interest(1, Interest(name, nonce=1, lifetime_ms=4000), 0.0)
    retx = Interest(name, nonce=2, lifetime_ms=4000)
    assert node.on_interest(1, retx, 1.0) == [(3, retx)]
    entry = node.pit[name]
    assert entry.downstream == {1}
    assert entry.expiry == pytest.approx(5.0)
    # A shorter lifetime never pulls the expiry in.
    node.on_interest(1, Interest(name, nonce=3, lifetime_ms=100), 2.0)
    assert entry.expiry == pytest.approx(5.0)
    assert node.pit_expire(4.999) == []
    assert node.stats.interests_out == 3


def test_duplicate_nonce_dropped_as_loop():
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=7), 0.0)
    replay = node.on_interest(2, chunk_interest("/f/v=1/c=0", nonce=7), 0.1)
    assert replay == []


def test_cached_data_served_without_pit_entry(key):
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    data = make_data("/f", content=b"x", key=key)
    node.cs.insert(data, 0.0)
    actions = node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=1), 0.5)
    assert actions == [(1, data)]
    assert not node.pit


def test_no_route_nacks_back():
    node = make_node()
    actions = node.on_interest(1, chunk_interest("/x/v=1/c=0", nonce=1), 0.0)
    assert actions == [(1, Nack(name_parse("/x/v=1/c=0"), NackReason.NO_ROUTE))]


def test_unknown_face_raises():
    node = make_node()
    with pytest.raises(UnknownFace):
        node.on_interest(99, chunk_interest("/f/v=1/c=0", nonce=1), 0.0)


def test_next_hop_excludes_arrival_face():
    node = make_node()
    node.add_route(name_parse("/f"), 2, cost=1)
    node.add_route(name_parse("/f"), 3, cost=5)
    actions = node.on_interest(2, chunk_interest("/f/v=1/c=0", nonce=1), 0.0)
    assert actions == [(3, chunk_interest("/f/v=1/c=0", nonce=1))]


def test_hit_miss_counters_match_passed_interests():
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=1), 0.0)
    node.on_interest(2, chunk_interest("/f/v=1/c=0", nonce=2), 0.1)  # aggregated
    node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=1), 0.2)  # loop
    assert node.stats.cs_hits + node.stats.cs_misses == 2


# -- on_data --------------------------------------------------------------------


def test_data_fans_out_to_all_downstreams(key):
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=1), 0.0)
    node.on_interest(2, chunk_interest("/f/v=1/c=0", nonce=2), 0.1)
    data = make_data("/f", content=b"x", key=key)
    actions = node.on_data(3, data, 0.5)
    assert actions == [(1, data), (2, data)]
    assert not node.pit
    assert node.cs.lookup(Interest(data.name.full()), 0.6) == data


def test_unsolicited_data_dropped_not_cached(key):
    node = make_node()
    data = make_data("/f", content=b"x", key=key)
    assert node.on_data(3, data, 0.0) == []
    assert len(node.cs) == 0


def test_discovery_pit_satisfied_by_versioned_data(key):
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f", nonce=1, prefix=True), 0.0)
    data = make_data("/f", version=1, chunk=0, content=b"x", key=key)
    actions = node.on_data(3, data, 0.5)
    assert actions == [(1, data)]


def test_pit_satisfied_only_by_full_name_or_base(key):
    node = make_node()
    node.add_route(name_parse("/"), 3)
    node.cs.insert(make_data("/f", version=1, chunk=1, final=1, key=key), 0.0)
    root = node.on_interest(1, chunk_interest("/", nonce=1, prefix=True), 0.0)
    version = node.on_interest(2, chunk_interest("/f/v=1", nonce=2, prefix=True), 0.0)
    assert [(f, type(p)) for f, p in root + version] == [(3, Interest), (3, Interest)]  # no CS hit
    data = make_data("/f", version=1, chunk=0, final=1, key=key)
    assert node.on_data(3, data, 0.5) == []  # unsolicited
    assert set(node.pit) == {name_parse("/"), name_parse("/f/v=1")}


def test_one_data_satisfies_discovery_and_chunk_entries(key):
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f", nonce=1, prefix=True), 0.0)
    node.on_interest(2, chunk_interest("/f/v=1/c=0", nonce=2), 0.0)
    data = make_data("/f", version=1, chunk=0, content=b"x", key=key)
    assert node.on_data(3, data, 0.5) == [(1, data), (2, data)]
    assert not node.pit


def test_exact_base_interest_not_satisfied_by_chunk_data(key):
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f", nonce=1), 0.0)  # no CanBePrefix
    data = make_data("/f", version=1, chunk=0, content=b"x", key=key)
    assert node.on_data(3, data, 0.5) == []  # unsolicited: /f names no chunk
    assert set(node.pit) == {name_parse("/f")}
    assert len(node.cs) == 0


def test_pit_aggregation_burst_property(key):
    # k interests with distinct nonces -> exactly 1 upstream, k deliveries.
    node = make_node(faces=tuple(range(1, 9)))
    node.add_route(name_parse("/f"), 8)
    k = 6
    upstream = []
    for i in range(k):
        upstream += node.on_interest(i + 1, chunk_interest("/f/v=1/c=0", nonce=100 + i), 0.01 * i)
    assert [(f, type(p)) for f, p in upstream] == [(8, Interest)]
    data = make_data("/f", content=b"x", key=key)
    deliveries = node.on_data(8, data, 1.0)
    assert deliveries == [(i + 1, data) for i in range(k)]


# -- on_nack ----------------------------------------------------------------------


def test_nack_forwarded_to_downstreams():
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=1), 0.0)
    node.on_interest(2, chunk_interest("/f/v=1/c=0", nonce=2), 0.1)
    nack = Nack(name_parse("/f/v=1/c=0"), NackReason.NO_CONTENT)
    actions = node.on_nack(3, nack, 0.5)
    assert actions == [(1, nack), (2, nack)]
    assert not node.pit


def test_nack_without_pit_dropped():
    node = make_node()
    nack = Nack(name_parse("/f/v=1/c=0"), NackReason.NO_CONTENT)
    assert node.on_nack(3, nack, 0.0) == []


def test_nack_after_data_dropped(key):
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=1), 0.0)
    node.on_data(3, make_data("/f", content=b"x", key=key), 0.5)
    nack = Nack(name_parse("/f/v=1/c=0"), NackReason.NO_CONTENT)
    assert node.on_nack(3, nack, 0.6) == []


# -- prefetch -----------------------------------------------------------------------


def test_prefetch_plan_covers_depth(key):
    node = make_node(prefetch_depth=4)
    node.add_route(name_parse("/f"), 3)
    trigger = make_data("/f", version=1, chunk=0, final=10, key=key)
    plan = node.prefetch_plan(trigger, 0.0)
    assert [i.name for i in plan] == [
        name_parse(f"/f/v=1/c={c}") for c in range(1, 5)
    ]
    assert all(not i.can_be_prefix for i in plan)


def test_prefetch_stops_at_final_chunk(key):
    node = make_node(prefetch_depth=4)
    node.add_route(name_parse("/f"), 3)
    trigger = make_data("/f", version=1, chunk=10, final=10, key=key)
    assert node.prefetch_plan(trigger, 0.0) == []


def test_prefetch_skips_cached_and_pending(key):
    node = make_node(prefetch_depth=4)
    node.add_route(name_parse("/f"), 3)
    node.cs.insert(make_data("/f", version=1, chunk=1, final=10, key=key), 0.0)
    node.cs.insert(make_data("/f", version=1, chunk=2, final=10, key=key), 0.0)
    trigger = make_data("/f", version=1, chunk=0, final=10, key=key)
    plan = node.prefetch_plan(trigger, 0.1)
    assert [i.name for i in plan] == [name_parse("/f/v=1/c=3"), name_parse("/f/v=1/c=4")]


def test_prefetch_data_cached_but_not_forwarded(key):
    node = make_node(prefetch_depth=2)
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=1), 0.0)
    trigger = make_data("/f", version=1, chunk=0, final=4, key=key)
    actions = node.on_data(3, trigger, 0.5)
    sends = [(f, p) for f, p in actions if isinstance(p, Data)]
    prefetches = [(f, p) for f, p in actions if isinstance(p, Interest)]
    assert sends == [(1, trigger)]
    assert len(prefetches) == 2
    # prefetched data lands in the cache and produces no forwarding action
    chunk1 = make_data("/f", version=1, chunk=1, final=4, key=key)
    follow = node.on_data(3, chunk1, 0.6)
    assert all(not isinstance(p, Data) for _, p in follow)
    assert node.cs.lookup(Interest(chunk1.name.full()), 0.7) == chunk1


def test_prefetched_data_triggers_the_prefetcher_again(key):
    # Every data packet that satisfies a PIT entry triggers a plan, the
    # node's own prefetches included, so one consumer interest pulls in the
    # rest of the file; the depth bounds only how far each plan looks ahead.
    node = make_node(prefetch_depth=2)
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=1), 0.0)
    chunks = [make_data("/f", version=1, chunk=c, final=5, key=key) for c in range(6)]
    by_name = {data.name.full(): data for data in chunks}
    arriving, prefetched = [chunks[0]], []
    now = 0.0
    while arriving:
        now += 0.1
        for face, packet in node.on_data(3, arriving.pop(0), now):
            if isinstance(packet, Interest):
                assert face == 3
                prefetched.append(packet.name)
                arriving.append(by_name[packet.name])
    assert prefetched == [data.name.full() for data in chunks[1:]]
    assert node.stats.prefetch_sent == 5 and node.pit == {}


class _CountingGets(dict):
    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


@pytest.mark.parametrize("chunk, final", [(0, 10), (1, 4), (3, 4), (4, 4)])
def test_prefetch_plan_in_a_covered_window_costs_one_frontier_lookup(key, chunk, final):
    node = make_node(prefetch_depth=4)
    node.add_route(name_parse("/f"), 3)
    for c in range(1, 6):
        node.cs.insert(make_data("/f", version=1, chunk=c, final=10, key=key), 0.0)
    node.prefetch_plan(make_data("/f", version=1, chunk=0, final=10, key=key), 0.1)
    assert node._frontier[name_parse("/f")][1:3] == (1, 4)
    rng, frontier = node._rng.getstate(), dict(node._frontier)
    node.cs.by_base = _CountingGets(node.cs.by_base)
    trigger = make_data("/f", version=1, chunk=chunk, final=final, key=key)
    assert node.prefetch_plan(trigger, 0.2) == []
    assert node._rng.getstate() == rng and node._frontier == frontier
    assert node.cs.by_base.gets == 0


@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(2, 10), cs_bytes=st.integers(1500, 6000))
def test_prefetch_frontier_walk_matches_brute_force(seed, depth, cs_bytes):
    """Triggers walk forward through one file, stepping -3..+2 chunks and
    rarely flipping version, between churn: large packets of another file
    that evict window slots, the walked file's own chunks of both versions
    put straight into the CS, 30 ms freshness, consumer interests with
    50 ms and 4 s lifetimes, data for pending entries (some larger than
    the CS), nacks (some of prefetch-created entries) and expiry. At each
    trigger the plan and the interests ``_prefetch`` sends are exactly the
    window's slots that are neither fresh in the CS nor pending, so the
    coverage frontier never skips a slot that lost its cover; at the end
    the PIT drains."""
    rng = random.Random(seed)
    final = 60
    node = make_node(cs_bytes=cs_bytes, prefetch_depth=depth)
    node.add_route(name_parse("/f"), 3)

    def data(base, version, chunk, size):
        freshness = rng.choice([30, 3_600_000, 3_600_000, 3_600_000])
        return make_data(base, version, chunk, bytes(size), final, freshness_ms=freshness)

    def fresh(name, now):
        entry = node.cs.entries.get(name)
        return entry is not None and (now - entry.inserted) * 1000.0 <= entry.data.freshness_ms

    def pending():
        """A PIT entry in the last trigger's window if there is one."""
        return rng.choice([n for n in window if n in node.pit] or list(node.pit))

    def prefetched():
        """A prefetch-created PIT entry if there is one, else ``pending()``."""
        ours = [n for n, e in node.pit.items() if INTERNAL_FACE in e.downstream]
        return rng.choice(ours) if ours else pending()

    now, version, chunk, window = 0.0, 1, 0, []
    for nonce in range(200):
        now += rng.uniform(0.0, 0.05)
        op = rng.random()
        if op < 0.06:
            size = rng.randrange(cs_bytes // 3, cs_bytes)
            node.cs.insert(data("/g", 1, rng.randrange(final + 1), size), now)
        elif op < 0.2:
            c = min(chunk + depth + rng.randrange(0, 3), final)
            name = name_parse(f"/f/v={version}/c={c}")
            lifetime = rng.choice([50, 4000])
            node.on_interest(1, Interest(name, nonce=nonce, lifetime_ms=lifetime), now)
        elif op < 0.36 and node.pit:
            v, c = (int(part[2:]) for part in pending().components[-2:])
            size = cs_bytes + 1 if rng.random() < 0.2 else rng.randrange(200)
            node.on_data(3, data("/f", v, c, size), now)
        elif op < 0.39 and node.pit:
            victim = prefetched() if rng.random() < 0.5 else pending()
            node.on_nack(3, Nack(victim, NackReason.NO_ROUTE), now)
        elif op < 0.54:
            node.pit_expire(now)
        elif op < 0.58:
            c = min(chunk + rng.randrange(1, depth + 1), final)
            node.cs.insert(data("/f", rng.choice([1, 2]), c, rng.randrange(200)), now)
        else:
            if rng.random() < 0.05:
                version = 3 - version
            chunk = min(max(chunk + rng.choice([-3, -2, -1, 0, 1, 1, 2, 2, 2]), 0), final)
            trigger = make_data("/f", version=version, chunk=chunk, final=final)
            window = [
                name_parse(f"/f/v={version}/c={c}")
                for c in range(chunk + 1, min(chunk + depth, final) + 1)
            ]
            expected = [n for n in window if not fresh(n, now) and n not in node.pit]
            assert [i.name for i in node.prefetch_plan(trigger, now)] == expected
            assert [p.name for _, p in node._prefetch(trigger, now)] == expected
    if node.pit:
        node.pit_expire(max(e.expiry for e in node.pit.values()))
    assert not node.pit


# -- pit expiry -----------------------------------------------------------------------


def test_pit_expiry_boundary_inclusive():
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    node.on_interest(1, Interest(name_parse("/f/v=1/c=0"), nonce=1, lifetime_ms=5000), 0.0)
    assert node.pit_expire(4.999) == []
    assert node.pit_expire(5.0) == [name_parse("/f/v=1/c=0")]
    assert not node.pit


def test_pit_expiry_filter_oracle():
    node = make_node()
    node.add_route(name_parse("/f"), 3)
    lifetimes = [1000, 2000, 3000, 4000, 5000]
    for i, ms in enumerate(lifetimes):
        node.on_interest(1, Interest(name_parse(f"/f/v=1/c={i}"), nonce=i, lifetime_ms=ms), 0.0)
    expired = node.pit_expire(3.0)
    assert sorted(str(n) for n in expired) == [
        "/f/v=1/c=0",
        "/f/v=1/c=1",
        "/f/v=1/c=2",
    ]
    assert len(node.pit) == 2


# -- aggregation toggle ---------------------------------------------------------------


def test_aggregation_disabled_forwards_every_interest():
    node = make_node(aggregate=False)
    node.add_route(name_parse("/f"), 3)
    a1 = node.on_interest(1, chunk_interest("/f/v=1/c=0", nonce=1), 0.0)
    a2 = node.on_interest(2, chunk_interest("/f/v=1/c=0", nonce=2), 0.1)
    assert [(f, type(p)) for f, p in a1 + a2] == [(3, Interest), (3, Interest)]
