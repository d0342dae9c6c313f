"""Content-store equivalence against a brute-force LRU shadow model."""

import random

from hypothesis import given, settings, strategies as st

from ndnstream.forwarding import ContentStore
from ndnstream.names import name_parse
from ndnstream.packets import Interest
from ndnstream.wire import encoded_size

from conftest import examples, make_data


class ShadowLru:
    """Reference model: dict of name -> (size, last-touch serial); evicts by
    minimum touch serial until under capacity."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}  # name -> [size, serial, data]
        self.serial = 0

    def touch(self, name):
        self.serial += 1
        self.entries[name][1] = self.serial

    def lookup(self, name):
        if name in self.entries:
            self.touch(name)
            return self.entries[name][2]
        return None

    def insert(self, name, size, data):
        if size > self.capacity:
            return []
        self.serial += 1
        self.entries[name] = [size, self.serial, data]
        evicted = []
        while sum(e[0] for e in self.entries.values()) > self.capacity:
            victim = min(self.entries, key=lambda n: self.entries[n][1])
            del self.entries[victim]
            evicted.append(victim)
        return evicted


def run_equivalence(seed, ops, capacity, name_space, payload_max, key):
    rng = random.Random(seed)
    cs = ContentStore(capacity)
    shadow = ShadowLru(capacity)
    now = 0.0
    for _ in range(ops):
        now += 0.001
        name_id = rng.randrange(name_space)
        if rng.random() < 0.5:
            data = make_data(
                f"/s/{name_id}", content=bytes(rng.randrange(payload_max)), key=key
            )
            full = data.name.full()
            evicted = cs.insert(data, now)
            shadow_evicted = shadow.insert(full, encoded_size(data), data)
            assert evicted == shadow_evicted, f"eviction mismatch at op on {full}"
        else:
            full = make_data(f"/s/{name_id}", key=key).name.full()
            got = cs.lookup(Interest(full), now)
            expected = shadow.lookup(full)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got == expected
        assert cs.used_bytes <= capacity
        assert set(cs.entries) == set(shadow.entries)


def test_lru_matches_shadow_model(key):
    run_equivalence(seed=42, ops=2000, capacity=4000, name_space=25, payload_max=150, key=key)


def test_lru_matches_shadow_model_tight_capacity(key):
    run_equivalence(seed=7, ops=2000, capacity=800, name_space=10, payload_max=120, key=key)


def _assert_index_matches(cs):
    indexed = [n for names in cs.by_base.values() for n in names.values()]
    assert len(indexed) == len(cs.entries)
    assert set(indexed) == set(cs.entries)
    for base, names in cs.by_base.items():
        assert names, f"empty index slot for {base}"
        assert all(cs.entries[n].data.name.base == base for n in names.values())
        for (version, chunk), n in names.items():
            vc = cs.entries[n].data.name
            assert (vc.version, vc.chunk) == (version, chunk)


def run_discovery_equivalence(seed, ops, capacity, bases, key):
    """Exact and discovery lookups over several versions and chunks per base,
    with short-lived packets, against the shadow plus a brute-force scan."""
    rng = random.Random(seed)
    cs = ContentStore(capacity)
    shadow = ShadowLru(capacity)
    inserted = {}  # full name -> insert time, for the shadow's freshness

    def stale(name, now):
        return (now - inserted[name]) * 1000.0 > shadow.entries[name][2].freshness_ms

    now = 0.0
    for _ in range(ops):
        now += 0.001
        base = f"/s/{rng.randrange(bases)}"
        op = rng.random()
        if op < 0.5:
            data = make_data(
                base,
                version=rng.randrange(1, 4),
                chunk=rng.randrange(4),
                final=3,
                content=bytes(rng.randrange(80)),
                key=key,
                freshness_ms=rng.choice([40, 3_600_000]),
            )
            full = data.name.full()
            evicted = cs.insert(data, now)
            inserted[full] = now
            assert evicted == shadow.insert(full, encoded_size(data), data)
        elif op < 0.75:
            full = make_data(base, version=rng.randrange(1, 4), chunk=rng.randrange(4)).name.full()
            got = cs.lookup(Interest(full), now)
            expected = None
            if full in shadow.entries:
                if stale(full, now):
                    del shadow.entries[full]
                else:
                    expected = shadow.lookup(full)
            assert got == expected
        else:
            under = [n for n in shadow.entries if shadow.entries[n][2].name.base == name_parse(base)]
            for n in under:
                if stale(n, now):
                    del shadow.entries[n]
            fresh = [n for n in under if n in shadow.entries]
            expected = None
            if fresh:
                vc = lambda n: shadow.entries[n][2].name
                expected = shadow.lookup(min(fresh, key=lambda n: (-vc(n).version, vc(n).chunk)))
            got = cs.lookup(Interest(name_parse(base), can_be_prefix=True), now)
            assert got == expected
        assert cs.used_bytes <= capacity
        assert set(cs.entries) == set(shadow.entries)
        _assert_index_matches(cs)


def test_discovery_lookup_matches_brute_force_under_churn(key):
    run_discovery_equivalence(seed=11, ops=2000, capacity=3000, bases=6, key=key)


class FreshnessModel:
    """Brute-force store: full name -> (data, size, insert time) in LRU
    order, dropping the stale entries a lookup meets. A discovery visits
    every entry of the base."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}

    def stale(self, name, now):
        data, _size, inserted = self.entries[name]
        return (now - inserted) * 1000.0 > data.freshness_ms

    def touch(self, name):
        self.entries[name] = self.entries.pop(name)
        return self.entries[name][0]

    def insert(self, data, now):
        size = encoded_size(data)
        if size > self.capacity:
            return
        name = data.name.full()
        self.entries.pop(name, None)
        self.entries[name] = (data, size, now)
        while sum(size for _data, size, _at in self.entries.values()) > self.capacity:
            del self.entries[next(iter(self.entries))]

    def lookup(self, name, now):
        if name not in self.entries:
            return None
        if self.stale(name, now):
            del self.entries[name]
            return None
        return self.touch(name)

    def discover(self, base, now):
        under = [n for n, (data, _s, _at) in self.entries.items() if data.name.base == base]
        for name in under:
            if self.stale(name, now):
                del self.entries[name]
        fresh = [n for n in under if n in self.entries]
        if not fresh:
            return None
        vc = {n: self.entries[n][0].name for n in fresh}
        return self.touch(min(fresh, key=lambda n: (-vc[n].version, vc[n].chunk)))

    def by_base(self):
        index = {}
        for name, (data, _size, _at) in self.entries.items():
            vc = data.name
            index.setdefault(vc.base, {})[vc.version, vc.chunk] = name
        return index


def run_one_file_churn(seed, ops, capacity, key):
    """One file whose chunks carry 40 ms or 1 h freshness, under LRU
    eviction; every answer and the store's state must match the model."""
    rng = random.Random(seed)
    cs = ContentStore(capacity)
    model = FreshnessModel(capacity)
    base = name_parse("/f")
    now = 0.0
    for _ in range(ops):
        now += rng.choice([0.0, 0.001, 0.004, 0.015, 0.03])
        version, chunk = rng.randrange(1, 4), rng.randrange(8)
        op = rng.random()
        if op < 0.45:
            data = make_data(
                "/f",
                version=version,
                chunk=chunk,
                final=7,
                content=bytes(rng.randrange(100)),
                key=key,
                freshness_ms=rng.choice([40, 3_600_000]),
            )
            cs.insert(data, now)
            model.insert(data, now)
        elif op < 0.65:
            full = make_data("/f", version=version, chunk=chunk, final=7).name.full()
            assert cs.lookup(Interest(full), now) is model.lookup(full, now)
        else:
            got = cs.lookup(Interest(base, can_be_prefix=True), now)
            assert got is model.discover(base, now)
        assert list(cs.entries) == list(model.entries)
        assert cs.used_bytes == sum(size for _data, size, _at in model.entries.values())
        assert cs.by_base == model.by_base()


def test_one_file_discovery_matches_brute_force_under_mixed_freshness(key):
    for seed in range(4):
        run_one_file_churn(seed, ops=1500, capacity=1200, key=key)


# (time step, op, base, version, chunk, freshness_ms and payload bytes of an insert)
_OPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.004, 0.015, 0.03, 0.05]),
        st.sampled_from(["insert", "exact", "prefix"]),
        st.integers(0, 2),
        st.integers(1, 2),
        st.integers(0, 3),
        st.sampled_from([30, 40, 3_600_000]),
        st.integers(0, 120),
    ),
    min_size=30,
    max_size=80,
)


@settings(max_examples=examples(60), deadline=None)
@given(ops=_OPS)
def test_store_wide_bound_holds_under_random_ops(ops):
    """Inserts of 30 ms, 40 ms or 1 h freshness into a store of about five
    packets (so they evict and replace), exact and CanBePrefix lookups, and
    time moving forward. After every op the store-wide bound is at or below
    every entry's insert time and freshness, so ``all_fresh`` never vouches
    for a stale entry; the bytes add up, the base index mirrors the entries,
    and every answer and the LRU order match the brute-force model."""
    cs = ContentStore(600)
    model = FreshnessModel(600)
    now = 0.0
    for step, op, b, version, chunk, freshness_ms, payload in ops:
        now += step
        base = f"/s/{b}"
        if op == "insert":
            data = make_data(
                base, version=version, chunk=chunk, final=3, content=bytes(payload),
                freshness_ms=freshness_ms,
            )
            cs.insert(data, now)
            model.insert(data, now)
        elif op == "exact":
            full = make_data(base, version=version, chunk=chunk, final=3).name.full()
            assert cs.lookup(Interest(full), now) is model.lookup(full, now)
        else:
            got = cs.lookup(Interest(name_parse(base), can_be_prefix=True), now)
            assert got is model.discover(name_parse(base), now)
        held = list(cs.entries.values())
        if cs.all_fresh(now):
            assert not any(cs._stale(entry, now) for entry in held)
        assert all(cs.earliest <= entry.inserted for entry in held)
        assert all(cs.least <= entry.data.freshness_ms for entry in held)
        assert cs.used_bytes == sum(entry.data._wire_size for entry in held)
        _assert_index_matches(cs)
        assert list(cs.entries) == list(model.entries)


def test_discovery_inside_the_freshness_bound_visits_no_entry(key, monkeypatch):
    cs = ContentStore(1 << 20)
    for chunk in (2, 0, 1):
        cs.insert(make_data("/f", chunk=chunk, final=2, freshness_ms=40, key=key), 0.0)
    base = name_parse("/f")
    assert (0.04 - 0.0) * 1000.0 == 40  # the last instant every entry is fresh
    assert cs.all_fresh(0.04) and not cs.all_fresh(0.0401)
    stale_tests = []
    stale = ContentStore._stale
    monkeypatch.setattr(
        ContentStore, "_stale", lambda self, e, now: stale_tests.append(e) or stale(self, e, now)
    )
    got = cs.lookup(Interest(base, can_be_prefix=True), 0.04)
    assert got.name.chunk == 0
    assert len(stale_tests) == 1  # the answer only, not each of the file's entries
    assert cs.lookup(Interest(base, can_be_prefix=True), 0.0401) is None
    assert len(cs) == 0 and cs.by_base == {} and cs.used_bytes == 0
