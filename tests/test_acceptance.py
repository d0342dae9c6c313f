"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria that share an experiment reuse a module-scoped run. Tolerances
are pinned here, not computed from the implementation under test.
"""

import hashlib
import json
import math
import pathlib
import random
import statistics
import time

import pytest

from ndnstream.errors import IntegrityFailure
from ndnstream.experiments import (
    CACHE_CG_PROP_MS,
    CACHE_CHUNK_BYTES,
    CACHE_LINK_BPS,
    CACHE_WINDOW,
    EXPERIMENTS,
    STAIRCASE_STEP_S,
    STAIRCASE_STEPS_MBPS,
    experiment_scenario,
)
from ndnstream.forwarding import ContentStore
from ndnstream.names import name_parse
from ndnstream.netsim.scenario import ScenarioRun, parse_scenario, run_scenario
from ndnstream.netsim.topology import NetworkSim
from ndnstream.packets import Data, Interest, KeyMaterial
from ndnstream.producer import Repository
from ndnstream.wire import decode_packet, encode_packet, encoded_size

from conftest import make_data, random_packet, unplayed_media_playlists

TIER_MIN_BW = {
    "240p": 0.6e6,
    "360p": 0.9e6,
    "480p": 1.8e6,
    "720p": 3.3e6,
    "1080p": 6.3e6,
}
TIER_ORDER = ["240p", "360p", "480p", "720p", "1080p"]
DATA = pathlib.Path(__file__).parent / "data"


def _target_tier(rate_bps: float, safety: float = 0.95) -> str:
    budget = safety * rate_bps
    chosen = TIER_ORDER[0]
    for label in TIER_ORDER:
        if TIER_MIN_BW[label] <= budget:
            chosen = label
    return chosen


def _announce(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


# -- shared runs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def staircase_run():
    started = time.perf_counter()
    report = run_scenario(experiment_scenario("abr-staircase"))
    wall = time.perf_counter() - started
    return report, wall


@pytest.fixture(scope="module")
def no_cache_run():
    return run_scenario(experiment_scenario("no-cache"))


@pytest.fixture(scope="module")
def with_cache_run():
    return run_scenario(experiment_scenario("with-cache"))


@pytest.fixture(scope="module")
def prefetch_run():
    return run_scenario(experiment_scenario("prefetch"))


@pytest.fixture(scope="module")
def data_scenario_runs():
    """Each scenario file pinned in tests/data/scenario_digests.json, run
    once: its report.json text and its event count."""
    runs = {}
    for name in json.loads((DATA / "scenario_digests.json").read_text()):
        run = ScenarioRun(parse_scenario((DATA / name).read_text()))
        runs[name] = (run.run().to_json(), run.sim.engine.executed)
    return runs


def _segments(report):
    return [f for f in report.sessions[0].files if f.role == "segment"]


def _mean_file_jitter(report):
    return statistics.mean(f.jitter_ms for f in report.sessions[0].files)


# -- criterion 1: ABR staircase -----------------------------------------------------


def test_criterion_1_abr_staircase(staircase_run):
    report, wall = staircase_run
    session = report.sessions[0]
    assert session.aborted is None
    segments = _segments(report)

    settling = 3
    down_phase: list[str] = []
    up_phase: list[str] = []
    for i, rate_mbps in enumerate(STAIRCASE_STEPS_MBPS):
        t0, t1 = i * STAIRCASE_STEP_S, (i + 1) * STAIRCASE_STEP_S
        tiers = [f.tier for f in segments if t0 <= f.started < t1]
        target = _target_tier(rate_mbps * 1e6)
        # after at most `settling` downloads inside the step, the selected
        # tier must be the highest whose floor fits under 0.95x the rate
        for tier in tiers[settling:]:
            assert tier == target, f"step {rate_mbps} Mbps: {tier} != {target}"
        if rate_mbps == 20.0:
            assert tiers[-1] == "1080p"
        if rate_mbps == 0.8:
            assert tiers[-1] == "240p"
        if 1 <= i <= 5:
            down_phase.extend(tiers)
        elif i >= 6:
            up_phase.extend(tiers)

    down_idx = [TIER_ORDER.index(t) for t in down_phase]
    up_idx = [TIER_ORDER.index(t) for t in up_phase]
    assert all(a >= b for a, b in zip(down_idx, down_idx[1:])), "down phase not monotone"
    assert all(a <= b for a, b in zip(up_idx, up_idx[1:])), "up phase not monotone"
    assert wall < 10.0, f"staircase took {wall:.1f}s wall clock"
    _announce(1, f"staircase tracked all {len(STAIRCASE_STEPS_MBPS)} steps in {wall:.1f}s")


# -- criterion 2: RTT calibration ----------------------------------------------------


def test_criterion_2_rtt_calibration():
    report = run_scenario(experiment_scenario("rtt-calibration"))
    session = report.sessions[0]
    assert session.aborted is None

    # analytic oracle: propagation + serialization + server processing
    prop_cg, prop_gs = 0.010, 0.030
    bw = 1e9
    proc = 0.001
    interest_wire = 70
    data_wire = CACHE_CHUNK_BYTES + 104
    oracle_ms = 1000 * (
        2 * (prop_cg + prop_gs)
        + proc
        + 2 * interest_wire * 8 / bw
        + 2 * data_wire * 8 / bw
    )

    chunk_rtts = [
        t.rtt_ms
        for f in session.files
        for t in f.timings
        if t.received is not None and f.role == "segment"
    ]
    assert chunk_rtts
    for rtt in chunk_rtts:
        assert abs(rtt - oracle_ms) <= 0.10 * oracle_ms

    file_avgs = [f.avg_rtt_ms for f in session.files]
    cdf_sorted = sorted(file_avgs)
    n = len(cdf_sorted)
    lo, hi = cdf_sorted[int(0.05 * n)], cdf_sorted[min(int(math.ceil(0.95 * n)), n - 1)]
    midpoint = (lo + hi) / 2
    assert (hi - lo) <= 0.35 * midpoint
    _announce(2, f"per-chunk RTT within 10% of {oracle_ms:.1f} ms oracle")


# -- criteria 3 and 4: warm cache improves RTT, worsens jitter ------------------------


def test_criterion_3_with_cache_improvement(no_cache_run, with_cache_run):
    cold = no_cache_run.sessions[0]
    warm = with_cache_run.sessions[0]
    assert cold.aborted is None and warm.aborted is None

    cold_median = statistics.median(f.avg_rtt_ms for f in cold.files)
    warm_median = statistics.median(f.avg_rtt_ms for f in warm.files)
    assert warm_median < cold_median

    ratio = with_cache_run.cache["gw"].hit_ratio
    assert 0.0 < ratio < 1.0

    labels = [label for _t, label in warm.quality_timeline]
    switches = sum(1 for a, b in zip(labels, labels[1:]) if {a, b} == {"720p", "1080p"})
    assert switches >= 2
    _announce(
        3,
        f"median RTT {warm_median:.1f} < {cold_median:.1f} ms "
        f"(margin {cold_median - warm_median:.1f} ms), "
        f"hit ratio {ratio:.2f}, {switches} quality switches",
    )


def test_criterion_4_cache_induced_jitter(no_cache_run, with_cache_run):
    cold = _mean_file_jitter(no_cache_run)
    warm = _mean_file_jitter(with_cache_run)
    assert warm > cold
    _announce(4, f"mean per-file jitter {warm:.3f} > {cold:.3f} ms (margin {warm - cold:.3f} ms)")


# -- criterion 5: gateway prefetching ---------------------------------------------------


def test_criterion_5_prefetch_strategy(with_cache_run, prefetch_run):
    warm_jitter = _mean_file_jitter(with_cache_run)
    prefetch_jitter = _mean_file_jitter(prefetch_run)
    assert prefetch_jitter <= warm_jitter

    session = prefetch_run.sessions[0]
    segments = _segments(prefetch_run)
    first_segment_end = min(f.finished for f in segments)
    rtts = [
        t.rtt_ms
        for f in segments
        if f.started > first_segment_end
        for t in f.timings
        if t.received is not None
    ]
    # bound: consumer-gateway round trip plus a window's serialization, +20%
    data_wire = CACHE_CHUNK_BYTES + 104
    bound_ms = 1.2 * (
        2 * CACHE_CG_PROP_MS
        + (CACHE_WINDOW + 1) * data_wire * 8 / CACHE_LINK_BPS * 1000
    )
    within = sum(1 for r in rtts if r <= bound_ms) / len(rtts)
    assert within >= 0.90
    _announce(
        5,
        f"jitter {prefetch_jitter:.3f} <= {warm_jitter:.3f} ms "
        f"(margin {warm_jitter - prefetch_jitter:.3f} ms), "
        f"{within:.1%} of chunk RTTs under {bound_ms:.1f} ms "
        f"(margin {(within - 0.90) * 100:.1f} points over 90%)",
    )


# -- criterion 6: PIT aggregation / multicast --------------------------------------------


def test_criterion_6_multicast_aggregation():
    cooperative = run_scenario(experiment_scenario("multicast"))
    assert all(s.aborted is None for s in cooperative.sessions)
    assert all(s.media_downloaded_s == pytest.approx(20.0) for s in cooperative.sessions)

    # unique chunk count of the video: all sessions pull identical 720p files
    session = cooperative.sessions[0]
    unique_chunks = sum(f.chunk_count for f in session.files)
    served = cooperative.server["srv"].interests
    assert served <= 1.1 * unique_chunks

    disabled = run_scenario(experiment_scenario("multicast-disabled"))
    assert all(s.aborted is None for s in disabled.sessions)
    assert disabled.server["srv"].interests >= 1.8 * unique_chunks
    _announce(
        6,
        f"server sent {served} vs {unique_chunks} unique chunks "
        f"({disabled.server['srv'].interests} with aggregation+cache off)",
    )


# -- criterion 7: startup delay oracle ------------------------------------------------------


def test_criterion_7_startup_delay_oracle():
    report = run_scenario(experiment_scenario("startup-oracle"))
    session = report.sessions[0]
    assert session.aborted is None
    measured = session.startup_delay_s
    assert measured is not None

    # analytic pipeline oracle for the one-bottleneck chain:
    # cg 100 Mbps / 5 ms, gs 6 Mbps / 10 ms, 1 ms server processing,
    # 8000-byte chunks, lowest (only) tier 3.3 Mbps, 2 s segments.
    p_cg, p_gs = 0.005, 0.010
    bw_cg, bw_gs = 100e6, 6e6
    proc = 0.001
    chunk = 8000
    overhead = 104
    interest_wire = 70

    def ser(nbytes: float, bw: float) -> float:
        return nbytes * 8 / bw

    def one_chunk_fetch(content_bytes: int) -> float:
        wire = content_bytes + overhead
        return (
            ser(interest_wire, bw_cg)
            + p_cg
            + ser(interest_wire, bw_gs)
            + p_gs
            + proc
            + ser(wire, bw_gs)
            + p_gs
            + ser(wire, bw_cg)
            + p_cg
        )

    files = session.files
    master_bytes = files[0].content_bytes
    media_bytes = files[1].content_bytes
    segment_bytes = files[2].content_bytes  # 3.3e6 * 2 / 8
    full_chunks, last_chunk = divmod(segment_bytes, chunk)
    segment_time = (
        one_chunk_fetch(chunk)  # discovery brings chunk 0
        + ser(interest_wire, bw_cg)
        + p_cg
        + ser(interest_wire, bw_gs)
        + p_gs
        + proc
        + (full_chunks - 1) * ser(chunk + overhead, bw_gs)
        + ser(last_chunk + overhead, bw_gs)
        + p_gs
        + ser(last_chunk + overhead, bw_cg)
        + p_cg
    )
    oracle = one_chunk_fetch(master_bytes) + one_chunk_fetch(media_bytes) + segment_time
    assert abs(measured - oracle) <= 0.10 * oracle
    _announce(7, f"startup {measured:.3f}s within 10% of {oracle:.3f}s oracle")


# -- criterion 8: reassembly and integrity ----------------------------------------------------


def _build_file_chain(seed: int):
    sim = NetworkSim(seed=seed)
    sim.add_consumer("c1")
    sim.add_forwarder("gw", cs_capacity_bytes=1 << 26)
    key = KeyMaterial("k8", b"acceptance-eight")
    repo = Repository(key, processing_delay_ms=1.0)
    sim.add_producer("srv", repo)
    sim.add_link("c1", "gw", propagation_ms=3, bandwidth_bps=100e6)
    sim.add_link("gw", "srv", propagation_ms=7, bandwidth_bps=100e6)
    sim.add_route("gw", name_parse("/bulk"), "srv")
    return sim, repo, key


def _fetch_through(sim, base, key):
    from ndnstream.netsim.topology import fetch_file_via

    payload, _timings = fetch_file_via(sim, "c1", base, key)
    return payload


def test_criterion_8_reassembly_and_integrity():
    rng = random.Random(808)
    sim, repo, key = _build_file_chain(seed=808)
    payloads = {}
    for i in range(200):
        base = name_parse(f"/bulk/f{i}")
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 30_000)))
        repo.publish_file(base, payload, version=1, chunk_size=1500)
        payloads[i] = payload
    for i in range(200):
        got = _fetch_through(sim, name_parse(f"/bulk/f{i}"), key)
        assert got == payloads[i], f"file {i} corrupted in reassembly"

    # single-byte corruption in flight must surface as an integrity failure
    for trial in range(5):
        sim2, repo2, key2 = _build_file_chain(seed=900 + trial)
        payload = bytes(rng.randrange(256) for _ in range(4000 + trial * 997))
        repo2.publish_file(name_parse("/bulk/target"), payload, version=1, chunk_size=1500)
        state = {"armed": trial + 1}

        def corrupt(data: Data, src: str, dst: str) -> Data:
            if dst == "c1" and data.content and state["armed"] > 0:
                state["armed"] -= 1
                if state["armed"] == 0:
                    body = bytearray(data.content)
                    body[rng.randrange(len(body))] ^= 1 << rng.randrange(8)
                    return Data(
                        data.name, bytes(body), data.final_chunk,
                        data.freshness_ms, data.integrity_tag,
                    )
            return data

        sim2.data_tap = corrupt
        with pytest.raises(IntegrityFailure):
            _fetch_through(sim2, name_parse("/bulk/target"), key2)
    _announce(8, "200 round trips reassembled exactly; corruption always detected")


# -- criterion 9: determinism -----------------------------------------------------------------


def test_criterion_9_determinism():
    first = run_scenario(experiment_scenario("multicast")).to_json()
    second = run_scenario(experiment_scenario("multicast")).to_json()
    assert first == second
    payload = json.loads(first)
    assert payload["scenario_id"] == "multicast"
    _announce(9, "repeated canned run produced byte-identical report.json")


def test_criterion_9_report_digests(staircase_run, no_cache_run, with_cache_run, prefetch_run):
    """Every canned experiment's report.json hashes to its pinned digest."""
    pinned = json.loads((pathlib.Path(__file__).parent / "data" / "report_digests.json").read_text())
    reports = {
        "abr-staircase": staircase_run[0],
        "no-cache": no_cache_run,
        "with-cache": with_cache_run,
        "prefetch": prefetch_run,
        "multicast": run_scenario(experiment_scenario("multicast")),
    }
    for name in EXPERIMENTS:
        if name not in reports:
            reports[name] = run_scenario(experiment_scenario(name))
    got = {name: hashlib.sha256(r.to_json().encode()).hexdigest() for name, r in reports.items()}
    if got != pinned:
        print(json.dumps(got, indent=2))
    assert got == pinned
    _announce(9, f"{len(pinned)} canned report.json digests match the pinned table")


def test_criterion_9_data_scenario_digests(data_scenario_runs):
    """Scenario files under tests/data hash to their pinned digests: the
    lossy bottleneck, four consumers behind one caching gateway, the
    benchmark's sixteen-consumer ``fanout`` workload at seed 1, two
    ``[fch]`` consumers, one of whose sessions share a probe round,
    hub-to-hub forwarding over a second, cost-2 next hop, two videos under
    one prefix on two servers, one session over two videos whose tier
    sets differ, and one session over two videos under two prefixes on
    two servers."""
    pinned = json.loads((DATA / "scenario_digests.json").read_text())
    got = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, (text, _events) in data_scenario_runs.items()
    }
    if got != pinned:
        print(json.dumps(got, indent=2))
    assert got == pinned
    _announce(9, f"{len(pinned)} tests/data scenario report.json digests match the pinned table")


# Events the benchmark's ``fanout`` workload runs at seed 1: the text of
# ``fanout(1)`` in bench/workloads.py is saved as tests/data/fanout16.scn.
FANOUT16_EVENTS = 108_910


def test_criterion_9_fanout16_event_count(data_scenario_runs):
    _text, events = data_scenario_runs["fanout16.scn"]
    assert events == FANOUT16_EVENTS
    _announce(9, f"fanout16.scn ran its pinned {FANOUT16_EVENTS} events")


# Events tests/data/prefetch_churn.scn ran before the prefetcher planned from
# a coverage frontier; the frontier must not move one.
PREFETCH_CHURN_EVENTS = 7_817


def test_criterion_9_prefetch_churn_event_count(data_scenario_runs):
    _text, events = data_scenario_runs["prefetch_churn.scn"]
    assert events == PREFETCH_CHURN_EVENTS
    _announce(9, f"prefetch_churn.scn ran its pinned {PREFETCH_CHURN_EVENTS} events")


def test_data_scenarios_fetch_only_media_playlists_they_play(data_scenario_runs):
    # A player picks each video's first tier by the same rule as every
    # later one, so it fetches no media playlist of a tier it never plays.
    unplayed = {
        name: found
        for name, (text, _events) in data_scenario_runs.items()
        if (found := unplayed_media_playlists(json.loads(text)))
    }
    assert not unplayed, unplayed


# -- criterion 10: micro-oracles ----------------------------------------------------------------


def test_criterion_10a_lru_shadow_model(key):
    rng = random.Random(1010)
    capacity = 6000
    cs = ContentStore(capacity)
    shadow: dict = {}
    serial = 0
    sizes: dict = {}
    now = 0.0
    for op in range(10_000):
        now += 0.001
        name_id = rng.randrange(30)
        full = make_data(f"/s/{name_id}", key=key).name.full()
        if rng.random() < 0.5:
            data = make_data(f"/s/{name_id}", content=bytes(rng.randrange(180)), key=key)
            size = encoded_size(data)
            evicted = cs.insert(data, now)
            serial += 1
            shadow[full] = serial
            sizes[full] = size
            expected_evicted = []
            while sum(sizes[n] for n in shadow) > capacity:
                victim = min(shadow, key=lambda n: shadow[n])
                del shadow[victim]
                expected_evicted.append(victim)
            assert evicted == expected_evicted, f"op {op}: eviction order diverged"
        else:
            got = cs.lookup(Interest(full), now)
            if full in shadow:
                serial += 1
                shadow[full] = serial
                assert got is not None
            else:
                assert got is None
        assert cs.used_bytes <= capacity
        assert set(cs.entries) == set(shadow)
    _announce(10, "LRU store matched shadow model over 10,000 ops")


def test_criterion_10b_metric_brute_force():
    from ndnstream.consumer import ChunkTiming
    from ndnstream.metrics import compute_cdf, compute_file_rtt, compute_jitter

    rng = random.Random(2020)
    for _ in range(1000):
        n = rng.randint(1, 30)
        timings = []
        t = 0.0
        rtts = []
        for c in range(n):
            first = t
            retx = rng.randrange(3) if rng.random() < 0.2 else 0
            last = first + retx * 0.5
            rtt = rng.uniform(0.001, 0.2)
            timings.append(
                ChunkTiming(c, first_sent=first, last_sent=last, received=last + rtt, retx_count=retx)
            )
            rtts.append(rtt * 1000)
            t = last + rtt
        assert compute_file_rtt(timings) == pytest.approx(sum(rtts) / len(rtts))
        if len(rtts) > 1:
            brute = sum(abs(b - a) for a, b in zip(rtts, rtts[1:])) / (len(rtts) - 1)
        else:
            brute = 0.0
        assert compute_jitter(timings) == pytest.approx(brute, abs=1e-9)
        values = [rng.uniform(0, 100) for _ in range(rng.randint(1, 50))]
        cdf = compute_cdf(values)
        ordered = sorted(values)
        assert cdf.values == ordered
        for i, frac in enumerate(cdf.fractions):
            assert frac == pytest.approx((i + 1) / len(ordered))
    _announce(10, "rtt/jitter/cdf agreed with brute force over 1,000 traces")


def test_criterion_10c_wire_round_trip_and_fuzz():
    from ndnstream.errors import MalformedPacket

    rng = random.Random(3030)
    for _ in range(1000):
        packet = random_packet(rng)
        raw = encode_packet(packet)
        assert decode_packet(raw) == packet
        assert len(raw) == encoded_size(packet)
        cut = rng.randrange(len(raw))
        if cut == 0:
            continue
        try:
            truncated = decode_packet(raw[:cut])
        except MalformedPacket:
            continue
        # a truncation that still parses must never masquerade as the original
        assert truncated != packet
    _announce(10, "encode/decode round-trip and truncation fuzzing held")
