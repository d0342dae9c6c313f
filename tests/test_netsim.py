import itertools
import random

import pytest

from ndnstream.errors import (
    CapacityExceeded,
    InvalidConfig,
    InvalidTopology,
    SchedulingInPast,
)
from ndnstream.names import name_parse
from ndnstream.netsim.engine import EventEngine
from ndnstream.netsim.link import Dropped, Link
from ndnstream.netsim.scenario import (
    parse_scenario,
    parse_bandwidth,
    parse_size,
    prewarm_cache,
    run_scenario,
    ScenarioRun,
)
from ndnstream.netsim.topology import NetworkSim
from ndnstream.packets import Interest
from ndnstream.producer import Repository, Representation, package_video, publish


# -- engine -------------------------------------------------------------------


def test_same_timestamp_preserves_schedule_order():
    engine = EventEngine()
    order = []
    engine.schedule(1.0, lambda: order.append("x"))
    engine.schedule(1.0, lambda: order.append("y"))
    engine.run()
    assert order == ["x", "y"]


def test_schedule_at_current_time_runs_before_later():
    engine = EventEngine()
    order = []
    engine.schedule(5.0, lambda: order.append("later"))
    engine.schedule(0.0, lambda: order.append("now"))
    engine.run()
    assert order == ["now", "later"]


def test_scheduling_in_past_rejected():
    engine = EventEngine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    with pytest.raises(SchedulingInPast):
        engine.schedule(0.5, lambda: None)


def test_randomized_insertion_matches_sort_oracle():
    rng = random.Random(31)
    engine = EventEngine()
    executed = []
    stamps = [rng.uniform(0, 100) for _ in range(1000)]
    for i, at in enumerate(stamps):
        engine.schedule(at, lambda i=i: executed.append(i))
    engine.run()
    expected = [i for _at, i in sorted(zip(stamps, range(len(stamps))), key=lambda p: (p[0], p[1]))]
    assert executed == expected


# -- links ---------------------------------------------------------------------


def test_link_serialization_plus_propagation():
    link = Link("a", "b", propagation_ms=10, bandwidth_bps=8_000_000)
    arrival = link.transmit("a", "b", 1000, now=0.0)
    assert arrival == pytest.approx(0.011)  # 1 ms serialization + 10 ms propagation


def test_unlimited_bandwidth_is_pure_propagation():
    link = Link("a", "b", propagation_ms=10, bandwidth_bps=None)
    assert link.transmit("a", "b", 10_000_000, 0.0) == pytest.approx(0.010)


def test_queueing_second_packet_waits():
    link = Link("a", "b", propagation_ms=10, bandwidth_bps=8_000_000)
    first = link.transmit("a", "b", 1000, 0.0)
    second = link.transmit("a", "b", 1000, 0.0)
    assert first == pytest.approx(0.011)
    assert second == pytest.approx(0.012)  # queued behind the first


def test_directions_independent():
    link = Link("a", "b", propagation_ms=1, bandwidth_bps=8_000_000)
    link.transmit("a", "b", 100_000, 0.0)
    reverse = link.transmit("b", "a", 1000, 0.0)
    assert reverse == pytest.approx(0.002)


def test_tail_drop_when_queue_full():
    link = Link("a", "b", propagation_ms=1, bandwidth_bps=8_000_000, queue_limit_bytes=1500)
    assert not isinstance(link.transmit("a", "b", 1000, 0.0), Dropped)
    assert not isinstance(link.transmit("a", "b", 1000, 0.0), Dropped)  # 1000 B queued
    assert isinstance(link.transmit("a", "b", 1000, 0.0), Dropped)  # would exceed 1500
    assert link.drop_counts()["a->b"] == 1


def test_tail_drop_counts_bytes_queued_before_throttle():
    # After a throttle to 0.8 Mbps the first packet still has 1000 B to send
    # at 8 Mbps; the backlog is the bytes committed, not time left x new rate.
    link = Link("a", "b", propagation_ms=1, bandwidth_bps=8_000_000, queue_limit_bytes=1500)
    assert not isinstance(link.transmit("a", "b", 1000, 0.0), Dropped)
    link.set_bandwidth("a", "b", 800_000)
    assert not isinstance(link.transmit("a", "b", 1000, 0.0), Dropped)  # 1000 B queued
    assert isinstance(link.transmit("a", "b", 1000, 0.0), Dropped)  # 2000 B queued
    assert link.drop_counts()["a->b"] == 1


def test_bandwidth_change_spares_in_flight():
    link = Link("a", "b", propagation_ms=0, bandwidth_bps=8_000_000)
    first = link.transmit("a", "b", 8000, 0.0)  # 8 ms serialization
    link.set_bandwidth("a", "b", 1_000_000)
    second = link.transmit("a", "b", 1000, 0.0)
    assert first == pytest.approx(0.008)
    # starts after the first finishes at the old rate, serializes at 1 Mbps
    assert second == pytest.approx(0.008 + 0.008)


# -- scenario parsing ------------------------------------------------------------


def test_parse_units():
    assert parse_bandwidth("20Mbps") == 20e6
    assert parse_bandwidth("0.8Mbps") == 0.8e6
    assert parse_bandwidth("900kbps") == 900e3
    assert parse_bandwidth("unlimited") is None
    assert parse_size("64MB") == 64_000_000
    assert parse_size("8000") == 8000
    with pytest.raises(InvalidConfig):
        parse_bandwidth("fast")


MINIMAL = """
scenario mini
seed 3

[nodes]
consumer c1
forwarder gw cs=8MB
producer srv

[links]
c1 gw prop-ms=5 bw=50Mbps
gw srv prop-ms=15 bw=20Mbps

[routes]
gw /p srv

[videos]
video foo server=srv prefix=/p duration-s=4 segment-s=2
tier foo 240p height=240 min-bw=0.6Mbps

[sessions]
session s1 consumer=c1 videos=foo
"""


def test_minimal_scenario_parses():
    scenario = parse_scenario(MINIMAL)
    assert scenario.scenario_id == "mini"
    assert scenario.seed == 3
    assert len(scenario.nodes) == 3
    assert scenario.videos[0].tiers[0].label == "240p"


def test_unknown_key_is_named_in_error():
    bad = MINIMAL.replace("prop-ms=5", "latency=5")
    with pytest.raises(InvalidConfig, match="latency"):
        parse_scenario(bad)


def test_unknown_section_rejected():
    with pytest.raises(InvalidConfig, match="wormholes"):
        parse_scenario(MINIMAL + "\n[wormholes]\n")


def test_dangling_link_rejected():
    bad = MINIMAL.replace("c1 gw prop-ms=5 bw=50Mbps", "c1 ghost prop-ms=5 bw=50Mbps")
    with pytest.raises(InvalidConfig, match="ghost"):
        parse_scenario(bad)


def test_unreachable_prefix_rejected():
    bad = MINIMAL.replace("gw /p srv", "gw /other srv")
    with pytest.raises(InvalidTopology):
        run_scenario(parse_scenario(bad))


def test_session_videos_must_exist():
    bad = MINIMAL.replace("videos=foo", "videos=nope")
    with pytest.raises(InvalidConfig, match="nope"):
        parse_scenario(bad)


OUT_OF_ORDER = MINIMAL.replace(
    "tier foo 240p height=240 min-bw=0.6Mbps",
    """tier foo 240p height=240 min-bw=0.6Mbps
video bar server=srv prefix=/p duration-s=2 segment-s=2
tier bar 240p height=240 min-bw=0.6Mbps""",
).replace(
    "session s1 consumer=c1 videos=foo",
    """session s1 consumer=c1 videos=foo
session s2 consumer=c1 videos=bar start-s=0.5
session s3 consumer=c1 videos=foo start-s=0.25""",
)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_all_sessions_done_only_after_the_last_ends(order):
    run = ScenarioRun(parse_scenario(OUT_OF_ORDER))
    assert not run.all_sessions_done()
    for k, index in enumerate(order):
        run.sessions[index].ended_at = float(k + 1)
        assert run.all_sessions_done() == (k == len(order) - 1)
    assert run.all_sessions_done()


def test_run_waits_for_sessions_that_end_out_of_order():
    run = ScenarioRun(parse_scenario(OUT_OF_ORDER))
    report = run.run()
    ends = {s.session_id: s.ended_at for s in run.sessions}
    # The short video started last but ends first; the run still plays
    # every session to its end.
    assert ends["s2"] < ends["s1"] and ends["s2"] < ends["s3"]
    played = {s.session_id: s.media_played_s for s in report.sessions}
    assert played == pytest.approx({"s1": 4.0, "s2": 2.0, "s3": 4.0})
    assert all(s.aborted is None for s in report.sessions)


# -- topology --------------------------------------------------------------------


def make_chain_sim(key):
    sim = NetworkSim(seed=1)
    sim.add_consumer("c1")
    sim.add_forwarder("gw", cs_capacity_bytes=1 << 22)
    repo = Repository(key)
    sim.add_producer("srv", repo)
    sim.add_link("c1", "gw", propagation_ms=5, bandwidth_bps=50e6)
    sim.add_link("gw", "srv", propagation_ms=15, bandwidth_bps=20e6)
    sim.add_route("gw", name_parse("/p"), "srv")
    return sim, repo


def test_chain_reachability_ok(key):
    sim, repo = make_chain_sim(key)
    sim.hosts["srv"].announce(name_parse("/p"))
    sim.validate_reachability([name_parse("/p")])


def test_two_consumers_share_gateway(key):
    sim, repo = make_chain_sim(key)
    sim.add_consumer("c2")
    sim.add_link("c2", "gw", propagation_ms=5, bandwidth_bps=50e6)
    sim.hosts["srv"].announce(name_parse("/p"))
    sim.validate_reachability([name_parse("/p")])


def test_unreachable_prefix_detected(key):
    sim, repo = make_chain_sim(key)
    sim.hosts["srv"].announce(name_parse("/p"))
    with pytest.raises(InvalidTopology):
        sim.validate_reachability([name_parse("/q")])


# -- fch ---------------------------------------------------------------------------


def test_fch_returns_configured_candidates():
    scenario = parse_scenario(MINIMAL + "\n[fch]\nc1 gw\n")
    assert scenario.fch == {"c1": ["gw"]}


def test_fch_unknown_consumer():
    with pytest.raises(InvalidConfig, match="c9"):
        parse_scenario(MINIMAL + "\n[fch]\nc9 gw\n")


# -- prewarm -------------------------------------------------------------------------


def warmed_sim(key, fraction, capacity=1 << 24):
    sim = NetworkSim(seed=1)
    sim.add_consumer("c1")
    sim.add_forwarder("gw", cs_capacity_bytes=capacity)
    repo = Repository(key)
    sim.add_producer("srv", repo)
    sim.add_link("c1", "gw", propagation_ms=1)
    sim.add_link("gw", "srv", propagation_ms=1)
    sim.add_route("gw", name_parse("/p"), "srv")
    tiers = [Representation("720p", 720, 3_300_000, 3_300_000)]
    catalog = package_video("foo", 8.0, 2.0, tiers)
    publish(repo, catalog, "/p", chunk_size=8000)
    count = prewarm_cache(sim, "gw", repo, name_parse("/p"), catalog, "720p", fraction)
    return sim, repo, catalog, count


def test_prewarm_zero_inserts_nothing(key):
    sim, repo, catalog, count = warmed_sim(key, 0.0)
    assert count == 0
    assert len(sim.hosts["gw"].node.cs) == 0


def test_prewarm_full_hits_every_chunk(key):
    sim, repo, catalog, count = warmed_sim(key, 1.0)
    cs = sim.hosts["gw"].node.cs
    from ndnstream.producer import representation_files

    for base in representation_files(name_parse("/p"), catalog, "720p"):
        for full in repo.file_chunk_names(base):
            assert cs.lookup(Interest(full), 0.0) is not None


def test_prewarm_fraction_covers_leading_share_per_file(key):
    sim, repo, catalog, count = warmed_sim(key, 0.92)
    cs = sim.hosts["gw"].node.cs
    import math

    base = name_parse("/p/foo/720p/seg0.m4s")
    names = repo.file_chunk_names(base)
    keep = math.ceil(0.92 * len(names))
    for full in names[:keep]:
        assert cs.contains_fresh(full, 0.0)
    for full in names[keep:]:
        assert not cs.contains_fresh(full, 0.0)


def test_prewarm_overflow_raises(key):
    with pytest.raises(CapacityExceeded):
        warmed_sim(key, 1.0, capacity=50_000)


# -- throttle through a scenario ------------------------------------------------------


def test_throttle_applies_at_schedule_points(key):
    text = MINIMAL + """
[throttles]
srv gw at-s=0 bw=20Mbps
srv gw at-s=1 bw=5Mbps
"""
    run = ScenarioRun(parse_scenario(text))
    link = run.sim.link_between("gw", "srv")
    assert link.direction("srv", "gw").bandwidth_bps == 20e6  # at-s=0 applies at build
    run.sim.engine.run(until=2.0)
    assert link.direction("srv", "gw").bandwidth_bps == 5e6


def test_scenario_jitter_toggle():
    var_text = MINIMAL + "\n[metrics]\njitter var\n"
    assert parse_scenario(var_text).jitter_mode == "var"
    assert parse_scenario(MINIMAL).jitter_mode == "mad"
    with pytest.raises(InvalidConfig):
        parse_scenario(MINIMAL + "\n[metrics]\njitter wild\n")


def test_all_probes_failed(key):
    from ndnstream.errors import AllProbesFailed
    from ndnstream.names import name_parse as np

    sim, repo = make_chain_sim(key)
    host = sim.hosts["c1"]
    # probe a name nobody serves: the producer nacks, probes never complete
    host.probe_gateways(["gw"], np("/void/probe"), lambda: None, timeout_s=0.5)
    with pytest.raises(AllProbesFailed):
        sim.engine.run()


def test_scenario_resource_request():
    from ndnstream.netsim.scenario import ScenarioRun

    run = ScenarioRun(parse_scenario(MINIMAL))
    payload = run.resource_request("c1", "foo/playlist.m3u8")
    assert payload.decode().startswith("#EXTM3U")


def test_throttle_timestamps_must_increase():
    bad = MINIMAL + """
[throttles]
srv gw at-s=5 bw=20Mbps
srv gw at-s=5 bw=5Mbps
"""
    with pytest.raises(InvalidConfig, match="strictly increasing"):
        parse_scenario(bad)
