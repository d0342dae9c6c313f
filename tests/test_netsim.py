import itertools
import random
from pathlib import Path

import pytest

from ndnstream.errors import (
    CapacityExceeded,
    InvalidConfig,
    InvalidTopology,
    SchedulingInPast,
)
from ndnstream.names import name_parse
from ndnstream.netsim.engine import EventEngine
from ndnstream.netsim.link import Link
from ndnstream.netsim.scenario import (
    load_scenario,
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

from conftest import run_engine


# -- engine -------------------------------------------------------------------


def test_same_timestamp_preserves_schedule_order():
    engine = EventEngine()
    order = []
    engine.schedule(1.0, lambda: order.append("x"))
    engine.schedule(1.0, lambda: order.append("y"))
    run_engine(engine)
    assert order == ["x", "y"]


def test_schedule_at_current_time_runs_before_later():
    engine = EventEngine()
    order = []
    engine.schedule(5.0, lambda: order.append("later"))
    engine.schedule(0.0, lambda: order.append("now"))
    run_engine(engine)
    assert order == ["now", "later"]


def test_scheduling_in_past_rejected():
    engine = EventEngine()
    engine.schedule(1.0, lambda: None)
    run_engine(engine)
    with pytest.raises(SchedulingInPast):
        engine.schedule(0.5, lambda: None)


def test_randomized_insertion_matches_sort_oracle():
    rng = random.Random(31)
    engine = EventEngine()
    executed = []
    stamps = [rng.uniform(0, 100) for _ in range(1000)]
    for i, at in enumerate(stamps):
        engine.schedule(at, lambda i=i: executed.append(i))
    run_engine(engine)
    expected = [i for _at, i in sorted(zip(stamps, range(len(stamps))), key=lambda p: (p[0], p[1]))]
    assert executed == expected


def test_events_with_arguments_and_tickets_run_in_at_seq_order():
    rng = random.Random(5)
    engine = EventEngine()
    executed = []
    expected = []  # (at, seq, label) of every event
    tickets = []
    for i in range(400):
        at = rng.choice([1.0, 2.0, rng.uniform(0, 3)])
        kind = rng.randrange(3)
        if kind == 0:  # a callable plus its arguments
            seq = engine.schedule(at, executed.append, None, (i,))
        elif kind == 1:  # a zero-argument callable
            seq = engine.schedule(at, lambda i=i: executed.append(i))
        else:  # a ticket now, the event later (in reverse order below)
            tickets.append((at, engine.ticket(), i))
            continue
        expected.append((at, seq, i))
    for at, seq, i in reversed(tickets):
        assert engine.schedule(at, executed.append, seq, (i,)) == seq
        expected.append((at, seq, i))
    assert engine.pending() == 400
    run_engine(engine)
    assert executed == [i for _at, _seq, i in sorted(expected)]


def test_schedule_in_passes_arguments_and_rejects_the_past():
    engine = EventEngine()
    got = []
    engine.schedule(1.0, lambda: engine.schedule_in(0.5, got.append, ("late",)))
    run_engine(engine)
    assert got == ["late"] and engine.now == 1.5
    with pytest.raises(SchedulingInPast):
        engine.schedule(1.0, got.append, None, ("never",))


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
    assert link.transmit("a", "b", 1000, 0.0) is not None
    assert link.transmit("a", "b", 1000, 0.0) is not None  # 1000 B queued
    assert link.transmit("a", "b", 1000, 0.0) is None  # would exceed 1500
    assert link.drop_counts()["a->b"] == 1


def test_tail_drop_counts_bytes_queued_before_throttle():
    # After a throttle to 0.8 Mbps the first packet still has 1000 B to send
    # at 8 Mbps; the backlog is the bytes committed, not time left x new rate.
    link = Link("a", "b", propagation_ms=1, bandwidth_bps=8_000_000, queue_limit_bytes=1500)
    assert link.transmit("a", "b", 1000, 0.0) is not None
    link.set_bandwidth("a", "b", 800_000)
    assert link.transmit("a", "b", 1000, 0.0) is not None  # 1000 B queued
    assert link.transmit("a", "b", 1000, 0.0) is None  # 2000 B queued
    assert link.drop_counts()["a->b"] == 1


def test_bandwidth_change_spares_in_flight():
    link = Link("a", "b", propagation_ms=0, bandwidth_bps=8_000_000)
    first = link.transmit("a", "b", 8000, 0.0)  # 8 ms serialization
    link.set_bandwidth("a", "b", 1_000_000)
    second = link.transmit("a", "b", 1000, 0.0)
    assert first == pytest.approx(0.008)
    # starts after the first finishes at the old rate, serializes at 1 Mbps
    assert second == pytest.approx(0.008 + 0.008)


def test_throttle_to_unlimited_keeps_fifo():
    # Unlimited bandwidth means no serialization time, not a jump ahead of
    # packets the direction is still sending at the old rate.
    link = Link("a", "b", propagation_ms=10, bandwidth_bps=1_000_000)
    first = link.transmit("a", "b", 12_500, 0.0)
    second = link.transmit("a", "b", 12_500, 0.0)
    assert (first, second) == (pytest.approx(0.11), pytest.approx(0.21))
    link.set_bandwidth("a", "b", None)
    third = link.transmit("a", "b", 100, 0.05)
    assert third == pytest.approx(0.21)  # leaves right after the second
    assert link.transmit("a", "b", 100, 0.5) == pytest.approx(0.51)


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
    assert scenario.videos["foo"].tiers[0].label == "240p"


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
        ScenarioRun(parse_scenario(bad))


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
    assert run.live_sessions == len(order)
    for k, index in enumerate(order):
        run.sessions[index]._end_session()
        assert run.live_sessions == len(order) - k - 1
        assert (run.live_sessions == 0) == (k == len(order) - 1)
        run.sessions[index]._end_session()  # ending twice counts once
        assert run.live_sessions == len(order) - k - 1
    assert run.live_sessions == 0


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


def test_no_event_runs_past_the_horizon():
    run = ScenarioRun(parse_scenario(MINIMAL.replace("seed 3", "seed 3\nhorizon 0.05")))
    run.run()
    assert run.sim.engine.now <= 0.05
    assert run.sim.engine._heap[0][0] > 0.05  # the run stopped, not ran dry


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
    sim.validate_reachability([(name_parse("/p/foo"), "srv")])


def test_two_consumers_share_gateway(key):
    sim, repo = make_chain_sim(key)
    sim.add_consumer("c2")
    sim.add_link("c2", "gw", propagation_ms=5, bandwidth_bps=50e6)
    sim.validate_reachability([(name_parse("/p/foo"), "srv")])


def test_unreachable_prefix_detected(key):
    sim, repo = make_chain_sim(key)
    with pytest.raises(InvalidTopology):
        sim.validate_reachability([(name_parse("/q/foo"), "srv")])


@pytest.mark.parametrize("scn", ["golden.scn", "fanout.scn", "lossy.scn"])
def test_every_face_resolves_back_to_its_sender(scn):
    # A send reads link, peer and the peer's receiving face from one face
    # entry; a wrong back-face would deliver on the wrong face.
    run = ScenarioRun(load_scenario(Path(__file__).parent / "data" / scn))
    hosts = run.sim.hosts
    ends = []
    for node_id, host in hosts.items():
        assert set(host.face_link) == set(range(1, len(host.face_link) + 1))
        for face, (link, peer, peer_host, peer_face) in host.face_link.items():
            assert peer_host is hosts[peer]
            assert {link.a, link.b} == {node_id, peer}
            back_link, back_peer, back_host, back_face = peer_host.face_link[peer_face]
            assert back_link is link
            assert back_peer == node_id and back_host is host and back_face == face
            ends.append(link)
    # Every link has exactly its two ends.
    assert sorted(map(id, ends)) == sorted(map(id, run.sim.links * 2))


def test_reachability_follows_each_forwarders_next_hop():
    # Each hub routes the prefix to the other at cost 1 and to srv at cost
    # 2. hub2 never sends an interest back out of the face it came in on,
    # so c1's interests go hub1 -> hub2 -> srv, as forwarding sends them.
    run = ScenarioRun(load_scenario(Path(__file__).parent / "data" / "hub_backup.scn"))
    hub1, hub2 = (run.sim.hosts[h].node for h in ("hub1", "hub2"))
    report = run.run()
    assert report.sessions[0].aborted is None
    assert hub1.stats.interests_out == hub2.stats.interests_out > 0
    assert run.repos["srv"].interests == hub2.stats.interests_out


def test_reachability_walks_each_video_to_its_own_server():
    # Two videos under /v on two producers, routed on their own base
    # names: each base reaches its own server, and both sessions play.
    text = (Path(__file__).parent / "data" / "two_servers.scn").read_text()
    report = ScenarioRun(parse_scenario(text)).run()
    assert [s.aborted for s in report.sessions] == [None, None]
    assert [len(s.files) for s in report.sessions] == [4, 4]
    # Swapped routes lead each video to the producer that does not have it.
    swapped = text.replace("gw /v/a p1", "gw /v/a p2").replace("gw /v/b p2", "gw /v/b p1")
    with pytest.raises(InvalidTopology, match="c1 cannot reach /v/a via gw"):
        ScenarioRun(parse_scenario(swapped))


def test_resource_request_verifies_each_video_with_its_own_server_key():
    # b is published by p2: the path's video id picks p2's prefix and key.
    run = ScenarioRun(load_scenario(Path(__file__).parent / "data" / "two_servers.scn"))
    payload = run.resource_request("c1", "b/playlist.m3u8")
    p2 = run.repos["p2"]
    chunks = p2.file_chunk_names(name_parse("/v/b/playlist.m3u8"))
    assert payload == b"".join(p2.store[name].content for name in chunks)
    assert payload.startswith(b"#EXTM3U") and p2.interests > 0


def test_one_session_plays_videos_from_two_servers():
    # a (under /v, on p1), then b (under /w, on p2), then a again: every
    # file of each play is fetched, verified with its server's key, and played.
    run = ScenarioRun(load_scenario(Path(__file__).parent / "data" / "session_two_servers.scn"))
    [session] = run.run().sessions
    assert session.aborted is None
    played = [f.video_id for f in session.files if f.role == "master-playlist"]
    assert played == ["a", "b", "a"]
    segments = [f.video_id for f in session.files if f.role == "segment"]
    assert segments == [v for v in played for _ in range(run.catalogs[v].segment_count)]
    assert session.media_played_s == pytest.approx(12.0)
    assert run.repos["p1"].interests > 0 and run.repos["p2"].interests > 0


def test_duplicate_video_fails_at_its_own_line():
    text = MINIMAL.replace(
        "tier foo 240p", "video foo server=srv prefix=/q duration-s=4\ntier foo 240p"
    )
    line = text.splitlines().index("video foo server=srv prefix=/q duration-s=4") + 1
    with pytest.raises(InvalidConfig, match=f"^line {line}: duplicate video 'foo'$"):
        parse_scenario(text)


def test_walk_treats_a_forwarding_loop_as_unreachable(key):
    sim = NetworkSim()
    sim.add_consumer("c1")
    for node_id in ("hub1", "hub2", "hub3"):
        sim.add_forwarder(node_id)
    sim.add_producer("srv", Repository(key))
    for a, b in (("c1", "hub1"), ("hub1", "hub2"), ("hub2", "hub3"), ("hub3", "hub1")):
        sim.add_link(a, b)
    sim.add_route("hub1", name_parse("/p"), "hub2")
    sim.add_route("hub2", name_parse("/p"), "hub3")
    sim.add_route("hub3", name_parse("/p"), "hub1")
    with pytest.raises(InvalidTopology, match="c1 cannot reach /p via hub1"):
        sim.validate_reachability([(name_parse("/p"), "srv")])


def test_route_on_unknown_node_rejected(key):
    sim, repo = make_chain_sim(key)
    with pytest.raises(InvalidTopology, match="ghost"):
        sim.add_route("ghost", name_parse("/p"), "srv")


def test_fch_gateway_that_is_not_a_node_rejected(key):
    sim, repo = make_chain_sim(key)
    with pytest.raises(InvalidTopology, match="ghost"):
        sim.set_gateways("c1", ["ghost"])


def test_second_link_between_one_pair_rejected():
    sim = NetworkSim()
    for node_id in ("gw", "srv"):
        sim.add_forwarder(node_id)
    sim.add_link("gw", "srv", propagation_ms=5)
    for a, b in (("gw", "srv"), ("srv", "gw")):
        with pytest.raises(InvalidTopology, match="second link"):
            sim.add_link(a, b)
    assert len(sim.links) == 1


# -- fch ---------------------------------------------------------------------------


def test_fch_returns_configured_candidates():
    scenario = parse_scenario(MINIMAL + "\n[fch]\nc1 gw\n")
    assert [fch.args for fch in scenario.fch] == [["c1", ["gw"]]]


def test_fch_unknown_consumer():
    with pytest.raises(InvalidConfig, match="c9"):
        ScenarioRun(parse_scenario(MINIMAL + "\n[fch]\nc9 gw\n"))


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
    tiers = [Representation("720p", 720, 3_300_000)]
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
        assert cs.lookup(Interest(full), 0.0) is not None
    for full in names[keep:]:
        assert cs.lookup(Interest(full), 0.0) is None


def test_prewarm_overflow_raises(key):
    with pytest.raises(CapacityExceeded):
        warmed_sim(key, 1.0, capacity=50_000)


def test_prewarm_chunk_larger_than_the_store_raises(key):
    # No chunk is evicted: the store refuses each 8000-byte chunk outright,
    # and a prewarm set it cannot hold is still an error.
    with pytest.raises(CapacityExceeded):
        warmed_sim(key, 1.0, capacity=1024)


def test_scenario_prewarm_into_a_store_smaller_than_a_chunk_raises():
    text = MINIMAL.replace("cs=8MB", "cs=1KB") + "\n[prewarm]\ngw foo 240p 1.0\n"
    with pytest.raises(CapacityExceeded, match="gw"):
        ScenarioRun(parse_scenario(text))


PREWARM_CHAIN = """
scenario warm
seed 3

[nodes]
consumer c1
forwarder gw cs=CS_GW
forwarder gw2 cs=CS_GW2
producer srv

[links]
c1 gw prop-ms=5 bw=50Mbps
gw srv prop-ms=15 bw=20Mbps
gw2 srv prop-ms=15 bw=20Mbps

[routes]
gw /p srv

[videos]
video foo server=srv prefix=/p duration-s=5 segment-s=2 chunk-bytes=1000 freshness-ms=5000
tier foo 240p height=240 min-bw=0.6Mbps
tier foo 480p height=480 min-bw=1.8Mbps

[sessions]
session s1 consumer=c1 videos=foo

[prewarm]
"""


@pytest.mark.parametrize(
    "lines",
    [
        ["gw foo 240p 1.0"],
        ["gw foo 240p 0.5", "gw foo 240p 1.0"],
        ["gw foo 240p 1.0", "gw foo 240p 0.5"],
        ["gw foo 240p 1.0", "gw foo 240p 0.5", "gw foo 240p 1.0"],
        ["gw foo 240p 0.3", "gw foo 480p 0.6"],
        ["gw foo 480p 0.6", "gw2 foo 480p 1.0", "gw2 foo 240p 0.01"],
    ],
)
def test_validate_sizes_prewarm_sets_as_prewarm_cache_loads_them(lines):
    # The bytes each store takes, measured by loading the real packets
    # into stores that hold everything; distinct chunks count once.
    text = PREWARM_CHAIN + "\n".join(lines) + "\n"
    big = text.replace("CS_GW2", "1GB").replace("CS_GW", "1GB")
    hosts = ScenarioRun(parse_scenario(big)).sim.hosts
    need = {node: hosts[node].node.cs.used_bytes for node in ("gw", "gw2")}
    for node in {line.split()[0] for line in lines}:
        for capacity, ok in ((need[node], True), (need[node] - 1, False)):
            caps = {**need, node: capacity}
            edited = text.replace("CS_GW2", str(caps["gw2"])).replace("CS_GW", str(caps["gw"]))
            scenario = parse_scenario(big)
            for entry in scenario.nodes:
                if entry.args[0] in caps:
                    entry.kw["add_forwarder"]["cs_capacity_bytes"] = caps[entry.args[0]]
            if ok:
                ScenarioRun(parse_scenario(edited))
                ScenarioRun(scenario)
            else:
                with pytest.raises(CapacityExceeded, match=node):
                    ScenarioRun(parse_scenario(edited))
                with pytest.raises(CapacityExceeded, match=node):
                    ScenarioRun(scenario)


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
    run_engine(run.sim.engine, until=2.0)
    assert link.direction("srv", "gw").bandwidth_bps == 5e6


def test_scenario_jitter_toggle():
    # Jitter has one definition; there is no [metrics] section to pick one.
    with pytest.raises(InvalidConfig, match="unknown section 'metrics'"):
        parse_scenario(MINIMAL + "\n[metrics]\njitter var\n")


def test_all_probes_failed(key, monkeypatch):
    from ndnstream.errors import AllProbesFailed
    from ndnstream.names import name_parse as np
    from ndnstream.netsim import topology

    monkeypatch.setattr(topology, "PROBE_TIMEOUT_S", 0.5)
    sim, repo = make_chain_sim(key)
    host = sim.hosts["c1"]
    host.gateways = ["gw"]
    # probe a name nobody serves: the producer nacks, probes never complete
    host.attach(np("/void/probe"), lambda: None)
    with pytest.raises(AllProbesFailed):
        run_engine(sim.engine)
    assert sim.engine.now == 0.5


def test_scenario_resource_request():
    from ndnstream.netsim.scenario import ScenarioRun

    run = ScenarioRun(parse_scenario(MINIMAL))
    payload = run.resource_request("c1", "foo/playlist.m3u8")
    assert payload.decode().startswith("#EXTM3U")


def test_resource_request_probes_the_gateways_of_an_fch_consumer():
    # Before any run, an [fch] consumer is not attached: the request
    # probes its hubs first and fetches through the fastest one.
    from ndnstream.experiments import experiment_scenario

    run = ScenarioRun(experiment_scenario("fch-probing"))
    payload = run.resource_request("c1", "foo/playlist.m3u8")
    assert payload.startswith(b"#EXTM3U")
    assert run.sim.hosts["c1"].chosen_gateway == "hubB"


def test_throttle_timestamps_must_increase():
    bad = MINIMAL + """
[throttles]
srv gw at-s=5 bw=20Mbps
srv gw at-s=5 bw=5Mbps
"""
    with pytest.raises(InvalidConfig, match="strictly increasing"):
        parse_scenario(bad)
