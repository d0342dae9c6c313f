"""End-to-end behavior through the emulator."""

from dataclasses import replace

import pytest

from ndnstream import consumer
from ndnstream.consumer import FetchEngine
from ndnstream.errors import IntegrityFailure
from ndnstream.names import name_parse
from ndnstream.netsim.scenario import ScenarioRun, parse_scenario, run_scenario
from ndnstream.packets import Data
from ndnstream.producer import segment_payload
from ndnstream.wire import encode_packet, encoded_size


CHAIN = """
scenario chain
seed 4

[nodes]
consumer c1
forwarder gw cs=32MB
producer srv delay-ms=1

[links]
c1 gw prop-ms=5 bw=50Mbps
gw srv prop-ms=15 bw=20Mbps

[routes]
gw /ndn/web/video srv

[videos]
video foo server=srv prefix=/ndn/web/video duration-s=6 segment-s=2
tier foo 480p height=480 min-bw=1.8Mbps
tier foo 720p height=720 min-bw=3.3Mbps

[sessions]
session s1 consumer=c1 videos=foo window=8
"""

# Same chain without a player session, for driving fetches directly.
CHAIN_IDLE = CHAIN.split("[sessions]")[0]


def fetch_resource(run: ScenarioRun, consumer_id: str, path: str):
    """Resource request against a built scenario, returning payload+timings."""
    from ndnstream.consumer import resource_name
    from ndnstream.netsim.topology import fetch_file_via

    video = run.scenario.videos[0]
    base = resource_name(name_parse(video.prefix), path)
    key = run.repos[video.server].key
    return fetch_file_via(run.sim, consumer_id, base, key, FetchEngine(window=8))


def test_resource_request_round_trips_playlist():
    run = ScenarioRun(parse_scenario(CHAIN_IDLE))
    payload, _ = fetch_resource(run, "c1", "foo/playlist.m3u8")
    text = payload.decode()
    assert text.startswith("#EXTM3U")
    assert "480p/playlist.m3u8" in text


def test_segment_payload_matches_producer_bytes():
    run = ScenarioRun(parse_scenario(CHAIN_IDLE))
    payload, timings = fetch_resource(run, "c1", "foo/720p/seg1.m4s")
    expected = segment_payload(run.catalogs["foo"], "720p", 1)
    assert payload == expected
    assert all(t.received is not None for t in timings)


def test_full_session_plays_and_accounts():
    report = run_scenario(parse_scenario(CHAIN))
    s = report.sessions[0]
    assert s.aborted is None
    assert s.startup_delay_s is not None and s.startup_delay_s > 0
    assert s.media_played_s + s.final_buffer_s == pytest.approx(s.media_downloaded_s)
    assert s.media_downloaded_s == pytest.approx(6.0)
    # quality timeline never repeats a label consecutively
    labels = [label for _t, label in s.quality_timeline]
    assert all(a != b for a, b in zip(labels, labels[1:]))
    # timeline timestamps strictly increase
    stamps = [t for t, _ in s.quality_timeline]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


TWO_SESSIONS = """
scenario two-sessions
seed 4

[nodes]
consumer c1
forwarder gw cs=32MB
producer srv delay-ms=1

[links]
c1 gw prop-ms=5 bw=50Mbps
gw srv prop-ms=15 bw=20Mbps

[routes]
gw /ndn/web/video srv

[videos]
video foo server=srv prefix=/ndn/web/video duration-s=10 segment-s=2
tier foo 720p height=720 min-bw=3.3Mbps

[sessions]
session s1 consumer=c1 videos=foo
session s2 consumer=c1 videos=foo start-s=0.5
"""


def test_two_sessions_on_one_consumer_both_play():
    # Both sessions fetch the same files; each packet must reach both
    # fetches, not only the first session's (possibly finished) one.
    report = run_scenario(parse_scenario(TWO_SESSIONS))
    assert [s.session_id for s in report.sessions] == ["s1", "s2"]
    for s in report.sessions:
        assert s.aborted is None
        assert s.media_played_s == pytest.approx(10.0)


def test_in_flight_bound_holds_through_network(monkeypatch):
    fetches = []

    class RecordingFetch(consumer.FileFetch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fetches.append(self)

    monkeypatch.setattr(consumer, "FileFetch", RecordingFetch)
    run = ScenarioRun(parse_scenario(CHAIN.replace("window=8", "window=3")))
    report = run.run()
    assert report.sessions[0].aborted is None
    assert len(fetches) > 1
    assert all(f.max_in_flight <= 3 for f in fetches)


def test_corrupted_data_aborts_with_integrity_failure():
    run = ScenarioRun(parse_scenario(CHAIN))
    flipped = {"done": False}

    def corrupt(data: Data, src: str, dst: str) -> Data:
        if not flipped["done"] and data.content and dst == "c1":
            flipped["done"] = True
            mutated = bytearray(data.content)
            mutated[0] ^= 0x01
            return Data(
                data.name,
                bytes(mutated),
                data.final_chunk,
                data.freshness_ms,
                data.integrity_tag,
            )
        return data

    run.sim.data_tap = corrupt
    report = run.run()
    assert report.sessions[0].aborted is not None
    assert "IntegrityFailure" in report.sessions[0].aborted


def test_tapped_data_is_sized_as_sent():
    # The tap replaces packets that earlier hops have already sized; the
    # link must charge each replacement its own encoded length.
    run = ScenarioRun(parse_scenario(CHAIN))
    tapped = []

    def corrupt(data: Data, src: str, dst: str) -> Data:
        if dst == "c1" and data.name.chunk == 3:
            data = replace(data, content=data.content + b"x" * 300)
        tapped.append(data)
        return data

    run.sim.data_tap = corrupt
    report = run.run()
    assert "IntegrityFailure" in report.sessions[0].aborted
    assert any(d.name.chunk == 3 for d in tapped)
    for data in tapped:
        assert encoded_size(data) == len(encode_packet(data))


def test_second_fetch_of_same_file_hits_gateway_cache():
    run = ScenarioRun(parse_scenario(CHAIN_IDLE))
    fetch_resource(run, "c1", "foo/480p/seg0.m4s")
    gw = run.sim.hosts["gw"].node
    assert gw.stats.cs_hits == 0
    payload, timings = fetch_resource(run, "c1", "foo/480p/seg0.m4s")
    assert gw.stats.cs_hits > 0
    assert all(t.from_cache_hint for t in timings)
    # cache-served chunks see only the consumer-gateway path
    assert max(t.rtt_ms for t in timings) < 30.0


def test_probing_attaches_to_fastest_hub():
    from ndnstream.experiments import extra_scenario

    scenario = extra_scenario("fch-probing")
    run = ScenarioRun(scenario)
    report = run.run()
    session = report.sessions[0]
    assert session.chosen_gateway == "hubB"  # 3 ms beats 12 and 20
    assert set(session.probe_rtts_ms) == {"hubA", "hubB", "hubC"}
    assert session.probe_rtts_ms["hubB"] < session.probe_rtts_ms["hubA"]
    assert session.probe_rtts_ms["hubA"] < session.probe_rtts_ms["hubC"]
    assert session.aborted is None


def test_multicast_two_consumers_share_one_upstream_stream():
    from ndnstream.experiments import experiment_scenario

    report = run_scenario(experiment_scenario("multicast"))
    assert all(s.aborted is None for s in report.sessions)
    counters = report.node_counters["gw"]
    server = report.server["srv"]
    # both sessions fetched the full video
    assert all(s.media_downloaded_s == pytest.approx(20.0) for s in report.sessions)
    # upstream interest volume is near the unique-chunk count, far below 2x
    assert counters["interests_out"] < 1.15 * server.interests
    assert counters["data_in"] == server.interests


def test_multicast_disabled_roughly_doubles_server_load():
    from ndnstream.experiments import experiment_scenario, extra_scenario

    cooperative = run_scenario(experiment_scenario("multicast"))
    disabled = run_scenario(extra_scenario("multicast-disabled"))
    assert disabled.server["srv"].interests > 1.8 * cooperative.server["srv"].interests


def test_same_seed_same_report_bytes():
    a = run_scenario(parse_scenario(CHAIN)).to_json()
    b = run_scenario(parse_scenario(CHAIN)).to_json()
    assert a == b


def test_counter_conservation_across_chain():
    report = run_scenario(parse_scenario(CHAIN))
    gw = report.node_counters["gw"]
    # no drops on this chain: everything the gateway forwarded upstream was
    # answered by the server exactly once
    assert report.link_drops == {}
    assert gw["interests_out"] == report.server["srv"].interests
    assert gw["data_in"] == report.server["srv"].interests
    # every downstream delivery pairs with an interest that passed the PIT
    assert gw["data_out"] <= gw["interests_in"]


def test_bottleneck_throughput_tracks_link_rate():
    from ndnstream.names import name_parse
    from ndnstream.netsim.topology import NetworkSim, fetch_file_via
    from ndnstream.packets import KeyMaterial
    from ndnstream.producer import Repository

    for rate_mbps in (0.8, 2.5, 8.0):
        sim = NetworkSim(seed=3)
        sim.add_consumer("c1")
        sim.add_forwarder("gw", cs_capacity_bytes=1 << 24)
        key = KeyMaterial("k", b"tput")
        repo = Repository(key)
        producer = sim.add_producer("srv", repo)
        sim.add_link("c1", "gw", propagation_ms=2, bandwidth_bps=100e6)
        sim.add_link("gw", "srv", propagation_ms=5, bandwidth_bps=rate_mbps * 1e6)
        sim.add_route("gw", name_parse("/t"), "srv")
        producer.announce(name_parse("/t"))
        payload = b"\x5a" * 400_000
        repo.publish_file(name_parse("/t/blob"), payload, version=1, chunk_size=8000)
        got, timings = fetch_file_via(sim, "c1", name_parse("/t/blob"), key)
        assert got == payload
        elapsed = max(t.received for t in timings) - min(t.first_sent for t in timings)
        goodput = len(payload) * 8 / elapsed
        # saturated bottleneck: goodput within 10% of the link rate
        assert abs(goodput - rate_mbps * 1e6) <= 0.10 * rate_mbps * 1e6


REBUFFER_CHAIN = """
scenario stall
seed 6
horizon 300

[nodes]
consumer c1
forwarder gw cs=32MB
producer srv delay-ms=1

[links]
c1 gw prop-ms=2 bw=100Mbps
gw srv prop-ms=5 bw=5Mbps

[routes]
gw /p srv

[videos]
video foo server=srv prefix=/p duration-s=40 segment-s=2
tier foo 720p height=720 min-bw=3.3Mbps

[sessions]
session s1 consumer=c1 videos=foo window=8

[throttles]
srv gw at-s=8 bw=0.5Mbps
srv gw at-s=20 bw=5Mbps
"""


def test_mid_stream_throttle_causes_rebuffering():
    report = run_scenario(parse_scenario(REBUFFER_CHAIN))
    s = report.sessions[0]
    assert s.aborted is None
    assert s.rebuffer_count >= 1
    assert s.rebuffer_total_s > 1.0
    # intervals are disjoint and ordered
    intervals = sorted(s.rebuffer_events)
    for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
        assert b1 <= a2
    # accounting holds even across stalls
    assert s.media_played_s + s.final_buffer_s == pytest.approx(s.media_downloaded_s)
    assert s.media_downloaded_s == pytest.approx(40.0)
