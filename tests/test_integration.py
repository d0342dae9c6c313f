"""End-to-end behavior through the emulator."""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from ndnstream import consumer
from ndnstream.errors import ContentMissing, IntegrityFailure, InvalidRequest
from ndnstream.names import name_parse
from ndnstream.netsim.scenario import ScenarioRun, parse_scenario, run_scenario
from ndnstream.netsim.topology import ConsumerHost
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

DATA = Path(__file__).parent / "data"
GOLDEN = (DATA / "golden.scn").read_text()
FANOUT = (DATA / "fanout.scn").read_text()
LOSSY = (DATA / "lossy.scn").read_text()

# Same chain without a player session, for driving fetches directly.
CHAIN_IDLE = CHAIN.split("[sessions]")[0]


def fetch_resource(run: ScenarioRun, consumer_id: str, path: str):
    """Resource request against a built scenario, returning payload+timings."""
    from ndnstream.consumer import resource_name
    from ndnstream.netsim.topology import fetch_file_via

    prefix, key = run.fetch_table[path.split("/", 1)[0]]
    base = resource_name(prefix, path)
    return fetch_file_via(run.sim, consumer_id, base, key)


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


def test_multi_video_session_picks_each_videos_own_tiers():
    # foo has 240p and 480p, bar 240p and 720p: bar's segments must come
    # from bar's tiers, with the bandwidth estimate carried over from foo.
    report = run_scenario(parse_scenario((DATA / "two_videos.scn").read_text()))
    (session,) = report.sessions
    assert session.aborted is None
    assert session.rebuffer_count == 0
    assert session.media_played_s == pytest.approx(10.0)
    tiers = {"foo": {"240p", "480p"}, "bar": {"240p", "720p"}}
    segments = session.segment_files()
    assert [f.video_id for f in segments] == ["foo"] * 2 + ["bar"] * 3
    for f in segments:
        assert f.tier in tiers[f.video_id]
    assert len(session.files) == 11


@pytest.fixture
def fetches(monkeypatch):
    """Every ``FileFetch`` built while the test runs, in order; each one's
    ``peak`` is the most requests it had outstanding at once."""
    made = []

    class RecordingFetch(consumer.FileFetch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.peak = 0
            made.append(self)

        def _send(self, chunk):
            super()._send(chunk)
            self.peak = max(self.peak, len(self._outstanding))

    monkeypatch.setattr(consumer, "FileFetch", RecordingFetch)
    return made


def test_in_flight_bound_holds_through_network(fetches):
    run = ScenarioRun(parse_scenario(CHAIN.replace("window=8", "window=3")))
    report = run.run()
    assert report.sessions[0].aborted is None
    assert len(fetches) > 1
    assert all(f.peak <= 3 for f in fetches)
    assert max(f.peak for f in fetches) == 3


def test_resource_request_stops_when_its_fetch_ends(fetches):
    # A resource request runs the engine only as far as its own fetch: the
    # session scheduled in the scenario is not played out as a side effect.
    run = ScenarioRun(parse_scenario(GOLDEN))
    live = run.live_sessions
    payload = run.resource_request("c1", "foo/playlist.m3u8")
    assert payload.decode().startswith("#EXTM3U")
    request = fetches[0]  # built before the engine runs any session event
    assert run.sim.engine.now == max(t.received for t in request.timings.values())
    assert run.live_sessions == live == 1
    report = run.run()
    assert report.sessions[0].aborted is None


def test_producer_nack_crosses_the_gateway_to_the_consumer():
    # The producer nacks a name it does not hold; the gateway forwards the
    # nack down the PIT entry's face and removes the entry.
    run = ScenarioRun(parse_scenario(GOLDEN))
    with pytest.raises(ContentMissing):
        run.resource_request("c1", "foo/nosuch.m3u8")
    gw = run.sim.hosts["gw"].node
    assert gw.stats.nacks_in == gw.stats.nacks_out == 1
    assert gw.pit == {}


def test_resource_request_for_an_unknown_video_sends_no_interest():
    # The path's first component picks the video; one that is not
    # published fails before any interest leaves the consumer.
    run = ScenarioRun(parse_scenario(GOLDEN))
    with pytest.raises(InvalidRequest, match="nosuch"):
        run.resource_request("c1", "nosuch/playlist.m3u8")
    gw = run.sim.hosts["gw"].node
    assert gw.pit == {}
    assert gw.stats.interests_in == 0 and run.sim.engine.now == 0.0


def test_published_names_are_shared_through_the_network(fetches, monkeypatch):
    # Every chunk interest a consumer sends, every gateway CS key and every
    # fetch's base is the producer's own object, not an equal copy.
    chunk_interests = []
    send_interest = ConsumerHost.send_interest

    def recording_send(host, interest):
        if not interest.can_be_prefix:
            chunk_interests.append(interest.name)
        send_interest(host, interest)

    monkeypatch.setattr(ConsumerHost, "send_interest", recording_send)
    run = ScenarioRun(parse_scenario(FANOUT))
    report = run.run()
    assert all(s.aborted is None for s in report.sessions)
    repo = run.repos["srv"]
    stored = {name: name for name in repo.store}
    published = {base: base for base in repo.latest}
    entries = run.sim.hosts["gw"].node.cs.entries
    assert entries and chunk_interests and fetches
    assert all(stored[name] is name for name in entries)
    assert all(stored[name] is name for name in chunk_interests)
    assert all(published[f.base] is f.base for f in fetches)


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


SHARED_GATEWAY = """
scenario shared-gateway
seed 4

[nodes]
consumer c1
consumer c2
forwarder gw cs=32MB
producer srv delay-ms=1

[links]
c1 gw prop-ms=5 bw=50Mbps
c2 gw prop-ms=8 bw=50Mbps
gw srv prop-ms=15 bw=20Mbps

[routes]
gw /ndn/web/video srv

[videos]
video foo server=srv prefix=/ndn/web/video duration-s=6 segment-s=2
tier foo 480p height=480 min-bw=1.8Mbps

[sessions]
session s1 consumer=c1 videos=foo
session s2 consumer=c2 videos=foo start-s=2
"""


def test_corrupted_copy_of_shared_verified_data_is_rejected(monkeypatch):
    # The gateway cache hands c1 and c2 the same data objects. Once c1 has
    # verified one, a corrupted copy of it on its way to c2 keeps the name
    # and the tag, so only a fresh check of the copy can reject it.
    verified = {}
    real_verify = consumer.verify_data

    def recording_verify(data, key):
        ok = real_verify(data, key)
        if ok:
            verified[id(data)] = data
        return ok

    monkeypatch.setattr(consumer, "verify_data", recording_verify)
    run = ScenarioRun(parse_scenario(SHARED_GATEWAY))
    corrupted = []

    def corrupt(data: Data, src: str, dst: str) -> Data:
        if not corrupted and dst == "c2" and data.content and verified.get(id(data)) is data:
            corrupted.append(data.name)
            return Data(
                data.name,
                bytes([data.content[0] ^ 0x01]) + data.content[1:],
                data.final_chunk,
                data.freshness_ms,
                data.integrity_tag,
            )
        return data

    run.sim.data_tap = corrupt
    report = run.run()
    assert len(corrupted) == 1
    first, second = report.sessions
    assert first.aborted is None
    assert first.media_played_s == pytest.approx(6.0)
    assert second.aborted is not None and "IntegrityFailure" in second.aborted
    assert str(corrupted[0]) in second.aborted


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
    from ndnstream.experiments import experiment_scenario

    scenario = experiment_scenario("fch-probing")
    run = ScenarioRun(scenario)
    report = run.run()
    session = report.sessions[0]
    assert session.chosen_gateway == "hubB"  # 3 ms beats 12 and 20
    assert set(session.probe_rtts_ms) == {"hubA", "hubB", "hubC"}
    assert session.probe_rtts_ms["hubB"] < session.probe_rtts_ms["hubA"]
    assert session.probe_rtts_ms["hubA"] < session.probe_rtts_ms["hubC"]
    assert session.aborted is None


def test_sessions_beginning_while_probing_share_one_probe_round():
    # The second session begins while the first one's probes are in flight:
    # it joins that round instead of probing again, and both play.
    from ndnstream.experiments import FCH_PROBING

    run = ScenarioRun(
        parse_scenario(FCH_PROBING + "session s2 consumer=c1 videos=foo start-s=0.001\n")
    )
    host, send, probes = run.sim.hosts["c1"], run.sim.send, []

    def recording_send(src, face, packet, from_producer):
        if src == "c1" and host.gateway_face is None:
            probes.append(packet)
        send(src, face, packet, from_producer)

    run.sim.send = recording_send
    report = run.run()
    assert len(probes) == 3
    assert run.live_sessions == 0
    for session in report.sessions:
        assert session.aborted is None and session.chosen_gateway == "hubB"
        assert session.media_played_s == pytest.approx(8.0)


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
    from ndnstream.experiments import experiment_scenario

    cooperative = run_scenario(experiment_scenario("multicast"))
    disabled = run_scenario(experiment_scenario("multicast-disabled"))
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
        sim.add_producer("srv", repo)
        sim.add_link("c1", "gw", propagation_ms=2, bandwidth_bps=100e6)
        sim.add_link("gw", "srv", propagation_ms=5, bandwidth_bps=rate_mbps * 1e6)
        sim.add_route("gw", name_parse("/t"), "srv")
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


# Report digests of lossy.scn variants that retransmit: a gw-srv queue
# that aborts the session, two that recover with 120 and 190 lost data
# packets, and a short RTO on a two-interest window. The digests were
# taken while every interest still scheduled its own retransmission
# timer, so they pin that a fetch retransmits at the same instants, in
# the same order, and gives up at the same instant.
LOSSY_PINS = {
    ("8KB", ""): "94c8a3d76e29540fb9f16f2e619bc93c7fb3db12c48a3e457772d1476fa9686e",
    ("12KB", ""): "0396a5d16e8592293d48ddee77c462d0fd2fea501ec17f196df471c47f744b95",
    ("32KB", "window=16"): "c818c9dd4dae3a6fba16f873f6c63c29c18d921d9cc3490c04cef11ee6bfee47",
    ("4KB", "window=2 rto-ms=100"): "005b231e3b98039cc1d8f5cc6a1bc46ccfdb80f6bdd327f323b1fe383374fccb",
}


@pytest.mark.parametrize("variant", sorted(LOSSY_PINS), ids=lambda v: " ".join(filter(None, v)))
def test_lossy_retransmission_reports_pinned(variant):
    queue, session_keys = variant
    text = LOSSY.replace("queue=20KB", f"queue={queue}").replace(
        "videos=foo", f"videos=foo {session_keys}".rstrip()
    )
    assert f"queue={queue}" in text and session_keys in text
    report = run_scenario(parse_scenario(text))
    assert sum(report.link_drops.values()) >= 10
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == LOSSY_PINS[variant]


@pytest.mark.parametrize("queue_kb", [12, 16, 20, 24, 32, 48])
def test_lossy_bottleneck_recovers_every_lost_chunk(queue_kb):
    """A tail-drop queue on gw-srv loses data; each retransmission goes
    upstream again, so the session plays to the end. (4 and 8 KB queues
    still abort: their retry budget runs out before recovery.)"""
    text = LOSSY.replace("queue=20KB", f"queue={queue_kb}KB")
    assert f"queue={queue_kb}KB" in text
    report = run_scenario(parse_scenario(text))
    assert sum(report.link_drops.values()) >= 1
    s = report.sessions[0]
    assert s.aborted is None
    assert s.media_played_s == pytest.approx(20.0)
    gw = report.node_counters["gw"]
    assert gw["interests_out"] == gw["interests_in"]


def test_prefetch_churn_scenario_loses_cover_and_skips_covered_slots():
    """tests/data/prefetch_churn.scn (small CS, 1.5 s freshness, a throttled
    tail-drop upstream) makes the gateway drop cached chunks and lose PIT
    entries, and some prefetch plans still start past their window's first
    slot because the frontier shows it covered with no loss since."""
    text = (Path(__file__).parent / "data" / "prefetch_churn.scn").read_text()
    run = ScenarioRun(parse_scenario(text))
    node = run.sim.hosts["gw"].node
    plan = node.prefetch_plan
    started_past_first = 0

    def spy(trigger, now):
        nonlocal started_past_first
        vc = trigger.name
        frontier = node._frontier.get(vc.base)
        fresh = vc.base not in node.cs.by_base or node.cs.all_fresh(vc.base, now)
        started_past_first += (
            fresh
            and frontier is not None
            and frontier[0] == vc.version
            and frontier[1] <= vc.chunk + 1 <= frontier[2]
            and frontier[3] == node.cs.drops + node._pit_losses
        )
        return plan(trigger, now)

    node.prefetch_plan = spy
    run.run()
    assert node.cs.drops > 0 and node._pit_losses > 0
    assert started_past_first > 0
