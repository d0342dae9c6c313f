import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ndnstream.consumer import (
    AbrController,
    BandwidthEstimator,
    ChunkTiming,
    FetchEngine,
    FileFetch,
    parse_master_playlist,
    parse_media_playlist,
    resource_name,
)
from ndnstream.errors import ContentMissing, FetchTimeout, IntegrityFailure, InvalidRequest
from ndnstream.names import chunk_name, name_parse
from ndnstream.netsim.engine import EventEngine
from ndnstream.packets import Data, Interest, KeyMaterial
from ndnstream.producer import (
    chunk_payload,
    Representation,
    Repository,
    generate_master_playlist,
    generate_media_playlist,
    package_video,
)

from conftest import examples, run_engine

PAPER_TIERS = [
    Representation("240p", 240, 600_000),
    Representation("360p", 360, 900_000),
    Representation("480p", 480, 1_800_000),
    Representation("720p", 720, 3_300_000),
    Representation("1080p", 1080, 6_300_000),
]


# -- bandwidth estimator -------------------------------------------------------


def ewma_oracle(samples, half_life):
    """Closed-form duration-weighted EWMA with startup-bias correction."""
    acc = 0.0
    weight = 0.0
    for nbytes, duration in samples:
        alpha = 0.5 ** (duration / half_life)
        acc = alpha * acc + (1 - alpha) * (8 * nbytes / duration)
        weight += duration
    return acc / (1 - 0.5 ** (weight / half_life))


def test_single_sample_reports_its_rate():
    est = BandwidthEstimator()
    value = est.record_sample(125_000, 1.0)  # 1 Mbps
    assert value == pytest.approx(1_000_000.0)


def test_constant_samples_are_a_fixed_point():
    est = BandwidthEstimator()
    for _ in range(50):
        value = est.record_sample(250_000, 0.5)  # 4 Mbps
    assert value == pytest.approx(4_000_000.0)


def test_drop_lands_between_rates_and_matches_slow_oracle():
    est = BandwidthEstimator(2.0, 6.0)
    samples = [(1_000_000, 1.0), (125_000, 1.0)]  # 8 Mbps then 1 Mbps
    for nbytes, duration in samples:
        value = est.record_sample(nbytes, duration)
    assert 1_000_000 < value < 8_000_000
    assert value <= ewma_oracle(samples, 6.0) + 1e-6


def test_estimate_matches_min_of_oracles_random():
    rng = random.Random(3)
    for _ in range(50):
        fast, slow = rng.uniform(0.5, 4), rng.uniform(4, 10)
        est = BandwidthEstimator(fast, slow)
        samples = [
            (rng.randrange(1000, 1_000_000), rng.uniform(0.05, 3.0)) for _ in range(10)
        ]
        for nbytes, duration in samples:
            value = est.record_sample(nbytes, duration)
        expected = min(ewma_oracle(samples, fast), ewma_oracle(samples, slow))
        assert value == pytest.approx(expected)


def test_no_estimate_before_first_sample():
    est = BandwidthEstimator()
    assert not est.has_estimate
    with pytest.raises(ValueError):
        est.estimate_bps()


# -- abr selection ----------------------------------------------------------------


def test_select_full_hd_at_7mbps():
    abr = AbrController(PAPER_TIERS)
    assert abr.select(7_000_000).label == "1080p"  # 6.3 <= 0.95*7.0


def test_select_lowest_when_nothing_fits():
    abr = AbrController(PAPER_TIERS)
    assert abr.select(800_000).label == "240p"  # 0.6 <= 0.76, 0.9 > 0.76... highest is 240p


def test_select_medium_tier():
    abr = AbrController(PAPER_TIERS)
    assert abr.select(2_000_000).label == "480p"  # 1.8 <= 1.9 < 3.3


def test_selection_monotone_in_estimate():
    abr = AbrController(PAPER_TIERS)
    rng = random.Random(8)
    estimates = sorted(rng.uniform(1e5, 2e7) for _ in range(100))
    indices = [abr.tiers.index(abr.select(e)) for e in estimates]
    assert indices == sorted(indices)


def test_selection_scale_invariant():
    rng = random.Random(9)
    for _ in range(50):
        scale = rng.uniform(0.1, 10)
        scaled = [
            Representation(r.label, r.height, int(r.bitrate_bps * scale) or 1)
            for r in PAPER_TIERS
        ]
        estimate = rng.uniform(5e5, 1e7)
        plain = AbrController(PAPER_TIERS).select(estimate).label
        rescaled = AbrController(scaled).select(estimate * scale).label
        assert plain == rescaled


def test_select_updates_current_index():
    abr = AbrController(PAPER_TIERS)
    assert abr.select(7_000_000) is abr.tiers[4]
    assert abr.select(1_000_000) is abr.tiers[1]  # 0.9 <= 0.95


# -- file fetch over a scripted loopback -------------------------------------------


class Loopback:
    """Transport that answers interests from a repository after a fixed
    one-way delay; can drop selected transmissions. ``peak_in_flight`` is
    the most interests answered and not yet delivered at once."""

    def __init__(self, repo: Repository, rtt_s: float = 0.05, drop=None):
        self.engine = EventEngine()
        self.repo = repo
        self.rtt_s = rtt_s
        self.drop = drop or (lambda interest, nth: False)
        self.fetch: FileFetch | None = None
        self.sent: list[tuple[float, Interest]] = []
        self.sends_by_name: dict[str, int] = {}
        self.in_flight = self.peak_in_flight = 0

    def send_interest(self, interest):
        self.sent.append((self.engine.now, interest))
        nth = self.sends_by_name.get(str(interest.name), 0) + 1
        self.sends_by_name[str(interest.name)] = nth
        if self.drop(interest, nth):
            return
        response = self.repo.resolve(interest)
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        self.engine.schedule_in(self.rtt_s, self._deliver, (response,))

    def _deliver(self, response):
        self.in_flight -= 1
        if isinstance(response, Data):
            self.fetch.handle_data(response, False)
        else:
            self.fetch.handle_nack(response)

    def run_fetch(self, base, engine_cfg, key, fetch_cls=FileFetch):
        result = {}

        def on_complete(chunks, timings):
            result["chunks"] = chunks
            result["payload"] = b"".join(chunks)
            result["timings"] = timings
            result["at"] = self.engine.now

        def on_error(exc):
            result["error"] = exc
            result["at"] = self.engine.now

        self.fetch = fetch_cls(
            self, engine_cfg, base, key, random.Random(1), on_complete, on_error
        )
        self.fetch.start()
        run_engine(self.engine)
        return result


def test_single_chunk_file_single_interest(key):
    repo = Repository(key)
    repo.publish_file(name_parse("/f"), b"tiny", version=1, chunk_size=8000)
    net = Loopback(repo)
    result = net.run_fetch(name_parse("/f"), FetchEngine(window=4), key)
    assert result["payload"] == b"tiny"
    assert len(net.sent) == 1
    assert net.sent[0][1].can_be_prefix


def test_window_never_exceeded(key):
    repo = Repository(key)
    repo.publish_file(name_parse("/f"), b"\x05" * 10_000, version=1, chunk_size=1000)
    net = Loopback(repo)
    result = net.run_fetch(name_parse("/f"), FetchEngine(window=4), key)
    assert result["payload"] == b"\x05" * 10_000
    assert net.peak_in_flight == 4


def test_lost_data_rtt_measured_from_retransmission(key):
    repo = Repository(key)
    repo.publish_file(name_parse("/f"), b"\x07" * 8000, version=1, chunk_size=1000)
    # drop the first transmission of chunk 3 only
    net = Loopback(repo, rtt_s=0.05, drop=lambda i, nth: str(i.name).endswith("c=3") and nth == 1)
    result = net.run_fetch(name_parse("/f"), FetchEngine(window=4, rto_ms=1000), key)
    assert result["payload"] == b"\x07" * 8000
    timing = next(t for t in result["timings"] if t.chunk == 3)
    assert timing.retx_count == 1
    assert timing.rtt_ms == pytest.approx(50.0)
    assert timing.last_sent - timing.first_sent == pytest.approx(1.0)


def test_lost_discovery_rtt_measured_from_retransmission(key):
    repo = Repository(key)
    repo.publish_file(name_parse("/f"), b"\x09" * 3000, version=1, chunk_size=1000)
    # drop the first discovery interest only
    net = Loopback(repo, rtt_s=0.05, drop=lambda i, nth: i.can_be_prefix and nth == 1)
    result = net.run_fetch(name_parse("/f"), FetchEngine(window=4, rto_ms=1000), key)
    assert result["payload"] == b"\x09" * 3000
    timing = next(t for t in result["timings"] if t.chunk == 0)
    assert timing.retx_count == 1
    assert timing.last_sent - timing.first_sent == pytest.approx(1.0)
    assert timing.rtt_ms == pytest.approx(50.0)


def test_discovery_budget_exhaustion_times_out(key):
    repo = Repository(key)
    repo.publish_file(name_parse("/f"), b"payload", version=1)
    net = Loopback(repo, drop=lambda i, nth: i.can_be_prefix)
    result = net.run_fetch(name_parse("/f"), FetchEngine(rto_ms=100, max_retx=2), key)
    assert isinstance(result["error"], FetchTimeout)
    assert str(result["error"]) == "discovery of /f timed out"
    assert len(net.sent) == 3  # first send plus max_retx retransmissions


def test_retx_budget_exhaustion_times_out(key):
    repo = Repository(key)
    repo.publish_file(name_parse("/f"), b"\x07" * 3000, version=1, chunk_size=1000)
    net = Loopback(repo, drop=lambda i, nth: str(i.name).endswith("c=2"))
    result = net.run_fetch(name_parse("/f"), FetchEngine(window=4, rto_ms=100, max_retx=2), key)
    assert isinstance(result["error"], FetchTimeout)


def test_missing_content_aborts(key):
    repo = Repository(key)
    net = Loopback(repo)
    result = net.run_fetch(name_parse("/absent"), FetchEngine(), key)
    assert isinstance(result["error"], ContentMissing)


def test_integrity_failure_detected(key):
    repo = Repository(key)
    repo.publish_file(name_parse("/f"), b"payload", version=1)
    wrong = KeyMaterial("other", b"not-the-key")
    net = Loopback(repo)
    result = net.run_fetch(name_parse("/f"), FetchEngine(), wrong)
    assert isinstance(result["error"], IntegrityFailure)


def test_pipelined_reassembly_random_sizes(key):
    rng = random.Random(23)
    repo = Repository(key)
    reordered = 0
    for i in range(10):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20_000)))
        base = name_parse(f"/f{i}")
        repo.publish_file(base, payload, version=1, chunk_size=1200)
        # Losing the first send of some chunks brings their data back late,
        # out of chunk order.
        loss = random.Random(i)
        lost = {b"c=%d" % k for k in range(20) if loss.random() < 0.3}
        net = Loopback(repo, drop=lambda i, nth: nth == 1 and i.name.components[-1] in lost)
        result = net.run_fetch(base, FetchEngine(window=8), key)
        assert result["payload"] == payload
        # The fetch hands over the chunk contents in chunk order.
        assert result["chunks"] == chunk_payload(payload, 1200)
        received = [t.received for t in result["timings"]]
        reordered += received != sorted(received)
    assert reordered


def test_chunk_timing_is_slotted():
    timing = ChunkTiming(None, first_sent=0.0, last_sent=0.5)
    assert not hasattr(timing, "__dict__")
    with pytest.raises(AttributeError):
        timing.retransmitted = True
    timing.chunk, timing.received = 3, 0.75
    assert timing.rtt_ms == 250.0


# -- one retransmission timer per fetch ------------------------------------------------


class PerInterestTimers(FileFetch):
    """Reference model: every send schedules its own timer, which
    retransmits its request only if no later send has superseded it."""

    def _send(self, chunk):
        now = self.events.now
        serial = self._outstanding.get(chunk, 0) + 1
        self._outstanding[chunk] = serial
        name = self.base if chunk is None else chunk_name(self.base, self.version, chunk)
        interest = Interest(name, can_be_prefix=chunk is None, nonce=self.rng.getrandbits(32))
        timing = self.timings.get(chunk)
        if timing is None:
            self.timings[chunk] = ChunkTiming(chunk, first_sent=now, last_sent=now)
        else:
            timing.last_sent = now
            timing.retx_count += 1
        self.transport.send_interest(interest)
        self.events.schedule(
            now + self.engine.rto_ms / 1000.0, self._timeout, None, (chunk, serial)
        )

    def _timeout(self, chunk, serial):
        if self._done or self._outstanding.get(chunk) != serial:
            return
        if self.timings[chunk].retx_count >= self.engine.max_retx:
            what = "discovery" if chunk is None else f"chunk {chunk}"
            self._fail(FetchTimeout(f"{what} of {self.base} timed out"))
            return
        self._send(chunk)


class TimerCountingEngine(EventEngine):
    """Engine that counts the fetch's timers still waiting to fire: the
    events whose action is a method of a ``FileFetch``. The loopback's
    replies are closures and go uncounted."""

    def __init__(self):
        super().__init__()
        self.pending_timers = 0
        self.max_pending_timers = 0

    def schedule(self, at, action, seq=None, args=()):
        if not isinstance(getattr(action, "__self__", None), FileFetch):
            return super().schedule(at, action, seq, args)
        self.pending_timers += 1
        self.max_pending_timers = max(self.max_pending_timers, self.pending_timers)
        return super().schedule(at, self._fire, seq, (action, args))

    def _fire(self, action, args):
        self.pending_timers -= 1
        action(*args)


class TimerCountingLoopback(Loopback):
    """Loopback that drops the sends whose overall index is in ``dropped``
    and runs on a ``TimerCountingEngine``."""

    def __init__(self, repo, rtt_s, dropped):
        super().__init__(repo, rtt_s, drop=lambda interest, nth: len(self.sent) - 1 in dropped)
        self.engine = TimerCountingEngine()


# RTTs and RTOs with no small common multiple. Under the 100 ms RTO the
# longer RTT times every request out before its first reply arrives. A reply
# can still land on a deadline: the reply to a retransmission sent at
# t + rto arrives at t + rto + rtt, the deadline of a request first sent at
# t + rtt. The example pins one such tie, where the fetch must retransmit
# before taking the reply, as the request's own timer would have.
@settings(max_examples=examples(150), deadline=None)
@example(chunks=12, window=3, rto_ms=100.0, rtt_s=0.0371, max_retx=1, dropped={4, 7})
@given(
    chunks=st.integers(1, 12),
    window=st.integers(1, 6),
    rto_ms=st.sampled_from([100.0, 250.0]),
    rtt_s=st.sampled_from([0.0371, 0.1303]),
    max_retx=st.integers(0, 3),
    dropped=st.sets(st.integers(0, 60), max_size=15),
)
def test_one_timer_retransmits_as_per_interest_timers(
    chunks, window, rto_ms, rtt_s, max_retx, dropped
):
    key = KeyMaterial("test-key", b"secret")
    repo = Repository(key)
    payload = bytes(k % 251 for k in range(1000 * chunks - 1))
    repo.publish_file(name_parse("/f"), payload, version=1, chunk_size=1000)
    cfg = FetchEngine(window=window, rto_ms=rto_ms, max_retx=max_retx)

    ref_net = TimerCountingLoopback(repo, rtt_s, dropped)
    ref = ref_net.run_fetch(name_parse("/f"), cfg, key, fetch_cls=PerInterestTimers)
    net = TimerCountingLoopback(repo, rtt_s, dropped)
    got = net.run_fetch(name_parse("/f"), cfg, key)

    # The same requests leave at the same instants, in the same order,
    # and the fetch ends the same way at the same instant.
    assert [(t, i.name, i.nonce) for t, i in net.sent] == [
        (t, i.name, i.nonce) for t, i in ref_net.sent
    ]
    assert got["at"] == ref["at"]
    assert repr(got.get("error")) == repr(ref.get("error"))
    assert got.get("payload") == ref.get("payload")
    # Each retransmission leaves exactly one RTO after the request's last send.
    last_sent = {}
    for t, interest in net.sent:
        if interest.name in last_sent:
            assert t == last_sent[interest.name] + rto_ms / 1000.0
        last_sent[interest.name] = t
    assert net.engine.max_pending_timers == 1


# -- playlist parsing ----------------------------------------------------------------


def test_master_playlist_round_trip():
    catalog = package_video("v", 10.0, 4.0, PAPER_TIERS)
    entries = parse_master_playlist(generate_master_playlist(catalog))
    assert [(label, bw) for label, bw, _h, _u in entries] == [
        ("240p", 600_000),
        ("360p", 900_000),
        ("480p", 1_800_000),
        ("720p", 3_300_000),
        ("1080p", 6_300_000),
    ]
    assert entries[0][3] == "240p/playlist.m3u8"


def test_media_playlist_round_trip():
    catalog = package_video("v", 10.0, 4.0, PAPER_TIERS)
    segments = parse_media_playlist(generate_media_playlist(catalog, PAPER_TIERS[2]))
    assert [u for _d, u in segments] == ["seg0.m4s", "seg1.m4s", "seg2.m4s"]
    assert [d for d, _u in segments] == [4.0, 4.0, 2.0]
    assert sum(d for d, _ in segments) == pytest.approx(10.0)


# -- resource naming -------------------------------------------------------------------


def test_resource_name_maps_under_prefix():
    name = resource_name(name_parse("/ndn/web/video"), "foo/playlist.m3u8")
    assert str(name) == "/ndn/web/video/foo/playlist.m3u8"


def test_resource_name_rejects_empty_and_absolute():
    prefix = name_parse("/ndn/web/video")
    for bad in ("", "/abs", "a//b"):
        with pytest.raises(InvalidRequest):
            resource_name(prefix, bad)
