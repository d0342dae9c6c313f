import csv
import json
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from ndnstream.consumer import ChunkTiming
from ndnstream.errors import EmptyInput, NoCompletedChunks, NoLookups
from ndnstream.forwarding import NodeStats
from ndnstream.metrics import (
    CacheStats,
    FileRecord,
    MetricsReport,
    ServerSummary,
    SessionMetrics,
    cache_hit_ratio,
    compute_cdf,
    compute_file_rtt,
    compute_jitter,
    export_report,
)

from conftest import examples


def timings_from_rtts(rtts_ms, start=0.0):
    out = []
    t = start
    for i, rtt in enumerate(rtts_ms):
        sent = t
        received = t + rtt / 1000.0
        out.append(ChunkTiming(i, first_sent=sent, last_sent=sent, received=received))
        t = received
    return out


def test_rtt_mean_of_chunks():
    assert compute_file_rtt(timings_from_rtts([10, 20, 30])) == pytest.approx(20.0)


def test_rtt_single_chunk():
    assert compute_file_rtt(timings_from_rtts([15])) == pytest.approx(15.0)


def test_rtt_counts_from_latest_send():
    timing = ChunkTiming(0, first_sent=0.0, last_sent=1.0, received=1.05, retx_count=1)
    assert compute_file_rtt([timing]) == pytest.approx(50.0)


def test_rtt_requires_completed_chunk():
    with pytest.raises(NoCompletedChunks):
        compute_file_rtt([ChunkTiming(0, 0.0, 0.0, received=None)])


def test_jitter_constant_rtts_zero():
    assert compute_jitter(timings_from_rtts([25, 25, 25, 25])) == pytest.approx(0.0, abs=1e-9)


def test_jitter_hand_computed():
    assert compute_jitter(timings_from_rtts([10, 20, 10])) == pytest.approx(10.0)


def test_jitter_single_chunk_zero():
    assert compute_jitter(timings_from_rtts([42])) == 0.0


def test_jitter_and_rtt_brute_force_oracle():
    rng = random.Random(77)
    for _ in range(200):
        rtts = [rng.uniform(1, 200) for _ in range(rng.randint(1, 40))]
        timings = timings_from_rtts(rtts)
        assert compute_file_rtt(timings) == pytest.approx(sum(rtts) / len(rtts))
        if len(rtts) > 1:
            expected = sum(abs(b - a) for a, b in zip(rtts, rtts[1:])) / (len(rtts) - 1)
            assert compute_jitter(timings) == pytest.approx(expected)


# One chunk's timing: its first send, the wait to its last send (zero
# unless retransmitted), its RTT or None when unanswered, and its cache hint.
_CHUNK = st.tuples(
    st.floats(0.0, 100.0),
    st.integers(0, 3),
    st.floats(0.0, 2.0),
    st.one_of(st.none(), st.floats(0.0, 2.0)),
    st.booleans(),
)


def _timing(chunk, drawn):
    first, retx, wait, rtt_s, hint = drawn
    last = first + wait if retx else first
    received = None if rtt_s is None else last + rtt_s
    return ChunkTiming(chunk, first, last, received, retx, hint)


@settings(max_examples=examples(200), deadline=None)
@given(st.lists(_CHUNK, max_size=40))
def test_file_record_summary_equals_separate_passes(drawn):
    # The one-pass summary equals, bit for bit, the five fields computed
    # one at a time over the completed chunks, each sum from zero in order.
    timings = [_timing(chunk, d) for chunk, d in enumerate(drawn)]
    completed = [t for t in timings if t.received is not None]

    def record():
        return FileRecord("f", "segment", "v", "240p", 0, 0.0, 1.0, 10, timings)

    if not completed:
        with pytest.raises(NoCompletedChunks):
            record()
        return
    rtts = [(t.received - t.last_sent) * 1000.0 for t in completed]
    diffs = [abs(b - a) for a, b in zip(rtts, rtts[1:])]
    expected = (
        len(completed),
        sum(t.retx_count for t in completed),
        (sum(rtts) / len(rtts)).hex(),
        (sum(diffs) / len(diffs) if diffs else 0.0).hex(),
        (sum(t.from_cache_hint for t in completed) / len(completed)).hex(),
    )
    got = record()
    summary = (
        got.chunk_count,
        got.retx_total,
        got.avg_rtt_ms.hex(),
        got.jitter_ms.hex(),
        got.cache_fraction.hex(),
    )
    assert summary == expected
    assert compute_file_rtt(timings).hex() == expected[2]
    assert compute_jitter(timings).hex() == expected[3]


def test_cdf_single_value():
    cdf = compute_cdf([5.0])
    assert cdf.values == [5.0] and cdf.fractions == [1.0]


def test_cdf_half_at_median():
    cdf = compute_cdf([1.0, 2.0, 3.0, 4.0])
    assert cdf.fractions[cdf.values.index(2.0)] == pytest.approx(0.5)


def test_cdf_nondecreasing_terminal_one():
    rng = random.Random(5)
    values = [rng.uniform(0, 100) for _ in range(321)]
    cdf = compute_cdf(values)
    assert cdf.values == sorted(cdf.values)
    assert all(a <= b for a, b in zip(cdf.fractions, cdf.fractions[1:]))
    assert cdf.fractions[-1] == pytest.approx(1.0)


def test_cdf_empty_rejected():
    with pytest.raises(EmptyInput):
        compute_cdf([])


def test_hit_ratio_examples():
    assert cache_hit_ratio(53, 47) == pytest.approx(0.53)
    assert cache_hit_ratio(0, 10) == 0.0
    assert cache_hit_ratio(10, 0) == 1.0
    with pytest.raises(NoLookups):
        cache_hit_ratio(0, 0)


SMALL = """
scenario report-test
seed 2

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


def _small_report(text=SMALL):
    from ndnstream.netsim.scenario import parse_scenario, run_scenario

    return run_scenario(parse_scenario(text))


def _field_names(record, *excluded):
    return {f.name for f in fields(record)} - set(excluded)


def test_report_keys_are_the_record_fields():
    payload = json.loads(_small_report().to_json())
    assert set(payload) == _field_names(MetricsReport)
    (session,) = payload["sessions"]
    assert set(session) == _field_names(SessionMetrics)
    assert session["files"]
    for record in session["files"]:
        assert set(record) == _field_names(FileRecord, "timings")
    assert set(payload["cache"]["gw"]) == _field_names(CacheStats)
    assert set(payload["server"]["srv"]) == _field_names(ServerSummary)
    assert set(payload["node_counters"]["gw"]) == _field_names(NodeStats, "cs_hits", "cs_misses")


def test_forwarder_without_lookups_reports_null_hit_ratio():
    report = _small_report(SMALL.replace("producer srv", "producer srv\nforwarder idle"))
    assert report.cache["idle"].hit_ratio is None
    assert report.cache["gw"].hit_ratio == 0.0
    idle = json.loads(report.to_json())["cache"]["idle"]
    assert idle == {"cs_hits": 0, "cs_misses": 0, "hit_ratio": None}


def test_export_writes_expected_files(tmp_path):
    report = _small_report()
    written = export_report(report, tmp_path)
    names = sorted(p.split("/")[-1] for p in written)
    assert names == [
        "estimator_trace.csv",
        "quality_timeline.csv",
        "report.json",
        "rtt_cdf.csv",
        "rtt_per_file.csv",
    ]


def test_export_deterministic(tmp_path):
    report = _small_report()
    export_report(report, tmp_path / "a")
    export_report(report, tmp_path / "b")
    for name in ("report.json", "rtt_per_file.csv", "rtt_cdf.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_json_parses_back(tmp_path):
    report = _small_report()
    export_report(report, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["scenario_id"] == "report-test"
    assert payload["seed"] == 2
    assert len(payload["sessions"]) == 1
    session = payload["sessions"][0]
    assert session["rebuffer_count"] == len(session["rebuffer_events"])
    assert session["rebuffer_count"] == report.sessions[0].rebuffer_count
    assert payload["cache"]["gw"]["cs_hits"] == 0


def test_quality_timeline_rows_match(tmp_path):
    report = _small_report()
    export_report(report, tmp_path)
    rows = (tmp_path / "quality_timeline.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == sum(len(s.quality_timeline) for s in report.sessions)


def test_cdf_csv_terminal_fraction(tmp_path):
    report = _small_report()
    export_report(report, tmp_path)
    rows = (tmp_path / "rtt_cdf.csv").read_text().strip().splitlines()
    assert rows[-1].endswith(",1")


def test_golden_report_bytes_stable(tmp_path):
    """The committed golden report pins the serialization format."""
    import pathlib

    from ndnstream.netsim.scenario import parse_scenario, run_scenario

    data_dir = pathlib.Path(__file__).parent / "data"
    scenario = parse_scenario((data_dir / "golden.scn").read_text())
    report = run_scenario(scenario)
    assert report.to_json() + "\n" == (data_dir / "golden_report.json").read_text()


def _golden_with_prefix(prefix):
    import pathlib

    from ndnstream.netsim.scenario import parse_scenario, run_scenario

    text = (pathlib.Path(__file__).parent / "data" / "golden.scn").read_text()
    return run_scenario(parse_scenario(text.replace("/p ", f"{prefix} ")))


def test_rtt_per_file_csv_quotes_a_name_with_a_comma(tmp_path):
    report = _golden_with_prefix("/p,q")
    export_report(report, tmp_path)
    with open(tmp_path / "rtt_per_file.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 14
    records = report.sessions[0].files
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert len(row) == len(header)
        assert row[header.index("file")] == record.name
        assert record.name.startswith("/p,q/")


def test_rtt_per_file_csv_doubles_a_quote_in_a_name(tmp_path):
    export_report(_golden_with_prefix('/p"q'), tmp_path)
    first_row = (tmp_path / "rtt_per_file.csv").read_text().splitlines()[1]
    assert first_row.split(",")[1] == '"/p""q/foo/playlist.m3u8"'


@pytest.mark.parametrize("scn", ["golden", "fch_shared"])
def test_export_csv_bytes_pinned(tmp_path, scn):
    """The committed CSVs pin each table's header, cell format and row
    order; fch_shared's three sessions pin the order across sessions."""
    import pathlib

    from ndnstream.netsim.scenario import parse_scenario, run_scenario

    data_dir = pathlib.Path(__file__).parent / "data"
    report = run_scenario(parse_scenario((data_dir / f"{scn}.scn").read_text()))
    export_report(report, tmp_path)
    pinned = data_dir / f"{scn}_csv"
    for table in ("quality_timeline.csv", "estimator_trace.csv", "rtt_per_file.csv", "rtt_cdf.csv"):
        assert (tmp_path / table).read_bytes() == (pinned / table).read_bytes(), table
