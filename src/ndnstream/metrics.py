"""Retrieval metrics, report assembly and deterministic serialization.

Per-chunk RTT is the time from the latest transmitted interest to the
earliest received data. A file's RTT is the mean over its completed
chunks; its jitter is the mean absolute difference of successive chunk
RTTs. Reports serialize from their record fields, with stable key order
and floats rounded to six significant digits, so equal runs produce
identical bytes.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING

from .errors import EmptyInput, IoFailure, NoCompletedChunks, NoLookups

if TYPE_CHECKING:
    from .consumer import ChunkTiming, PlayerSession


def _summary(timings: list[ChunkTiming]) -> tuple[int, int, float, float, float]:
    """A file's chunk summary in one left-to-right pass over its completed
    chunks: their count, retransmissions, mean RTT and jitter in
    milliseconds, and the share served from a cache. Each sum adds its
    terms in chunk order from zero, as ``sum`` does, so a summary is
    bit-for-bit that of separate passes."""
    count = retx = hits = 0
    rtt_sum = diff_sum = 0.0
    last = None
    for t in timings:
        rtt = t.rtt_ms
        if rtt is None:
            continue
        count += 1
        retx += t.retx_count
        hits += t.from_cache_hint
        rtt_sum += rtt
        if last is not None:
            diff_sum += abs(rtt - last)
        last = rtt
    if not count:
        raise NoCompletedChunks("no completed chunks")
    jitter = diff_sum / (count - 1) if count > 1 else 0.0
    return count, retx, rtt_sum / count, jitter, hits / count


def compute_file_rtt(timings: list[ChunkTiming]) -> float:
    """Mean per-chunk RTT in milliseconds over completed chunks."""
    return _summary(timings)[2]


def compute_jitter(timings: list[ChunkTiming]) -> float:
    """Mean absolute difference of consecutive RTTs in milliseconds; zero
    for a single chunk."""
    return _summary(timings)[3]


@dataclass
class CdfSeries:
    values: list[float]
    fractions: list[float]


def compute_cdf(values: list[float]) -> CdfSeries:
    """Empirical CDF with a step of 1/n at each sorted value."""
    if not values:
        raise EmptyInput("cdf needs at least one value")
    ordered = sorted(values)
    n = len(ordered)
    return CdfSeries(ordered, [(i + 1) / n for i in range(n)])


def cache_hit_ratio(hits: int, misses: int) -> float:
    if hits + misses == 0:
        raise NoLookups("no lookups recorded")
    return hits / (hits + misses)


@dataclass
class FileRecord:
    """One completed file retrieval: what the player fetched, when, and the
    summary of its chunk timings, which the report carries in their place.
    The five summary fields come from one pass over the timings, the one
    that ``compute_file_rtt`` and ``compute_jitter`` make too."""

    name: str
    role: str  # master-playlist | media-playlist | segment
    video_id: str
    tier: str | None
    segment_index: int | None
    started: float
    finished: float
    content_bytes: int
    timings: list[ChunkTiming] = field(repr=False, metadata={"report": False})
    chunk_count: int = field(init=False)
    retx_total: int = field(init=False)
    avg_rtt_ms: float = field(init=False)
    jitter_ms: float = field(init=False)
    cache_fraction: float = field(init=False)

    def __post_init__(self) -> None:
        (
            self.chunk_count,
            self.retx_total,
            self.avg_rtt_ms,
            self.jitter_ms,
            self.cache_fraction,
        ) = _summary(self.timings)


@dataclass
class SessionMetrics:
    session_id: str
    consumer: str
    chosen_gateway: str | None
    probe_rtts_ms: dict[str, float]
    startup_delay_s: float | None
    rebuffer_count: int
    rebuffer_total_s: float
    rebuffer_events: list[tuple[float, float]]
    quality_timeline: list[tuple[float, str]]
    estimator_trace: list[tuple[float, float]]
    files: list[FileRecord]
    media_downloaded_s: float
    media_played_s: float
    final_buffer_s: float
    aborted: str | None

    @classmethod
    def from_session(
        cls,
        session: PlayerSession,
        consumer_id: str,
        chosen_gateway: str | None,
        probe_rtts_ms: dict[str, float],
    ) -> "SessionMetrics":
        rebuffers = session.rebuffer_events
        return cls(
            session_id=session.session_id,
            consumer=consumer_id,
            chosen_gateway=chosen_gateway,
            probe_rtts_ms=dict(probe_rtts_ms),
            startup_delay_s=session.startup_delay_s,
            rebuffer_count=len(rebuffers),
            rebuffer_total_s=sum(end - start for start, end in rebuffers),
            rebuffer_events=list(rebuffers),
            quality_timeline=list(session.quality_timeline),
            estimator_trace=list(session.estimator_trace),
            files=list(session.files),
            media_downloaded_s=session.media_downloaded_s,
            media_played_s=session.media_played_s,
            final_buffer_s=session.buffer_s,
            aborted=session.aborted,
        )

    def segment_files(self) -> list[FileRecord]:
        return [f for f in self.files if f.role == "segment"]


@dataclass
class CacheStats:
    cs_hits: int
    cs_misses: int
    hit_ratio: float | None = field(init=False)  # None without lookups

    def __post_init__(self) -> None:
        hits, misses = self.cs_hits, self.cs_misses
        self.hit_ratio = cache_hit_ratio(hits, misses) if hits + misses else None


@dataclass
class ServerSummary:
    interests: int
    mean_ms: float
    max_ms: float
    within_5ms: float


@dataclass
class MetricsReport:
    scenario_id: str
    seed: int
    sessions: list[SessionMetrics]
    cache: dict[str, CacheStats]
    node_counters: dict[str, dict[str, int]]
    server: dict[str, ServerSummary]
    link_drops: dict[str, int]

    def to_json(self) -> str:
        return json.dumps(_plain(self), indent=2, sort_keys=True)


def _plain(obj):
    """The JSON form of a report value: a record becomes its reported
    fields by name, a tuple a list, and a float is rounded to six
    significant digits."""
    if is_dataclass(obj):
        return {
            f.name: _plain(getattr(obj, f.name))
            for f in fields(obj)
            if f.metadata.get("report", True)
        }
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    return obj


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(header: list[str], rows) -> str:
    """A CSV table: the header line, then a line per row of ``_fmt`` cells,
    a cell holding a comma or a double quote quoted as in RFC 4180."""
    import csv  # not at the top: a run that exports no table need not load it
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *(map(_fmt, row) for row in rows)])
    return out.getvalue()


# rtt_per_file.csv's columns after the session: header name -> FileRecord field.
_FILE_COLUMNS = {
    "file": "name", "role": "role", "video": "video_id", "tier": "tier",
    "segment": "segment_index", "start_s": "started", "end_s": "finished",
    "bytes": "content_bytes", "chunks": "chunk_count", "retx": "retx_total",
    "avg_rtt_ms": "avg_rtt_ms", "jitter_ms": "jitter_ms", "cache_fraction": "cache_fraction",
}


def export_report(report: MetricsReport, directory: str | os.PathLike) -> list[str]:
    """Write report.json plus flat CSVs for external plotting: each
    session's rows in session order, every cell formatted by ``_fmt``."""
    sessions = report.sessions
    rtts = [f.avg_rtt_ms for s in sessions for f in s.files]
    cdf = compute_cdf(rtts) if rtts else CdfSeries([], [])
    tables = {
        "quality_timeline.csv": _table(
            ["session", "t_s", "tier"],
            ((s.session_id, t, label) for s in sessions for t, label in s.quality_timeline),
        ),
        "estimator_trace.csv": _table(
            ["session", "t_s", "estimate_bps"],
            ((s.session_id, t, est) for s in sessions for t, est in s.estimator_trace),
        ),
        "rtt_per_file.csv": _table(
            ["session", *_FILE_COLUMNS],
            (
                [s.session_id, *(getattr(f, name) for name in _FILE_COLUMNS.values())]
                for s in sessions
                for f in s.files
            ),
        ),
        "rtt_cdf.csv": _table(["avg_rtt_ms", "fraction"], zip(cdf.values, cdf.fractions)),
    }
    try:
        os.makedirs(directory, exist_ok=True)
        written = []
        for filename, text in {"report.json": report.to_json() + "\n", **tables}.items():
            path = os.path.join(directory, filename)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
        return written
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
