"""Retrieval metrics, report assembly and deterministic serialization.

Per-chunk RTT is the time from the latest transmitted interest to the
earliest received data. A file's RTT is the mean over its completed
chunks; its jitter is the mean absolute difference of successive chunk
RTTs. Reports serialize from their record fields, with stable key order
and floats rounded to six significant digits, so equal runs produce
identical bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING

from .errors import EmptyInput, IoFailure, NoCompletedChunks, NoLookups

if TYPE_CHECKING:
    from .consumer import ChunkTiming, PlayerSession


def _completed_rtts_ms(timings: list[ChunkTiming]) -> list[float]:
    rtts = [t.rtt_ms for t in timings if t.received is not None]
    if not rtts:
        raise NoCompletedChunks("no completed chunks")
    return rtts


def _jitter_ms(rtts: list[float]) -> float:
    if len(rtts) == 1:
        return 0.0
    diffs = [abs(b - a) for a, b in zip(rtts, rtts[1:])]
    return sum(diffs) / len(diffs)


def compute_file_rtt(timings: list[ChunkTiming]) -> float:
    """Mean per-chunk RTT in milliseconds over completed chunks."""
    rtts = _completed_rtts_ms(timings)
    return sum(rtts) / len(rtts)


def compute_jitter(timings: list[ChunkTiming]) -> float:
    """Mean absolute difference of consecutive RTTs in milliseconds; zero
    for a single chunk."""
    return _jitter_ms(_completed_rtts_ms(timings))


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
    summary of its chunk timings, which the report carries in their place."""

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
        completed = [t for t in self.timings if t.received is not None]
        self.chunk_count = len(completed)
        self.retx_total = sum(t.retx_count for t in completed)
        rtts = _completed_rtts_ms(completed)
        self.avg_rtt_ms = sum(rtts) / len(rtts)
        self.jitter_ms = _jitter_ms(rtts)
        self.cache_fraction = sum(t.from_cache_hint for t in completed) / len(completed)


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

    def all_files(self) -> list[FileRecord]:
        out: list[FileRecord] = []
        for session in self.sessions:
            out.extend(session.files)
        return out

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


def export_report(report: MetricsReport, directory: str | os.PathLike) -> list[str]:
    """Write report.json plus flat CSVs for external plotting."""
    try:
        os.makedirs(directory, exist_ok=True)
        written = []

        def emit(filename: str, text: str) -> None:
            path = os.path.join(directory, filename)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)

        emit("report.json", report.to_json() + "\n")

        lines = ["session,t_s,tier"]
        for s in report.sessions:
            for t, label in s.quality_timeline:
                lines.append(f"{s.session_id},{_fmt(t)},{label}")
        emit("quality_timeline.csv", "\n".join(lines) + "\n")

        lines = ["session,t_s,estimate_bps"]
        for s in report.sessions:
            for t, est in s.estimator_trace:
                lines.append(f"{s.session_id},{_fmt(t)},{_fmt(est)}")
        emit("estimator_trace.csv", "\n".join(lines) + "\n")

        lines = [
            "session,file,role,video,tier,segment,start_s,end_s,bytes,"
            "chunks,retx,avg_rtt_ms,jitter_ms,cache_fraction"
        ]
        for s in report.sessions:
            for f in s.files:
                lines.append(
                    ",".join(
                        [
                            s.session_id,
                            f.name,
                            f.role,
                            f.video_id,
                            _fmt(f.tier),
                            _fmt(f.segment_index),
                            _fmt(f.started),
                            _fmt(f.finished),
                            str(f.content_bytes),
                            str(f.chunk_count),
                            str(f.retx_total),
                            _fmt(f.avg_rtt_ms),
                            _fmt(f.jitter_ms),
                            _fmt(f.cache_fraction),
                        ]
                    )
                )
        emit("rtt_per_file.csv", "\n".join(lines) + "\n")

        lines = ["avg_rtt_ms,fraction"]
        rtts = [f.avg_rtt_ms for f in report.all_files()]
        if rtts:
            cdf = compute_cdf(rtts)
            for value, fraction in zip(cdf.values, cdf.fractions):
                lines.append(f"{_fmt(value)},{_fmt(fraction)}")
        emit("rtt_cdf.csv", "\n".join(lines) + "\n")
        return written
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
