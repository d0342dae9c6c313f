"""Retrieval metrics, report assembly and deterministic serialization.

Per-chunk RTT is the time from the latest transmitted interest to the
earliest received data. A file's RTT is the mean over its completed
chunks; jitter is, by default, the mean absolute difference of successive
chunk RTTs (a variance-style alternative is available as a toggle).
Reports serialize from their record fields, with stable key order and
floats rounded to six significant digits, so equal runs produce identical
bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, is_dataclass

from .consumer import ChunkTiming, FileRecord, PlayerSession
from .errors import EmptyInput, IoFailure, NoCompletedChunks, NoLookups


def _completed_rtts_ms(timings: list[ChunkTiming]) -> list[float]:
    return [t.rtt_ms for t in timings if t.received is not None]


def compute_file_rtt(timings: list[ChunkTiming]) -> float:
    """Mean per-chunk RTT in milliseconds over completed chunks."""
    rtts = _completed_rtts_ms(timings)
    if not rtts:
        raise NoCompletedChunks("no completed chunks")
    return sum(rtts) / len(rtts)


def compute_jitter(timings: list[ChunkTiming], mode: str = "mad") -> float:
    """Successive-delay variability in milliseconds; zero for single chunks.

    mode "mad": mean absolute difference of consecutive RTTs (default).
    mode "var": population variance of the RTT sequence.
    """
    rtts = _completed_rtts_ms(timings)
    if not rtts:
        raise NoCompletedChunks("no completed chunks")
    if len(rtts) == 1:
        return 0.0
    if mode == "mad":
        diffs = [abs(b - a) for a, b in zip(rtts, rtts[1:])]
        return sum(diffs) / len(diffs)
    if mode == "var":
        mean = sum(rtts) / len(rtts)
        return sum((r - mean) ** 2 for r in rtts) / len(rtts)
    raise ValueError(f"unknown jitter mode {mode!r}")


@dataclass
class CdfSeries:
    values: list[float]
    fractions: list[float]

    def quantile(self, q: float) -> float:
        """Smallest value whose cumulative fraction reaches q."""
        for value, fraction in zip(self.values, self.fractions):
            if fraction >= q:
                return value
        return self.values[-1]


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
class FileRetrievalRecord:
    name: str
    role: str
    video_id: str
    tier: str | None
    segment_index: int | None
    started: float
    finished: float
    content_bytes: int
    chunk_count: int
    retx_total: int
    avg_rtt_ms: float
    jitter_ms: float
    cache_fraction: float
    timings: list[ChunkTiming] = field(
        default_factory=list, repr=False, metadata={"report": False}
    )

    @classmethod
    def from_file(cls, record: FileRecord, jitter_mode: str) -> "FileRetrievalRecord":
        completed = [t for t in record.timings if t.received is not None]
        cached = sum(1 for t in completed if t.from_cache_hint)
        return cls(
            name=record.name,
            role=record.role,
            video_id=record.video_id,
            tier=record.tier,
            segment_index=record.segment_index,
            started=record.started,
            finished=record.finished,
            content_bytes=record.content_bytes,
            chunk_count=len(completed),
            retx_total=sum(t.retx_count for t in completed),
            avg_rtt_ms=compute_file_rtt(record.timings),
            jitter_ms=compute_jitter(record.timings, jitter_mode),
            cache_fraction=cached / len(completed) if completed else 0.0,
            timings=record.timings,
        )


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
    files: list[FileRetrievalRecord]
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
        jitter_mode: str = "mad",
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
            files=[
                FileRetrievalRecord.from_file(f, jitter_mode)
                for f in session.files
                if any(t.received is not None for t in f.timings)
            ],
            media_downloaded_s=session.media_downloaded_s,
            media_played_s=session.media_played_s,
            final_buffer_s=session.buffer.level_s,
            aborted=session.aborted,
        )

    def segment_files(self) -> list[FileRetrievalRecord]:
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

    def all_files(self) -> list[FileRetrievalRecord]:
        out: list[FileRetrievalRecord] = []
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
