"""Player-side stack: pipelined fetching, bandwidth estimation, ABR and playback.

The pieces are transport-agnostic: a ``Transport`` is an ``engine``, the
``EventEngine`` they read the clock from and schedule their timers on, plus
``send_interest()``. That is how the emulator's consumer hosts (and the
unit tests, with a scripted fake) plug in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from .errors import (
    ContentMissing,
    FetchError,
    FetchTimeout,
    IntegrityFailure,
    InvalidRequest,
)
from .metrics import FileRecord
from .names import Name, chunk_name, name_parse
from .packets import (
    Data,
    Interest,
    KeyMaterial,
    Nack,
    NackReason,
    chunk_interest,
    verify_data,
)
from .producer import Representation

if TYPE_CHECKING:
    from .netsim.engine import EventEngine


class Transport(Protocol):
    engine: EventEngine

    def send_interest(self, interest: Interest) -> None: ...


@dataclass
class FetchEngine:
    """Pipelining parameters for file retrieval."""

    window: int = 8
    rto_ms: float = 1000.0
    max_retx: int = 3

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.rto_ms <= 0:
            raise ValueError("rto_ms must be positive")
        if self.max_retx < 0:
            raise ValueError("max_retx must not be negative")


@dataclass(slots=True)
class ChunkTiming:
    chunk: int | None  # None while it times a discovery no data has answered
    first_sent: float
    last_sent: float
    received: float | None = None
    retx_count: int = 0
    from_cache_hint: bool = False

    @property
    def rtt_ms(self) -> float | None:
        if self.received is None:
            return None
        return (self.received - self.last_sent) * 1000.0


class BandwidthEstimator:
    """Dual half-life EWMA over byte-rate samples, weighted by duration.

    The reported figure is min(fast, slow) after correcting each
    accumulator's startup bias, so a single sample reports its own rate
    exactly and drops react faster than recoveries.
    """

    def __init__(self, half_life_fast_s: float = 2.0, half_life_slow_s: float = 6.0):
        if half_life_fast_s <= 0 or half_life_slow_s <= 0:
            raise ValueError("half-lives must be positive")
        self.half_lives = (half_life_fast_s, half_life_slow_s)
        self._acc = [0.0, 0.0]
        self.total_weight = 0.0

    @property
    def has_estimate(self) -> bool:
        return self.total_weight > 0.0

    def record_sample(self, nbytes: int, duration_s: float) -> float:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        rate = 8.0 * nbytes / duration_s
        for i, hl in enumerate(self.half_lives):
            alpha = 0.5 ** (duration_s / hl)
            self._acc[i] = alpha * self._acc[i] + (1.0 - alpha) * rate
        self.total_weight += duration_s
        return self.estimate_bps()

    def estimate_bps(self) -> float:
        if not self.has_estimate:
            raise ValueError("no samples recorded")
        corrected = []
        for acc, hl in zip(self._acc, self.half_lives):
            zero_factor = 1.0 - 0.5 ** (self.total_weight / hl)
            corrected.append(acc / zero_factor)
        return min(corrected)


# Player constants: the ABR's share of the estimate it spends, the buffer
# level that starts (and resumes) playback, and the most it holds.
SAFETY_FACTOR = 0.95
STARTUP_THRESHOLD_S = 2.0
BUFFER_CAPACITY_S = 30.0


class AbrController:
    """Throughput-rule tier picker: highest tier under ``SAFETY_FACTOR`` of
    the estimate."""

    def __init__(self, tiers: list[Representation]):
        if not tiers:
            raise ValueError("tier list must be non-empty")
        self.tiers = sorted(tiers, key=lambda r: r.bitrate_bps)

    def select(self, estimate_bps: float) -> Representation:
        budget = SAFETY_FACTOR * estimate_bps
        chosen = self.tiers[0]
        for rep in self.tiers:
            if rep.bitrate_bps <= budget:
                chosen = rep
        return chosen


class FileFetch:
    """Retrieves one file: version discovery, then window-pipelined chunks.

    Discovery is the CanBePrefix request for the base, keyed ``None`` in
    ``_outstanding`` and ``timings`` until data answers it; its timing then
    moves to the chunk that answered. Every request that times out is
    retransmitted with a fresh nonce, up to ``max_retx``, and its RTT is
    measured from the latest send.

    One retransmission timer serves the whole fetch. ``_outstanding`` maps
    each request to its deadline, last send plus ``rto_ms``, and to a
    ticket taken right after the send; a send moves its request to the
    end, so the dict is in send order and, with one RTO for every request,
    in deadline order. The timer is armed at the first request's deadline
    and ticket when it is idle. When it fires on the ticket of a request
    still outstanding, that request timed out and is retransmitted; then
    the timer re-arms at the first request left. The ticket puts the timer
    where one timer per send would have run among events at the same
    instant, such as a reply landing on the deadline, so requests leave at
    the instants, and in the order, that one timer per send would give
    them.

    Discovery's data also hands over its base: from then on ``base`` is
    the producer's own ``Name``, equal to the one the fetch began with, so
    ``chunk_name`` gives each chunk interest the very name the producer
    stored it under, and base checks on later data hit on identity.

    ``on_complete`` receives the file's chunk contents as a list in chunk
    order, not their join: a caller that needs the bytes (a playlist
    parser, ``fetch_file_via``) joins them itself, and one that needs only
    the size sums their lengths.
    """

    def __init__(
        self,
        transport: Transport,
        engine: FetchEngine,
        base: Name,
        key: KeyMaterial,
        rng: random.Random,
        on_complete: Callable[[list[bytes], list[ChunkTiming]], None],
        on_error: Callable[[FetchError], None],
    ):
        self.transport = transport
        self.events = transport.engine
        self.engine = engine
        self._rto_s = engine.rto_ms / 1000.0
        self.base = base
        self.key = key
        self.rng = rng
        self.on_complete = on_complete
        self.on_error = on_error

        self.version: int | None = None
        self.final_chunk: int | None = None
        self.timings: dict[int | None, ChunkTiming] = {}
        self.contents: dict[int, bytes] = {}
        # chunk (None: discovery) -> (deadline, ticket)
        self._outstanding: dict[int | None, tuple[float, int]] = {}
        self._timer_ticket: int | None = None  # the armed timer's, None when idle
        self._next_chunk = 0
        self._done = False

    # -- sending ---------------------------------------------------------

    def start(self) -> None:
        self._send(None)

    def _send(self, chunk: int | None) -> None:
        events = self.events
        now = events.now
        if chunk is None:
            interest = Interest(self.base, True, self.rng.getrandbits(32))
        else:
            name = chunk_name(self.base, self.version, chunk)
            interest = chunk_interest(name, self.rng.getrandbits(32))
        timing = self.timings.get(chunk)
        if timing is None:
            self.timings[chunk] = ChunkTiming(chunk, now, now)
        else:
            timing.last_sent = now
            timing.retx_count += 1
        self.transport.send_interest(interest)
        deadline = now + self._rto_s
        ticket = events.ticket()
        self._outstanding[chunk] = (deadline, ticket)
        if self._timer_ticket is None:
            self._arm(deadline, ticket)

    def _arm(self, deadline: float, ticket: int) -> None:
        self._timer_ticket = ticket
        self.events.schedule(deadline, self._on_timer, ticket)

    def _on_timer(self) -> None:
        if self._done:
            return
        outstanding = self._outstanding
        if outstanding:
            chunk = next(iter(outstanding))
            if outstanding[chunk][1] == self._timer_ticket:
                # Its own deadline: the first request timed out. The timer
                # stays armed while it retransmits, so the send does not
                # arm it at a later deadline than the first one left.
                if self.timings[chunk].retx_count >= self.engine.max_retx:
                    what = "discovery" if chunk is None else f"chunk {chunk}"
                    self._fail(FetchTimeout(f"{what} of {self.base} timed out"))
                    return
                del outstanding[chunk]
                self._send(chunk)
        if outstanding:
            self._arm(*next(iter(outstanding.values())))
        else:
            self._timer_ticket = None

    def _fill_window(self) -> None:
        outstanding, contents = self._outstanding, self.contents
        window, final_chunk = self.engine.window, self.final_chunk
        chunk = self._next_chunk
        while len(outstanding) < window and chunk <= final_chunk:
            self._next_chunk = chunk + 1
            if chunk not in contents:
                self._send(chunk)
            chunk = self._next_chunk

    # -- receiving -------------------------------------------------------

    def handle_data(self, data: Data, from_cache: bool) -> None:
        if self._done:
            return
        now = self.events.now
        if not verify_data(data, self.key):
            self._fail(IntegrityFailure(f"bad tag on {data.name}"))
            return
        vc = data.name
        base = vc.base
        if base is not self.base and base != self.base:
            return
        chunk = vc.chunk
        if self.version is None:
            # Data answering discovery: learn the version and total size,
            # and adopt the producer's base, so chunk interests carry the
            # names it published (see ``names``).
            self.base = base
            self.version = vc.version
            self.final_chunk = data.final_chunk
            del self._outstanding[None]
            timing = self.timings[chunk] = self.timings.pop(None)
            timing.chunk = chunk
        elif vc.version == self.version and chunk in self._outstanding:
            del self._outstanding[chunk]
            timing = self.timings[chunk]
        else:
            return
        timing.received = now
        timing.from_cache_hint = from_cache
        self.contents[chunk] = data.content
        self._fill_window()
        if len(self.contents) > self.final_chunk:
            self._finish()

    def handle_nack(self, nack: Nack) -> None:
        if self._done:
            return
        if nack.reason is NackReason.NO_CONTENT:
            self._fail(ContentMissing(f"no content for {nack.interest_name}"))
        else:
            self._fail(FetchError(f"no route for {nack.interest_name}"))

    def _finish(self) -> None:
        self._done = True
        chunks = [self.contents[i] for i in range(self.final_chunk + 1)]
        timings = [self.timings[i] for i in sorted(self.timings)]
        self.on_complete(chunks, timings)

    def _fail(self, exc: FetchError) -> None:
        if self._done:
            return
        self._done = True
        self.on_error(exc)


def resource_name(prefix: Name, path: str) -> Name:
    """Map a URI path under the service prefix to a base name."""
    if not path or path.startswith("/") or any(p == "" for p in path.split("/")):
        raise InvalidRequest(f"bad resource path: {path!r}")
    return name_parse(str(prefix).rstrip("/") + "/" + path)


def parse_master_playlist(text: str) -> list[tuple[str, int, int, str]]:
    """Variant entries as (label, bandwidth_bps, height, uri)."""
    entries: list[tuple[str, int, int, str]] = []
    pending: tuple[str, int, int] | None = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#EXT-X-STREAM-INF:"):
            attrs = line.split(":", 1)[1]
            bandwidth = height = 0
            label = ""
            for part in attrs.split(","):
                key, _, value = part.partition("=")
                if key == "BANDWIDTH":
                    bandwidth = int(value)
                elif key == "RESOLUTION":
                    height = int(value)
                elif key == "NAME":
                    label = value.strip('"')
            pending = (label, bandwidth, height)
        elif pending is not None and line and not line.startswith("#"):
            entries.append((*pending, line))
            pending = None
    return entries


def parse_media_playlist(text: str) -> list[tuple[float, str]]:
    """Segment entries as (duration_s, uri)."""
    segments: list[tuple[float, str]] = []
    pending: float | None = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#EXTINF:"):
            pending = float(line.split(":", 1)[1].rstrip(","))
        elif pending is not None and line and not line.startswith("#"):
            segments.append((pending, line))
            pending = None
    return segments


class PlayerSession:
    """Plays a list of videos: fetches playlists and segments, adapts the
    tier from bandwidth estimates and tracks playback quality-of-experience.

    ``videos`` lists the videos to play in order, a repeat playing again,
    each as (video id, prefix, server key): its files are fetched under
    ``<prefix>/<video id>`` and verified with that key. Every fetch runs
    ``engine``'s pipeline, and every segment feeds ``estimator``, which
    carries over from one video to the next: a session needs an estimator
    of its own.

    ``buffer_s`` is the media downloaded and not yet played. Playback
    drains one second of it per simulated second once it reaches
    ``STARTUP_THRESHOLD_S`` (or the video's last segment is in); the buffer
    emptying before the video ends opens a rebuffer interval, which the
    same threshold closes. The next segment is fetched only once it fits
    under ``BUFFER_CAPACITY_S``. ``on_end`` runs once, when the session
    ends, whether it played out or aborted.

    A segment's bytes are never joined: its size (the sum of its chunk
    lengths) and its arrival time are all that ABR and the report use.
    Only playlists are joined, to be parsed.
    """

    def __init__(
        self,
        session_id: str,
        transport: Transport,
        videos: list[tuple[str, Name, KeyMaterial]],
        rng: random.Random,
        engine: FetchEngine,
        estimator: BandwidthEstimator,
        on_end: Callable[[], None] | None = None,
    ):
        self.session_id = session_id
        self.transport = transport
        self.events = transport.engine
        self.videos = list(videos)
        self.video_ids = [video_id for video_id, _prefix, _key in self.videos]
        self.rng = rng
        self.engine = engine
        self.estimator = estimator
        self.on_end = on_end

        self.abr: AbrController | None = None

        self.quality_timeline: list[tuple[float, str]] = []
        self.rebuffer_events: list[tuple[float, float]] = []
        self.estimator_trace: list[tuple[float, float]] = []
        self.files: list[FileRecord] = []
        self.startup_delay_s: float | None = None
        self.aborted: str | None = None

        self.started_at: float = 0.0
        self.ended_at: float | None = None
        self.media_downloaded_s = 0.0
        self.media_played_s = 0.0
        self.buffer_s = 0.0  # media buffered and not yet played

        self._video_index = -1
        self._segments: list[tuple[float, str]] = []
        self._segment_index = 0
        self._media_playlists: dict[str, list[tuple[float, str]]] = {}
        self._tier_label: str | None = None
        self._rebuffer_start: float | None = None
        self._playing = False
        self._last_sync = 0.0
        self._drain_epoch = 0
        self.active_fetch: FileFetch | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.started_at = self.events.now
        self._last_sync = self.started_at
        self._next_video()

    def _next_video(self) -> None:
        self._video_index += 1
        if self._video_index >= len(self.video_ids):
            self._end_session()
            return
        self._playing = False
        self._segments = []
        self._segment_index = 0
        self._media_playlists = {}
        self._fetch("playlist.m3u8", "master-playlist", self._on_master)

    def _end_session(self) -> None:
        ending = self.ended_at is None
        self.ended_at = self.events.now
        if ending and self.on_end is not None:
            self.on_end()

    def _abort(self, exc: FetchError) -> None:
        self.aborted = f"{type(exc).__name__}: {exc}"
        self._end_session()

    # -- fetching ----------------------------------------------------------

    def _fetch(self, path: str, role: str, done: Callable[[list[bytes]], None]) -> None:
        """Fetch the file at ``path`` under the current video."""
        video_id, prefix, key = self.videos[self._video_index]
        base = resource_name(prefix, f"{video_id}/{path}")
        started = self.events.now
        record_tier = self._tier_label if role == "segment" else None
        seg_index = self._segment_index if role == "segment" else None

        def on_complete(chunks: list[bytes], timings: list[ChunkTiming]) -> None:
            finished = self.events.now
            content_bytes = sum(map(len, chunks))
            self.files.append(
                FileRecord(
                    name=str(base),
                    role=role,
                    video_id=video_id,
                    tier=record_tier,
                    segment_index=seg_index,
                    started=started,
                    finished=finished,
                    content_bytes=content_bytes,
                    timings=timings,
                )
            )
            if role == "segment":
                duration = max(finished - started, 1e-9)
                estimate = self.estimator.record_sample(content_bytes, duration)
                self.estimator_trace.append((finished, estimate))
            done(chunks)

        fetch = FileFetch(
            self.transport,
            self.engine,
            base,
            key,
            self.rng,
            on_complete,
            self._abort,
        )
        self.active_fetch = fetch
        fetch.start()

    # -- playlist handling ---------------------------------------------------

    def _on_master(self, chunks: list[bytes]) -> None:
        entries = parse_master_playlist(b"".join(chunks).decode())
        if not entries:
            self._abort(FetchError("master playlist has no variants"))
            return
        tiers = [
            Representation(label, height or 1, bandwidth)
            for label, bandwidth, height, _uri in entries
        ]
        # Each video has its own tiers; the estimator carries over.
        self.abr = AbrController(tiers)
        lowest = self.abr.tiers[0].label
        self._tier_label = lowest
        self._fetch_media_playlist(lowest, self._start_segments)

    def _fetch_media_playlist(self, label: str, then: Callable[[], None]) -> None:
        def on_playlist(chunks: list[bytes]) -> None:
            self._media_playlists[label] = parse_media_playlist(b"".join(chunks).decode())
            then()

        self._fetch(f"{label}/playlist.m3u8", "media-playlist", on_playlist)

    def _start_segments(self) -> None:
        self._segments = self._media_playlists[self._tier_label]
        self._segment_index = 0
        self._fetch_next_segment()

    # -- segment loop --------------------------------------------------------

    def _fetch_next_segment(self) -> None:
        if self.ended_at is not None:
            return
        if self._segment_index >= len(self._segments):
            return  # remaining playback drains; video advances on empty
        self._sync_playback()
        seg_duration = self._segments[self._segment_index][0]
        if self._playing:
            headroom = BUFFER_CAPACITY_S - seg_duration
            if self.buffer_s > headroom + 1e-9:
                # wait for playback to drain enough room; the floor keeps
                # float residue from rescheduling the same instant forever
                wait = max(self.buffer_s - headroom, 1e-6)
                self.events.schedule_in(wait, self._fetch_next_segment)
                return
        label = self._tier_label
        if self.abr is not None and self.estimator.has_estimate:
            label = self.abr.select(self.estimator.estimate_bps()).label
        if label != self._tier_label or not self.quality_timeline:
            self.quality_timeline.append((self.events.now, label))
        self._tier_label = label
        if label not in self._media_playlists:
            self._fetch_media_playlist(label, self._fetch_current_segment)
        else:
            self._fetch_current_segment()

    def _fetch_current_segment(self) -> None:
        _duration, uri = self._media_playlists[self._tier_label][self._segment_index]
        self._fetch(f"{self._tier_label}/{uri}", "segment", self._on_segment)

    def _on_segment(self, _chunks: list[bytes]) -> None:
        duration = self._media_playlists[self._tier_label][self._segment_index][0]
        self._segment_index += 1
        self._sync_playback()
        self.buffer_s += duration
        self.media_downloaded_s += duration
        self._after_buffer_grew()
        self._fetch_next_segment()

    def _after_buffer_grew(self) -> None:
        now = self.events.now
        if not self._playing:
            threshold_met = self.buffer_s >= STARTUP_THRESHOLD_S
            downloaded_all = bool(self._segments) and self._segment_index >= len(self._segments)
            if threshold_met or downloaded_all:
                if self.startup_delay_s is None:
                    self.startup_delay_s = now - self.started_at
                if self._rebuffer_start is not None:
                    self.rebuffer_events.append((self._rebuffer_start, now))
                    self._rebuffer_start = None
                self._playing = True
        if self._playing:
            self._schedule_empty_check()

    # -- playback clock --------------------------------------------------------

    def _sync_playback(self) -> None:
        now = self.events.now
        if self._playing:
            dt = now - self._last_sync
            played = min(dt, self.buffer_s)
            self.buffer_s -= played
            self.media_played_s += played
        self._last_sync = now

    def _schedule_empty_check(self) -> None:
        self._drain_epoch += 1
        epoch = self._drain_epoch
        at = self.events.now + self.buffer_s
        self.events.schedule(at, self._on_empty_check, None, (epoch,))

    def _on_empty_check(self, epoch: int) -> None:
        if epoch != self._drain_epoch or not self._playing or self.ended_at is not None:
            return
        self._sync_playback()
        if self.buffer_s > 1e-9:
            self._schedule_empty_check()
            return
        self.buffer_s = 0.0
        self._playing = False
        if self._segments and self._segment_index >= len(self._segments):
            self._next_video()
            return
        self._rebuffer_start = self.events.now
