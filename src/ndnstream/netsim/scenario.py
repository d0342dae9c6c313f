"""Scenario files: parsing, validation and execution.

A scenario is a line-oriented text file with bracketed sections. Unknown
sections or keys are configuration errors, not warnings. Example::

    scenario demo
    seed 7
    horizon 600

    [nodes]
    consumer c1
    forwarder gw cs=64MB strategy=best-route
    producer srv delay-ms=1

    [links]
    c1 gw prop-ms=5 bw=50Mbps
    gw srv prop-ms=25 bw=50Mbps

    [routes]
    gw /ndn/web/video srv cost=1

    [videos]
    video foo server=srv prefix=/ndn/web/video duration-s=40 segment-s=2
    tier foo 720p height=720 min-bw=3.3Mbps

    [sessions]
    session s1 consumer=c1 videos=foo start-s=0 window=8

Optional sections: [fch], [prewarm], [throttles].

One table, ``_KINDS``, declares every line kind: its leading tokens and
its keys. Each key names the parameter of the call that builds the entry,
and the builder passes a line's keywords on with ``**``, so a key left
out keeps that call's own default. An id is declared once: a second node,
video, tier of one video, session or ``[fch]`` line with the same id fails
at its own line, as does a second ``scenario``, ``seed`` or ``horizon``
line. Every error that parsing raises starts with ``line N:``.

Parsing checks what the text alone shows. A run is built in two phases:
``build_network`` adds the nodes, links and routes, checks that every
consumer reaches each video's own server through each of its gateways,
and applies the throttles; ``ScenarioRun`` then packages and publishes
the videos, prewarms the caches and sets up the sessions. The CLI's
``validate`` builds a ``ScenarioRun`` and runs no event, so it rejects
exactly what a run rejects while building. A config error raised while
building one line's entry starts with that line's ``line N:`` too.
"""

from __future__ import annotations

import math
import random
import re
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, NamedTuple

from ..consumer import BandwidthEstimator, FetchEngine, PlayerSession, resource_name
from ..errors import CapacityExceeded, InvalidConfig, InvalidRequest, InvalidTopology, MalformedName
from ..metrics import CacheStats, MetricsReport, ServerSummary, SessionMetrics
from ..names import Name, name_parse
from ..packets import KeyMaterial, _check_freshness
from ..producer import (
    Representation,
    Repository,
    VideoCatalog,
    package_video,
    publish,
    representation_files,
)
from .topology import (
    PIT_SWEEP_INTERVAL_S,
    ConsumerHost,
    ForwarderHost,
    NetworkSim,
    ProducerHost,
    derive_seed,
    fetch_file_via,
)

DEFAULT_HORIZON_S = 3600.0
DEFAULT_PREFETCH_DEPTH = 16
# Defaults of keys whose call has none: package_video takes every segment
# length, and Representation every height.
DEFAULT_SEGMENT_S = 2.0
DEFAULT_HEIGHT = 1


class Entry(NamedTuple):
    """One parsed line: its number, its kind (the leading word, or the
    kind's name where the section has none), its leading tokens parsed,
    and its keywords grouped by the call they configure."""

    line: int
    kind: str
    args: list[Any]
    kw: dict[str, dict[str, Any]]


@dataclass
class VideoSpec:
    """A ``video`` line and its ``tier`` lines: the video's server and
    prefix, and its keywords for ``package_video`` and ``publish``."""

    line: int
    server: str
    prefix: Name
    package: dict[str, float]
    publish: dict[str, int]
    tiers: list[Representation] = field(default_factory=list)


@dataclass
class SessionSpec:
    """A ``session`` line: its consumer, videos and start time, the
    ``FetchEngine`` its fetches run, and the keywords from which each run
    builds the session's own ``BandwidthEstimator``."""

    line: int
    consumer: str
    videos: list[str]
    engine: FetchEngine
    estimator: dict[str, float]
    start_s: float = 0.0


@dataclass
class Scenario:
    scenario_id: str = "scenario"
    seed: int = 0
    horizon_s: float = DEFAULT_HORIZON_S
    nodes: list[Entry] = field(default_factory=list)
    links: list[Entry] = field(default_factory=list)
    routes: list[Entry] = field(default_factory=list)
    videos: dict[str, VideoSpec] = field(default_factory=dict)  # by id, in file order
    sessions: dict[str, SessionSpec] = field(default_factory=dict)  # by id, in file order
    fch: list[Entry] = field(default_factory=list)
    prewarm: list[Entry] = field(default_factory=list)
    throttles: list[Entry] = field(default_factory=list)


_BW_RE = re.compile(r"^(\d+(?:\.\d+)?)([kKmMgG]?)(?:bps)?$")
_SIZE_RE = re.compile(r"^(\d+(?:\.\d+)?)([kKmMgG]?)B?$")
_SCALE = {"": 1.0, "k": 1e3, "m": 1e6, "g": 1e9}


def parse_bandwidth(text: str) -> float | None:
    if text == "unlimited":
        return None
    m = _BW_RE.match(text)
    if not m:
        raise InvalidConfig(f"bad bandwidth {text!r}")
    bps = float(m.group(1)) * _SCALE[m.group(2).lower()]
    if bps <= 0:
        raise InvalidConfig(f"bandwidth must be positive, got {text!r}")
    return bps


def parse_size(text: str) -> int | None:
    if text == "unlimited":
        return None
    m = _SIZE_RE.match(text)
    if not m:
        raise InvalidConfig(f"bad size {text!r}")
    return int(float(m.group(1)) * _SCALE[m.group(2).lower()])


def _byte_size(text: str) -> int:
    """A size that is a number of bytes: a content store holds no
    ``unlimited``."""
    size = parse_size(text)
    if size is None:
        raise ValueError("expected a byte size, got 'unlimited'")
    return size


def _parse_strategy(text: str) -> int:
    """The prefetch depth a forwarder's strategy names: 0 for best route."""
    if text == "best-route":
        return 0
    if text == "prefetch":
        return DEFAULT_PREFETCH_DEPTH
    kind, sep, depth = text.partition(":")
    if kind == "prefetch" and sep and int(depth) >= 1:
        return int(depth)
    raise ValueError(f"unknown strategy {text!r}: a prefetch depth is at least 1")


def _non_negative(text: str, kind: Callable[[str], float] = float) -> float:
    """A finite number that is not negative: a time, delay or duration."""
    value = kind(text)
    if not 0 <= value < math.inf:
        raise ValueError(f"expected a finite number >= 0, got {text!r}")
    return value


def _freshness_ms(text: str) -> int:
    """A data packet's freshness: whole ms in the range its packets carry."""
    freshness_ms = int(text)
    _check_freshness(freshness_ms)
    return freshness_ms


def _horizon(text: str) -> float:
    horizon = float(text)
    if not horizon >= 0:  # NaN too; inf runs until the sessions end
        raise ValueError(f"horizon must be a number >= 0, got {text!r}")
    return horizon


def _safe_component(text: str, what: str) -> str:
    """A video id or tier label: one name component that the consumer can
    parse back out of playlists and paths, and no version or chunk marker."""
    if not all("!" <= ch <= "~" and ch not in '/%,"' for ch in text) or text[:2] in ("v=", "c="):
        raise ValueError(f"{what} {text!r} is not one safe name component")
    return text


def _height(text: str) -> int:
    """A tier height in pixels: 0 stands for ``DEFAULT_HEIGHT``."""
    height = int(text)
    if height < 0:
        raise ValueError(f"height must be >= 0, got {text!r}")
    return height or DEFAULT_HEIGHT


def _parse_switch(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(f"expected on or off, got {text!r}")
    return text == "on"


_Parser = Callable[[str], Any]


class _Kind(NamedTuple):
    """One line kind. ``leading`` names and parses the tokens before its
    keys; with ``tail``, the tokens after them are one more argument, a
    list, and the line has no keys. ``keys`` maps each call the line
    configures to its keys. With ``unique``, the leading tokens are the
    line's id, which no other line of its section may repeat."""

    name: str
    leading: tuple[tuple[str, _Parser], ...]
    keys: dict[str, dict[str, tuple[str, _Parser]]] = {}  # call -> key -> (parameter, parser)
    required: tuple[str, ...] = ()
    unique: bool = False
    tail: bool = False


_ID = (("id", str),)

# Every line kind, by section (None: the directives before the first one)
# and leading word (None: the section's lines have none). A directive's
# one token sets the Scenario field it names. A group of keys named after
# the kind itself holds values the builder reads; every other group is
# the keywords of the call it is named after.
_KINDS: dict[str | None, dict[str | None, _Kind]] = {
    None: {
        "scenario": _Kind("scenario", (("scenario_id", str),)),
        "seed": _Kind("seed", (("seed", int),)),
        "horizon": _Kind("horizon", (("horizon_s", _horizon),)),
    },
    "nodes": {
        "consumer": _Kind("node", _ID, unique=True),
        "forwarder": _Kind("node", _ID, {"add_forwarder": {
            "cs": ("cs_capacity_bytes", _byte_size),
            "strategy": ("prefetch_depth", _parse_strategy),
            "aggregate": ("aggregate_interests", _parse_switch),
        }}, unique=True),
        "producer": _Kind("node", _ID, {"Repository": {
            "delay-ms": ("processing_delay_ms", _non_negative),
        }}, unique=True),
    },
    "links": {None: _Kind("link", (("a", str), ("b", str)), {"add_link": {
        "prop-ms": ("propagation_ms", _non_negative),
        "bw": ("bandwidth_bps", parse_bandwidth),
        "queue": ("queue_limit_bytes", parse_size),
    }})},
    "routes": {None: _Kind("route", (("node", str), ("prefix", name_parse), ("via", str)), {
        "add_route": {"cost": ("cost", int)},
    })},
    "videos": {
        "video": _Kind("video", (("id", lambda text: _safe_component(text, "video id")),), {
            "video": {"server": ("server", str), "prefix": ("prefix", name_parse)},
            "package_video": {
                "duration-s": ("duration_s", _non_negative),
                "segment-s": ("segment_duration_s", _non_negative),
            },
            "publish": {
                "chunk-bytes": ("chunk_size", int),
                "freshness-ms": ("freshness_ms", _freshness_ms),
            },
        }, required=("server", "prefix", "duration-s"), unique=True),
        "tier": _Kind("tier", (
            ("video", str),
            ("label", lambda text: _safe_component(text, "tier label")),
        ), {"Representation": {
            "height": ("height", _height),
            "min-bw": ("bitrate_bps", lambda text: int(parse_bandwidth(text) or 0)),
        }}, required=("min-bw",), unique=True),
    },
    "sessions": {"session": _Kind("session", _ID, {
        "session": {
            "consumer": ("consumer", str),
            "videos": ("videos", lambda text: text.split(",")),
            "start-s": ("start_s", _non_negative),
        },
        "FetchEngine": {
            "window": ("window", int),
            "rto-ms": ("rto_ms", _non_negative),
            "max-retx": ("max_retx", int),
        },
        "BandwidthEstimator": {
            "est-fast-s": ("half_life_fast_s", _non_negative),
            "est-slow-s": ("half_life_slow_s", _non_negative),
        },
    }, required=("consumer", "videos"), unique=True)},
    "fch": {None: _Kind("fch entry", (("consumer", str),), unique=True, tail=True)},
    "prewarm": {None: _Kind(
        "prewarm", (("node", str), ("video", str), ("tier", str), ("fraction", float))
    )},
    "throttles": {None: _Kind("throttle", (("src", str), ("dst", str)), {"throttle": {
        "at-s": ("at_s", _non_negative),
        "bw": ("bandwidth_bps", parse_bandwidth),
    }}, required=("at-s", "bw"))},
}


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text. A malformed line, a repeated id or a name no
    line declares raises InvalidConfig, starting ``line N:``."""
    scenario = Scenario()
    section: str | None = None
    ids: set[tuple[str | None, ...]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("["):
                section = line.strip("[]")
                if section not in _KINDS:
                    raise ValueError(f"unknown section {section!r}")
            else:
                _parse_entry(scenario, section, lineno, line.split(), ids)
        except (ValueError, MalformedName, InvalidConfig) as exc:
            raise InvalidConfig(f"line {lineno}: {exc}") from exc
    _validate(scenario)
    return scenario


def _parse_entry(
    scenario: Scenario, section: str | None, lineno: int, tokens: list[str], ids: set
) -> None:
    """Parse one entry line by its kind in ``_KINDS`` and store it."""
    kinds = _KINDS[section]
    word = None if None in kinds else tokens.pop(0)
    if word not in kinds:
        raise ValueError(f"unknown entry {word!r}: expected one of {', '.join(kinds)}")
    kind = kinds[word]
    leading = len(kind.leading)
    if len(tokens) < leading:
        raise ValueError(f"{kind.name} needs {', '.join(name for name, _ in kind.leading)}")
    args = [parse(token) for (_, parse), token in zip(kind.leading, tokens)]
    if section is None:  # a directive is given once
        if (None, word) in ids:
            raise ValueError(f"a second {word} line")
        ids.add((None, word))
    elif kind.unique:
        ident = (section, *args)
        if ident in ids:
            raise ValueError(f"duplicate {kind.name} {' '.join(ident[1:])!r}")
        ids.add(ident)
    rest = tokens[leading:]
    if kind.tail:
        args.append(rest)
        rest = []
    entry = Entry(lineno, word or kind.name, args, _keywords(kind, rest))
    _store(scenario, section, kind, entry)


def _keywords(kind: _Kind, tokens: list[str]) -> dict[str, dict[str, Any]]:
    """A line's keys parsed, grouped by the call each one configures."""
    kw: dict[str, dict[str, Any]] = {call: {} for call in kind.keys}
    given = set()
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {token!r}")
        call = next((call for call, keys in kind.keys.items() if key in keys), None)
        if call is None:
            raise ValueError(f"unknown key {key!r}")
        param, parse = kind.keys[call][key]
        kw[call][param] = parse(value)
        given.add(key)
    for key in kind.required:
        if key not in given:
            raise ValueError(f"{kind.name} needs {key}")
    return kw


def _store(scenario: Scenario, section: str | None, kind: _Kind, entry: Entry) -> None:
    """Keep a parsed line where the builder reads it."""
    line, _word, args, kw = entry
    if section is None:
        setattr(scenario, kind.leading[0][0], args[0])
    elif kind.name == "video":
        kw["package_video"].setdefault("segment_duration_s", DEFAULT_SEGMENT_S)
        scenario.videos[args[0]] = VideoSpec(
            line, **kw["video"], package=kw["package_video"], publish=kw["publish"]
        )
    elif kind.name == "tier":
        video_id, label = args
        if video_id not in scenario.videos:
            raise ValueError(f"tier needs a declared video id, got {video_id!r}")
        kw["Representation"].setdefault("height", DEFAULT_HEIGHT)
        scenario.videos[video_id].tiers.append(Representation(label, **kw["Representation"]))
    elif kind.name == "session":
        # Each run builds the session a fresh estimator; this one fails a
        # bad half-life at its line.
        BandwidthEstimator(**kw["BandwidthEstimator"])
        scenario.sessions[args[0]] = SessionSpec(
            line,
            **kw["session"],
            engine=FetchEngine(**kw["FetchEngine"]),
            estimator=kw["BandwidthEstimator"],
        )
    else:  # nodes, links, routes, fch, prewarm, throttles: built in file order
        getattr(scenario, section).append(entry)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _validate(scenario: Scenario) -> None:
    """The cross-references the text alone shows, each checked at the line
    that makes it. ``build_network`` checks the topology: links, routes,
    gateways and throttle links."""

    def fail(line: int, problem: str) -> None:
        raise InvalidConfig(f"line {line}: {problem}")

    kinds = {node.args[0]: node.kind for node in scenario.nodes}
    videos = scenario.videos
    for video_id, video in videos.items():
        if not video.tiers:
            fail(video.line, f"video {video_id!r} has no tiers")
    for session_id, session in scenario.sessions.items():
        if kinds.get(session.consumer) != "consumer":
            fail(session.line, f"session {session_id!r} needs a consumer")
        for vid in session.videos:
            if vid not in videos:
                fail(session.line, f"session references unknown video {vid!r}")
    for line, _kind, (node, video_id, tier, fraction), _kw in scenario.prewarm:
        if not 0 <= fraction <= 1:
            fail(line, "prewarm fraction must be within [0, 1]")
        if kinds.get(node) != "forwarder":
            fail(line, f"prewarm node {node!r} is not a forwarder")
        if video_id not in videos:
            fail(line, f"prewarm references unknown video {video_id!r}")
        if tier not in {t.label for t in videos[video_id].tiers}:
            fail(line, f"prewarm tier {tier!r} is not a tier of {video_id!r}")
    last_at: dict[tuple[str, str], float] = {}
    for line, _kind, (src, dst), kw in scenario.throttles:
        at_s = kw["throttle"]["at_s"]
        if (src, dst) in last_at and at_s <= last_at[src, dst]:
            fail(line, f"throttle {src}->{dst}: throttle timestamps must be strictly increasing")
        last_at[src, dst] = at_s


@contextmanager
def _at_line(line: int) -> Iterator[None]:
    """Start a config error raised while building one line's entry with
    ``line N:``, keeping its type and its text."""
    try:
        yield
    except InvalidConfig as exc:
        raise type(exc)(f"line {line}: {exc}") from exc


def build_network(scenario: Scenario) -> NetworkSim:
    """Build a scenario's network without its content: nodes, links and
    routes, and throttles applied or scheduled. Each producer gets an
    empty repository. Every consumer must reach each video's own server
    through each of its gateways, for the video's base name and for every
    route prefix under it (``NetworkSim.validate_reachability``). Raises
    InvalidTopology where the topology is at fault, naming the line at
    fault where one entry is."""
    sim = NetworkSim(scenario.seed)
    for node in scenario.nodes:
        (node_id,) = node.args
        if node.kind == "forwarder":
            sim.add_forwarder(node_id, **node.kw["add_forwarder"])
        elif node.kind == "producer":
            key = KeyMaterial(
                key_id=f"{node_id}-key",
                secret=derive_seed(scenario.seed, f"key:{node_id}").to_bytes(8, "big"),
            )
            sim.add_producer(node_id, Repository(key, **node.kw["Repository"]))
        else:
            sim.add_consumer(node_id)
    for link in scenario.links:
        with _at_line(link.line):
            sim.add_link(*link.args, **link.kw["add_link"])
    for route in scenario.routes:
        with _at_line(route.line):
            sim.add_route(*route.args, **route.kw["add_route"])
    videos = scenario.videos
    for video_id, video in videos.items():
        if not isinstance(sim.hosts.get(video.server), ProducerHost):
            raise InvalidTopology(f"line {video.line}: video {video_id!r} needs a producer server")
    for fch in scenario.fch:
        with _at_line(fch.line):
            sim.set_gateways(*fch.args)
    sim.validate_reachability([(v.prefix.append(vid), v.server) for vid, v in videos.items()])
    for throttle in scenario.throttles:
        src, dst = throttle.args
        with _at_line(throttle.line):
            link = sim.link_between(src, dst)
        values = throttle.kw["throttle"]
        args = (src, dst, values["bandwidth_bps"])
        if values["at_s"] <= 0:
            link.set_bandwidth(*args)
        else:
            sim.engine.schedule(values["at_s"], link.set_bandwidth, None, args)
    return sim


def prewarm_cache(
    sim: NetworkSim,
    node_id: str,
    repo: Repository,
    prefix: Name,
    catalog: VideoCatalog,
    label: str,
    fraction: float,
) -> int:
    """Pre-load a forwarder's content store with the leading share of each
    of a representation's files (playlist first, then segments in playback
    order). Raises CapacityExceeded if the store evicts or refuses a packet
    while loading.
    """
    host = sim.hosts[node_id]
    if not isinstance(host, ForwarderHost):
        raise InvalidTopology(f"{node_id} has no content store")
    cs = host.node.cs
    inserted = 0
    now = sim.engine.now
    for base in representation_files(prefix, catalog, label):
        chunk_names = repo.file_chunk_names(base)
        keep = math.ceil(fraction * len(chunk_names))
        for full_name in chunk_names[:keep]:
            evicted = cs.insert(repo.store[full_name], now)
            if evicted or full_name not in cs.entries:
                raise CapacityExceeded(
                    f"{node_id}: content store too small for prewarm set"
                )
            inserted += 1
    return inserted


class ScenarioRun:
    """A built scenario: the simulator plus everything needed for reporting.
    ``fetch_table`` maps each published video's id to its prefix and its
    server's key, with which sessions and resource requests fetch it."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.sim = sim = build_network(scenario)
        self.sessions: list[PlayerSession] = []
        self.live_sessions = 0  # sessions built and not yet ended
        self.catalogs: dict[str, VideoCatalog] = {}
        self.fetch_table: dict[str, tuple[Name, KeyMaterial]] = {}
        self.repos: dict[str, Repository] = {
            node_id: host.repo
            for node_id, host in sim.hosts.items()
            if isinstance(host, ProducerHost)
        }
        for video_id, video in scenario.videos.items():
            with _at_line(video.line):
                catalog = package_video(video_id, representations=video.tiers, **video.package)
                self.catalogs[video_id] = catalog
                repo = self.repos[video.server]
                publish(repo, catalog, video.prefix, **video.publish)
            self.fetch_table[video_id] = (video.prefix, repo.key)
        for line, _kind, (node_id, video_id, label, fraction), _kw in scenario.prewarm:
            video = scenario.videos[video_id]
            repo, catalog = self.repos[video.server], self.catalogs[video_id]
            with _at_line(line):
                prewarm_cache(sim, node_id, repo, video.prefix, catalog, label, fraction)
        for session_id, spec in scenario.sessions.items():
            self._setup_session(session_id, spec)

    def _setup_session(self, session_id: str, spec: SessionSpec) -> None:
        sim = self.sim
        host = sim.hosts[spec.consumer]
        assert isinstance(host, ConsumerHost)
        videos = [(video_id, *self.fetch_table[video_id]) for video_id in spec.videos]
        session = PlayerSession(
            session_id=session_id,
            transport=host,
            videos=videos,
            rng=random.Random(derive_seed(self.scenario.seed, f"session:{session_id}")),
            engine=spec.engine,
            estimator=BandwidthEstimator(**spec.estimator),
            on_end=self._session_ended,
        )
        self.live_sessions += 1
        host.sessions.append(session)
        self.sessions.append(session)
        video_id, prefix, _key = videos[0]
        probe_name = prefix.append(video_id, "playlist.m3u8")
        sim.engine.schedule(spec.start_s, host.attach, None, (probe_name, session.start))

    def resource_request(self, consumer_id: str, path: str) -> bytes:
        """Resolve one resource path through the network, outside any session.

        The path starts with a video id (``foo/240p/seg0.m4s``): it maps
        under that video's prefix and is verified with its server's key.
        Returns the reassembled file content. An unknown video id raises
        InvalidRequest before any interest is sent.
        """
        video_id = path.split("/", 1)[0]
        if video_id not in self.fetch_table:
            raise InvalidRequest(f"unknown video {video_id!r} in {path!r}")
        prefix, key = self.fetch_table[video_id]
        payload, _timings = fetch_file_via(self.sim, consumer_id, resource_name(prefix, path), key)
        return payload

    def _session_ended(self) -> None:
        self.live_sessions -= 1

    def run(self) -> MetricsReport:
        """Run until every session has ended or the events run out, sweeping
        the PITs meanwhile; stop before the first event past the horizon."""
        engine, horizon = self.sim.engine, self.scenario.horizon_s
        heap = engine._heap
        engine.schedule_in(PIT_SWEEP_INTERVAL_S, self.sim.sweep_pits)
        while heap and self.live_sessions and heap[0][0] <= horizon:
            engine.advance()
        return self.report()

    def report(self) -> MetricsReport:
        sim = self.sim
        cache: dict[str, CacheStats] = {}
        counters: dict[str, dict[str, int]] = {}
        server: dict[str, ServerSummary] = {}
        for node_id, host in sim.hosts.items():
            if isinstance(host, ForwarderHost):
                stats = host.node.stats
                cache[node_id] = CacheStats(stats.cs_hits, stats.cs_misses)
                counters[node_id] = {
                    f.name: getattr(stats, f.name)
                    for f in fields(stats)
                    if f.name not in ("cs_hits", "cs_misses")  # reported under cache
                }
            elif isinstance(host, ProducerHost):
                # Every interest waits the same processing delay.
                interests = host.repo.interests
                delay_ms = host.repo.processing_delay_ms if interests else 0.0
                server[node_id] = ServerSummary(
                    interests=interests,
                    mean_ms=delay_ms,
                    max_ms=delay_ms,
                    within_5ms=1.0 if interests and delay_ms <= 5.0 else 0.0,
                )
        session_metrics = []
        for session in self.sessions:
            host = session.transport
            session_metrics.append(
                SessionMetrics.from_session(
                    session,
                    host.node_id,
                    host.chosen_gateway,
                    host.probe_results,
                )
            )
        return MetricsReport(
            scenario_id=self.scenario.scenario_id,
            seed=self.scenario.seed,
            sessions=session_metrics,
            cache=cache,
            node_counters=counters,
            server=server,
            link_drops=sim.drop_counts(),
        )


def run_scenario(scenario: Scenario) -> MetricsReport:
    """Build and execute a scenario; identical inputs give identical reports."""
    return ScenarioRun(scenario).run()
