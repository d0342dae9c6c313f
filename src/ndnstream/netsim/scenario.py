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

Parsing checks what the text alone shows. A run is built in two phases:
``build_network`` adds the nodes, links and routes, checks that every
consumer reaches each video's own server through each of its gateways,
and applies the throttles; ``ScenarioRun`` then packages and publishes
the videos, prewarms the caches and sets up the sessions. The CLI's ``validate`` builds a ``ScenarioRun`` and runs no
event, so it rejects exactly what a run rejects while building.
"""

from __future__ import annotations

import math
import random
import re
from collections.abc import Callable, Collection
from dataclasses import dataclass, field, fields
from typing import Any

from ..consumer import FetchEngine, PlayerSession, SessionConfig, resource_name
from ..errors import CapacityExceeded, InvalidConfig, InvalidRequest, InvalidTopology, MalformedName
from ..metrics import CacheStats, MetricsReport, ServerSummary, SessionMetrics
from ..names import Name, name_parse
from ..packets import DEFAULT_FRESHNESS_MS, KeyMaterial
from ..producer import (
    DEFAULT_CHUNK_SIZE,
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


@dataclass
class NodeSpec:
    node_id: str
    kind: str  # consumer | forwarder | producer
    cs_bytes: int = 0
    prefetch_depth: int = 0
    aggregate: bool = True
    delay_ms: float = 1.0


@dataclass
class LinkSpec:
    a: str
    b: str
    prop_ms: float = 0.0
    bw_bps: float | None = None
    queue_bytes: int | None = None


@dataclass
class RouteSpec:
    node: str
    prefix: Name
    via: str
    cost: int = 1


@dataclass
class VideoSpec:
    video_id: str
    server: str
    prefix: Name
    duration_s: float
    segment_s: float = 2.0
    chunk_bytes: int = DEFAULT_CHUNK_SIZE
    freshness_ms: int = DEFAULT_FRESHNESS_MS
    tiers: list[Representation] = field(default_factory=list)


@dataclass
class SessionSpec:
    session_id: str
    consumer: str
    videos: list[str]
    start_s: float = 0.0
    config: SessionConfig = field(default_factory=SessionConfig)


@dataclass
class PrewarmSpec:
    node: str
    video: str
    tier: str
    fraction: float


@dataclass
class ThrottleSpec:
    src: str
    dst: str
    at_s: float
    bw_bps: float | None


@dataclass
class Scenario:
    scenario_id: str = "scenario"
    seed: int = 0
    horizon_s: float = DEFAULT_HORIZON_S
    nodes: list[NodeSpec] = field(default_factory=list)
    links: list[LinkSpec] = field(default_factory=list)
    routes: list[RouteSpec] = field(default_factory=list)
    videos: dict[str, VideoSpec] = field(default_factory=dict)  # by id, in file order
    sessions: list[SessionSpec] = field(default_factory=list)
    fch: dict[str, list[str]] = field(default_factory=dict)
    prewarm: list[PrewarmSpec] = field(default_factory=list)
    throttles: list[ThrottleSpec] = field(default_factory=list)


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


def _safe_component(text: str, what: str) -> str:
    """A video id or tier label: one name component that the consumer can
    parse back out of playlists and paths, and no version or chunk marker."""
    if not all("!" <= ch <= "~" and ch not in '/%,"' for ch in text) or text[:2] in ("v=", "c="):
        raise ValueError(f"{what} {text!r} is not one safe name component")
    return text


def _parse_switch(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(f"expected on or off, got {text!r}")
    return text == "on"


# Optional keys of each entry kind: scenario key -> (spec field, parser).
# A key left out keeps the field's default, so every default is defined
# once, on the spec or on the component it configures.
_NODE_KEYS = {
    "consumer": {},
    "forwarder": {
        "cs": ("cs_bytes", lambda text: parse_size(text) or 0),
        "strategy": ("prefetch_depth", _parse_strategy),
        "aggregate": ("aggregate", _parse_switch),
    },
    "producer": {"delay-ms": ("delay_ms", _non_negative)},
}
_LINK_KEYS = {
    "prop-ms": ("prop_ms", _non_negative),
    "bw": ("bw_bps", parse_bandwidth),
    "queue": ("queue_bytes", parse_size),
}
_ROUTE_KEYS = {"cost": ("cost", int)}
_VIDEO_KEYS = {
    "segment-s": ("segment_s", _non_negative),
    "chunk-bytes": ("chunk_bytes", int),
    "freshness-ms": ("freshness_ms", lambda text: _non_negative(text, int)),
}
_SESSION_KEYS = {"start-s": ("start_s", _non_negative)}
_ENGINE_KEYS = {
    "window": ("window", int),
    "rto-ms": ("rto_ms", _non_negative),
    "max-retx": ("max_retx", int),
}
_PLAYER_KEYS = {
    "est-fast-s": ("half_life_fast_s", _non_negative),
    "est-slow-s": ("half_life_slow_s", _non_negative),
}


def _kv(tokens: list[str], allowed: Collection[str], where: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise InvalidConfig(f"{where}: expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        if key not in allowed:
            raise InvalidConfig(f"{where}: unknown key {key!r}")
        values[key] = value
    return values


def _fields(
    kv: dict[str, str], keys: dict[str, tuple[str, Callable[[str], Any]]]
) -> dict[str, Any]:
    """Spec fields set by the optional keys present in ``kv``."""
    return {name: parse(kv[key]) for key, (name, parse) in keys.items() if key in kv}


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    section: str | None = None
    known_sections = {
        "nodes",
        "links",
        "routes",
        "videos",
        "sessions",
        "fch",
        "prewarm",
        "throttles",
    }
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            name = line.strip("[]")
            if name not in known_sections:
                raise InvalidConfig(f"{where}: unknown section {name!r}")
            section = name
            continue
        try:
            _parse_entry(scenario, section, line, where)
        except (ValueError, MalformedName) as exc:
            raise InvalidConfig(f"{where}: {exc}") from exc
    _validate(scenario)
    return scenario


def _parse_entry(scenario: Scenario, section: str | None, line: str, where: str) -> None:
    """Add one non-header line to the scenario. Malformed values raise
    ValueError or MalformedName; the caller reports them by line."""
    tokens = line.split()
    if section is None:
        if tokens[0] == "scenario" and len(tokens) == 2:
            scenario.scenario_id = tokens[1]
        elif tokens[0] == "seed" and len(tokens) == 2:
            scenario.seed = int(tokens[1])
        elif tokens[0] == "horizon" and len(tokens) == 2:
            horizon = float(tokens[1])
            if not horizon >= 0:  # NaN too; inf runs until the sessions end
                raise ValueError(f"horizon must be a number >= 0, got {tokens[1]!r}")
            scenario.horizon_s = horizon
        else:
            raise InvalidConfig(f"{where}: unknown directive {tokens[0]!r}")
    elif section == "nodes":
        kind = tokens[0]
        if kind not in _NODE_KEYS:
            raise InvalidConfig(f"{where}: unknown node kind {kind!r}")
        if len(tokens) < 2:
            raise InvalidConfig(f"{where}: node needs an id")
        keys = _NODE_KEYS[kind]
        kv = _kv(tokens[2:], keys, where)
        scenario.nodes.append(NodeSpec(tokens[1], kind, **_fields(kv, keys)))
    elif section == "links":
        if len(tokens) < 2:
            raise InvalidConfig(f"{where}: link needs two endpoints")
        kv = _kv(tokens[2:], _LINK_KEYS, where)
        scenario.links.append(LinkSpec(tokens[0], tokens[1], **_fields(kv, _LINK_KEYS)))
    elif section == "routes":
        if len(tokens) < 3:
            raise InvalidConfig(f"{where}: route needs node, prefix, via")
        kv = _kv(tokens[3:], _ROUTE_KEYS, where)
        scenario.routes.append(
            RouteSpec(tokens[0], name_parse(tokens[1]), tokens[2], **_fields(kv, _ROUTE_KEYS))
        )
    elif section == "videos":
        videos = scenario.videos
        if tokens[0] == "video":
            kv = _kv(tokens[2:], {"server", "prefix", "duration-s", *_VIDEO_KEYS}, where)
            for required in ("server", "prefix", "duration-s"):
                if required not in kv:
                    raise InvalidConfig(f"{where}: video needs {required}")
            video_id = _safe_component(tokens[1], "video id")
            if video_id in videos:
                raise ValueError(f"duplicate video {video_id!r}")
            videos[video_id] = VideoSpec(
                video_id=video_id,
                server=kv["server"],
                prefix=name_parse(kv["prefix"]),
                duration_s=_non_negative(kv["duration-s"]),
                **_fields(kv, _VIDEO_KEYS),
            )
        elif tokens[0] == "tier":
            if len(tokens) < 3 or tokens[1] not in videos:
                raise InvalidConfig(f"{where}: tier needs a declared video id")
            kv = _kv(tokens[3:], {"height", "min-bw"}, where)
            if "min-bw" not in kv:
                raise InvalidConfig(f"{where}: tier needs min-bw")
            videos[tokens[1]].tiers.append(
                Representation(
                    label=_safe_component(tokens[2], "tier label"),
                    height=int(kv.get("height", "0")) or 1,
                    bitrate_bps=int(parse_bandwidth(kv["min-bw"]) or 0),
                )
            )
        else:
            raise InvalidConfig(f"{where}: unknown videos entry {tokens[0]!r}")
    elif section == "sessions":
        if tokens[0] != "session" or len(tokens) < 2:
            raise InvalidConfig(f"{where}: expected 'session <id> ...'")
        kv = _kv(
            tokens[2:],
            {"consumer", "videos", *_SESSION_KEYS, *_ENGINE_KEYS, *_PLAYER_KEYS},
            where,
        )
        for required in ("consumer", "videos"):
            if required not in kv:
                raise InvalidConfig(f"{where}: session needs {required}")
        # SessionConfig and FetchEngine check their own ranges here, so a
        # bad value fails validation instead of the run.
        config = SessionConfig(
            FetchEngine(**_fields(kv, _ENGINE_KEYS)), **_fields(kv, _PLAYER_KEYS)
        )
        scenario.sessions.append(
            SessionSpec(
                session_id=tokens[1],
                consumer=kv["consumer"],
                videos=kv["videos"].split(","),
                config=config,
                **_fields(kv, _SESSION_KEYS),
            )
        )
    elif section == "fch":
        scenario.fch[tokens[0]] = tokens[1:]
    elif section == "prewarm":
        if len(tokens) != 4:
            raise InvalidConfig(f"{where}: prewarm needs node video tier fraction")
        scenario.prewarm.append(PrewarmSpec(tokens[0], tokens[1], tokens[2], float(tokens[3])))
    elif section == "throttles":
        if len(tokens) < 2:
            raise InvalidConfig(f"{where}: throttle needs src dst")
        kv = _kv(tokens[2:], {"at-s", "bw"}, where)
        if "at-s" not in kv or "bw" not in kv:
            raise InvalidConfig(f"{where}: throttle needs at-s and bw")
        scenario.throttles.append(
            ThrottleSpec(
                tokens[0], tokens[1], _non_negative(kv["at-s"]), parse_bandwidth(kv["bw"])
            )
        )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _validate(scenario: Scenario) -> None:
    """The checks the text alone shows. ``build_network`` checks the
    topology: node ids, links, routes, gateways and throttle links."""
    kinds = {n.node_id: n.kind for n in scenario.nodes}
    videos = scenario.videos
    for video in videos.values():
        if not video.tiers:
            raise InvalidConfig(f"video {video.video_id!r} has no tiers")
    for session in scenario.sessions:
        if kinds.get(session.consumer) != "consumer":
            raise InvalidConfig(f"session {session.session_id!r} needs a consumer")
        for vid in session.videos:
            if vid not in videos:
                raise InvalidConfig(f"session references unknown video {vid!r}")
    for pw in scenario.prewarm:
        if kinds.get(pw.node) != "forwarder":
            raise InvalidConfig(f"prewarm node {pw.node!r} is not a forwarder")
        if pw.video not in videos:
            raise InvalidConfig(f"prewarm references unknown video {pw.video!r}")
        if pw.tier not in {t.label for t in videos[pw.video].tiers}:
            raise InvalidConfig(f"prewarm tier {pw.tier!r} is not a tier of {pw.video!r}")
        if not 0 <= pw.fraction <= 1:
            raise InvalidConfig("prewarm fraction must be within [0, 1]")
    last_at: dict[tuple[str, str], float] = {}
    for throttle in scenario.throttles:
        direction = (throttle.src, throttle.dst)
        if direction in last_at and throttle.at_s <= last_at[direction]:
            raise InvalidConfig(
                f"throttle {throttle.src}->{throttle.dst}: "
                "throttle timestamps must be strictly increasing"
            )
        last_at[direction] = throttle.at_s


def build_network(scenario: Scenario) -> NetworkSim:
    """Build a scenario's network without its content: nodes, links and
    routes, and throttles applied or scheduled. Each producer gets an
    empty repository. Every consumer must reach each video's own server
    through each of its gateways, for the video's base name and for every
    route prefix under it (``NetworkSim.validate_reachability``). Raises
    InvalidTopology where the topology is at fault."""
    sim = NetworkSim(scenario.seed)
    for node in scenario.nodes:
        if node.kind == "forwarder":
            sim.add_forwarder(
                node.node_id,
                cs_capacity_bytes=node.cs_bytes,
                prefetch_depth=node.prefetch_depth,
                aggregate_interests=node.aggregate,
            )
        elif node.kind == "producer":
            key = KeyMaterial(
                key_id=f"{node.node_id}-key",
                secret=derive_seed(scenario.seed, f"key:{node.node_id}").to_bytes(8, "big"),
            )
            sim.add_producer(node.node_id, Repository(key, processing_delay_ms=node.delay_ms))
        else:
            sim.add_consumer(node.node_id)
    for link in scenario.links:
        sim.add_link(
            link.a,
            link.b,
            propagation_ms=link.prop_ms,
            bandwidth_bps=link.bw_bps,
            queue_limit_bytes=link.queue_bytes,
        )
    for route in scenario.routes:
        sim.add_route(route.node, route.prefix, route.via, route.cost)
    for video in scenario.videos.values():
        if not isinstance(sim.hosts.get(video.server), ProducerHost):
            raise InvalidTopology(f"video {video.video_id!r} needs a producer server")
    for node_id, gateways in scenario.fch.items():
        sim.set_gateways(node_id, gateways)
    sim.validate_reachability(
        [(v.prefix.append(v.video_id), v.server) for v in scenario.videos.values()]
    )
    for throttle in scenario.throttles:
        link = sim.link_between(throttle.src, throttle.dst)
        args = (throttle.src, throttle.dst, throttle.bw_bps)
        if throttle.at_s <= 0:
            link.set_bandwidth(*args)
        else:
            sim.engine.schedule(throttle.at_s, link.set_bandwidth, None, args)
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
            catalog = package_video(video_id, video.duration_s, video.segment_s, video.tiers)
            self.catalogs[video_id] = catalog
            repo = self.repos[video.server]
            publish(
                repo,
                catalog,
                video.prefix,
                chunk_size=video.chunk_bytes,
                freshness_ms=video.freshness_ms,
            )
            self.fetch_table[video_id] = (video.prefix, repo.key)
        for pw in scenario.prewarm:
            video = scenario.videos[pw.video]
            prewarm_cache(
                sim,
                pw.node,
                self.repos[video.server],
                video.prefix,
                self.catalogs[pw.video],
                pw.tier,
                pw.fraction,
            )
        for spec in scenario.sessions:
            self._setup_session(spec)

    def _setup_session(self, spec: SessionSpec) -> None:
        sim = self.sim
        host = sim.hosts[spec.consumer]
        assert isinstance(host, ConsumerHost)
        videos = [(video_id, *self.fetch_table[video_id]) for video_id in spec.videos]
        session = PlayerSession(
            session_id=spec.session_id,
            transport=host,
            videos=videos,
            rng=random.Random(derive_seed(self.scenario.seed, f"session:{spec.session_id}")),
            config=spec.config,
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
