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

Optional sections: [fch], [prewarm], [throttles], [metrics].
"""

from __future__ import annotations

import math
import random
import re
from collections.abc import Callable, Collection
from dataclasses import dataclass, field
from typing import Any

from ..consumer import FetchEngine, PlayerSession, SessionConfig
from ..errors import CapacityExceeded, InvalidConfig, InvalidTopology, MalformedName
from ..forwarding import BestRoute, GatewayPrefetch, Strategy
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
from .topology import ConsumerHost, ForwarderHost, NetworkSim, ProducerHost, derive_seed

DEFAULT_HORIZON_S = 3600.0


@dataclass
class NodeSpec:
    node_id: str
    kind: str  # consumer | forwarder | producer
    cs_bytes: int = 0
    strategy: Strategy = field(default_factory=BestRoute)
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
    prefix: str
    via: str
    cost: int = 1


@dataclass
class VideoSpec:
    video_id: str
    server: str
    prefix: str
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
    videos: list[VideoSpec] = field(default_factory=list)
    sessions: list[SessionSpec] = field(default_factory=list)
    fch: dict[str, list[str]] = field(default_factory=dict)
    prewarm: list[PrewarmSpec] = field(default_factory=list)
    throttles: list[ThrottleSpec] = field(default_factory=list)
    jitter_mode: str = "mad"


_BW_RE = re.compile(r"^(\d+(?:\.\d+)?)([kKmMgG]?)(?:bps)?$")
_SIZE_RE = re.compile(r"^(\d+(?:\.\d+)?)([kKmMgG]?)B?$")
_SCALE = {"": 1.0, "k": 1e3, "m": 1e6, "g": 1e9}


def parse_bandwidth(text: str) -> float | None:
    if text == "unlimited":
        return None
    m = _BW_RE.match(text)
    if not m:
        raise InvalidConfig(f"bad bandwidth {text!r}")
    return float(m.group(1)) * _SCALE[m.group(2).lower()]


def parse_size(text: str) -> int | None:
    if text == "unlimited":
        return None
    m = _SIZE_RE.match(text)
    if not m:
        raise InvalidConfig(f"bad size {text!r}")
    return int(float(m.group(1)) * _SCALE[m.group(2).lower()])


def _parse_strategy(text: str) -> Strategy:
    if text == "best-route":
        return BestRoute()
    if text == "prefetch":
        return GatewayPrefetch()
    kind, sep, depth = text.partition(":")
    if kind == "prefetch" and sep:
        return GatewayPrefetch(int(depth))
    raise ValueError(f"unknown strategy {text!r}")


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
        "strategy": ("strategy", _parse_strategy),
        "aggregate": ("aggregate", _parse_switch),
    },
    "producer": {"delay-ms": ("delay_ms", float)},
}
_LINK_KEYS = {
    "prop-ms": ("prop_ms", float),
    "bw": ("bw_bps", parse_bandwidth),
    "queue": ("queue_bytes", parse_size),
}
_ROUTE_KEYS = {"cost": ("cost", int)}
_VIDEO_KEYS = {
    "segment-s": ("segment_s", float),
    "chunk-bytes": ("chunk_bytes", int),
    "freshness-ms": ("freshness_ms", int),
}
_SESSION_KEYS = {"start-s": ("start_s", float)}
_ENGINE_KEYS = {
    "window": ("window", int),
    "rto-ms": ("rto_ms", float),
    "max-retx": ("max_retx", int),
}
_PLAYER_KEYS = {
    "safety": ("safety_factor", float),
    "est-fast-s": ("half_life_fast_s", float),
    "est-slow-s": ("half_life_slow_s", float),
    "startup-s": ("startup_threshold_s", float),
    "capacity-s": ("buffer_capacity_s", float),
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
        "metrics",
    }
    videos: dict[str, VideoSpec] = {}
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
            _parse_entry(scenario, videos, section, line, where)
        except (ValueError, MalformedName) as exc:
            raise InvalidConfig(f"{where}: {exc}") from exc
    _validate(scenario)
    return scenario


def _parse_entry(
    scenario: Scenario,
    videos: dict[str, VideoSpec],
    section: str | None,
    line: str,
    where: str,
) -> None:
    """Add one non-header line to the scenario. Malformed values raise
    ValueError or MalformedName; the caller reports them by line."""
    tokens = line.split()
    if section is None:
        if tokens[0] == "scenario" and len(tokens) == 2:
            scenario.scenario_id = tokens[1]
        elif tokens[0] == "seed" and len(tokens) == 2:
            scenario.seed = int(tokens[1])
        elif tokens[0] == "horizon" and len(tokens) == 2:
            scenario.horizon_s = float(tokens[1])
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
        name_parse(tokens[1])
        scenario.routes.append(
            RouteSpec(tokens[0], tokens[1], tokens[2], **_fields(kv, _ROUTE_KEYS))
        )
    elif section == "videos":
        if tokens[0] == "video":
            kv = _kv(tokens[2:], {"server", "prefix", "duration-s", *_VIDEO_KEYS}, where)
            for required in ("server", "prefix", "duration-s"):
                if required not in kv:
                    raise InvalidConfig(f"{where}: video needs {required}")
            name_parse(kv["prefix"])
            spec = VideoSpec(
                video_id=tokens[1],
                server=kv["server"],
                prefix=kv["prefix"],
                duration_s=float(kv["duration-s"]),
                **_fields(kv, _VIDEO_KEYS),
            )
            videos[spec.video_id] = spec
            scenario.videos.append(spec)
        elif tokens[0] == "tier":
            if len(tokens) < 3 or tokens[1] not in videos:
                raise InvalidConfig(f"{where}: tier needs a declared video id")
            kv = _kv(tokens[3:], {"height", "min-bw", "media"}, where)
            if "min-bw" not in kv:
                raise InvalidConfig(f"{where}: tier needs min-bw")
            min_bw = int(parse_bandwidth(kv["min-bw"]) or 0)
            media = int(parse_bandwidth(kv["media"]) or 0) if "media" in kv else min_bw
            videos[tokens[1]].tiers.append(
                Representation(
                    label=tokens[2],
                    height=int(kv.get("height", "0")) or 1,
                    min_bandwidth_bps=min_bw,
                    media_bitrate_bps=media,
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
            ThrottleSpec(tokens[0], tokens[1], float(kv["at-s"]), parse_bandwidth(kv["bw"]))
        )
    elif section == "metrics":
        if tokens[0] == "jitter" and len(tokens) == 2 and tokens[1] in ("mad", "var"):
            scenario.jitter_mode = tokens[1]
        else:
            raise InvalidConfig(f"{where}: unknown metrics entry {line!r}")


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _validate(scenario: Scenario) -> None:
    ids = [n.node_id for n in scenario.nodes]
    if len(set(ids)) != len(ids):
        raise InvalidConfig("duplicate node id")
    known = set(ids)
    kinds = {n.node_id: n.kind for n in scenario.nodes}
    for link in scenario.links:
        for end in (link.a, link.b):
            if end not in known:
                raise InvalidConfig(f"link references unknown node {end!r}")
    for route in scenario.routes:
        if route.node not in known or route.via not in known:
            raise InvalidConfig(f"route {route.node}->{route.via} references unknown node")
        if kinds[route.node] != "forwarder":
            raise InvalidConfig(f"route node {route.node!r} is not a forwarder")
    video_ids = set()
    for video in scenario.videos:
        if video.video_id in video_ids:
            raise InvalidConfig(f"duplicate video {video.video_id!r}")
        video_ids.add(video.video_id)
        if video.server not in known or kinds[video.server] != "producer":
            raise InvalidConfig(f"video {video.video_id!r} needs a producer server")
        if not video.tiers:
            raise InvalidConfig(f"video {video.video_id!r} has no tiers")
    for session in scenario.sessions:
        if session.consumer not in known or kinds[session.consumer] != "consumer":
            raise InvalidConfig(f"session {session.session_id!r} needs a consumer")
        if not session.videos:
            raise InvalidConfig(f"session {session.session_id!r} lists no videos")
        prefixes = set()
        for vid in session.videos:
            if vid not in video_ids:
                raise InvalidConfig(f"session references unknown video {vid!r}")
            spec = next(v for v in scenario.videos if v.video_id == vid)
            prefixes.add(spec.prefix)
        if len(prefixes) != 1:
            raise InvalidConfig("a session's videos must share one prefix")
    for consumer, gateways in scenario.fch.items():
        if consumer not in known or kinds[consumer] != "consumer":
            raise InvalidConfig(f"fch entry for non-consumer {consumer!r}")
        if not gateways:
            raise InvalidConfig(f"fch entry for {consumer!r} lists no gateways")
        for gw in gateways:
            if gw not in known:
                raise InvalidConfig(f"fch references unknown node {gw!r}")
    for pw in scenario.prewarm:
        if pw.node not in known or kinds[pw.node] != "forwarder":
            raise InvalidConfig(f"prewarm node {pw.node!r} is not a forwarder")
        if pw.video not in video_ids:
            raise InvalidConfig(f"prewarm references unknown video {pw.video!r}")
        if not 0 <= pw.fraction <= 1:
            raise InvalidConfig("prewarm fraction must be within [0, 1]")
    last_at: dict[tuple[str, str], float] = {}
    for throttle in scenario.throttles:
        if throttle.src not in known or throttle.dst not in known:
            raise InvalidConfig("throttle references unknown node")
        direction = (throttle.src, throttle.dst)
        if direction in last_at and throttle.at_s <= last_at[direction]:
            raise InvalidConfig(
                f"throttle {throttle.src}->{throttle.dst}: "
                "throttle timestamps must be strictly increasing"
            )
        last_at[direction] = throttle.at_s


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
    order). Raises CapacityExceeded if anything gets evicted while loading.
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
            if evicted:
                raise CapacityExceeded(
                    f"{node_id}: content store too small for prewarm set"
                )
            inserted += 1
    return inserted


class ScenarioRun:
    """A built scenario: the simulator plus everything needed for reporting."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.sim = NetworkSim(scenario.seed)
        self.sessions: list[PlayerSession] = []
        self._first_live = 0  # every session before this index has ended
        self._session_hosts: dict[str, ConsumerHost] = {}
        self.catalogs: dict[str, VideoCatalog] = {}
        self.repos: dict[str, Repository] = {}
        self._build()

    def _build(self) -> None:
        scenario = self.scenario
        sim = self.sim
        for node in scenario.nodes:
            if node.kind == "forwarder":
                sim.add_forwarder(
                    node.node_id,
                    cs_capacity_bytes=node.cs_bytes,
                    strategy=node.strategy,
                    aggregate_interests=node.aggregate,
                )
            elif node.kind == "producer":
                key = KeyMaterial(
                    key_id=f"{node.node_id}-key",
                    secret=derive_seed(scenario.seed, f"key:{node.node_id}").to_bytes(8, "big"),
                )
                repo = Repository(key, processing_delay_ms=node.delay_ms)
                self.repos[node.node_id] = repo
                sim.add_producer(node.node_id, repo)
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
            sim.add_route(route.node, name_parse(route.prefix), route.via, route.cost)

        for video in scenario.videos:
            catalog = package_video(
                video.video_id, video.duration_s, video.segment_s, video.tiers
            )
            self.catalogs[video.video_id] = catalog
            repo = self.repos[video.server]
            publish(
                repo,
                catalog,
                video.prefix,
                chunk_size=video.chunk_bytes,
                freshness_ms=video.freshness_ms,
            )
            producer_host = sim.hosts[video.server]
            assert isinstance(producer_host, ProducerHost)
            producer_host.announce(name_parse(video.prefix))

        prefixes = [name_parse(v.prefix) for v in scenario.videos]
        sim.validate_reachability(prefixes, scenario.fch)

        for pw in scenario.prewarm:
            video = next(v for v in scenario.videos if v.video_id == pw.video)
            prewarm_cache(
                sim,
                pw.node,
                self.repos[video.server],
                name_parse(video.prefix),
                self.catalogs[pw.video],
                pw.tier,
                pw.fraction,
            )

        for throttle in scenario.throttles:
            link = sim.link_between(throttle.src, throttle.dst)

            def apply(link=link, t=throttle) -> None:
                link.set_bandwidth(t.src, t.dst, t.bw_bps)

            if throttle.at_s <= 0:
                apply()
            else:
                sim.engine.schedule(throttle.at_s, apply)

        for spec in scenario.sessions:
            self._setup_session(spec)

    def _setup_session(self, spec: SessionSpec) -> None:
        scenario = self.scenario
        sim = self.sim
        host = sim.hosts[spec.consumer]
        assert isinstance(host, ConsumerHost)
        video_spec = next(v for v in scenario.videos if v.video_id == spec.videos[0])
        prefix = name_parse(video_spec.prefix)
        key = self.repos[video_spec.server].key
        session = PlayerSession(
            session_id=spec.session_id,
            transport=host,
            prefix=prefix,
            video_ids=spec.videos,
            key=key,
            rng=random.Random(derive_seed(scenario.seed, f"session:{spec.session_id}")),
            config=spec.config,
        )
        host.sessions.append(session)
        self.sessions.append(session)
        self._session_hosts[spec.session_id] = host

        def begin() -> None:
            if host.gateway_face is not None:
                session.start()
                return
            if spec.consumer in scenario.fch:
                probe_base = prefix.append(spec.videos[0], "playlist.m3u8")
                host.probe_gateways(scenario.fch[spec.consumer], probe_base, session.start)
            else:
                host.attach_direct()
                session.start()

        sim.engine.schedule(spec.start_s, begin)

    def resource_request(self, consumer_id: str, path: str) -> bytes:
        """Resolve one resource path through the network, outside any session.

        The path maps under the scenario's video prefix; the returned bytes
        are the reassembled file content.
        """
        from ..consumer import resource_name
        from .topology import fetch_file_via

        video = self.scenario.videos[0]
        base = resource_name(name_parse(video.prefix), path)
        key = self.repos[video.server].key
        payload, _timings = fetch_file_via(self.sim, consumer_id, base, key)
        return payload

    def all_sessions_done(self) -> bool:
        """True once every session has ended. A session never restarts, so
        the first live session only moves forward and each call is O(1)
        amortised over the run."""
        sessions = self.sessions
        i = self._first_live
        while i < len(sessions) and sessions[i].ended_at is not None:
            i += 1
        self._first_live = i
        return i == len(sessions)

    def run(self) -> MetricsReport:
        sim = self.sim
        sim.start_pit_sweeper(lambda: not self.all_sessions_done())
        while sim.engine.pending() and not self.all_sessions_done():
            if sim.engine.now > self.scenario.horizon_s:
                break
            sim.engine.advance()
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
                    "interests_in": stats.interests_in,
                    "interests_out": stats.interests_out,
                    "data_in": stats.data_in,
                    "data_out": stats.data_out,
                    "nacks_in": stats.nacks_in,
                    "nacks_out": stats.nacks_out,
                    "prefetch_sent": stats.prefetch_sent,
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
            host = self._session_hosts[session.session_id]
            session_metrics.append(
                SessionMetrics.from_session(
                    session,
                    host.node_id,
                    host.chosen_gateway,
                    host.probe_results,
                    jitter_mode=self.scenario.jitter_mode,
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
