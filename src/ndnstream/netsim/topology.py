"""Hosts, faces and packet delivery over links.

Node ids map to one of three host kinds: forwarders run the NDN
forwarding plane, producers answer interests from a repository after a
configurable processing delay, and consumers run player sessions. Each
link endpoint gets a face id on its host; face 0 stays reserved for the
forwarder-internal prefetch downstream. A face records everything a send
on it needs, resolved once when the link is added: the link, the peer's
id, the peer host and the peer's face for the same link, on which the
packet arrives.

Deliveries carry a producer-origin flag so consumers can record, as
simulation ground truth, whether a chunk was served from a cache.
"""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace
from typing import Any, Callable

from ..consumer import FetchEngine, FileFetch, PlayerSession
from ..errors import AllProbesFailed, InvalidTopology
from ..forwarding import ForwarderNode
from ..names import Name, name_is_prefix_of
from ..packets import Data, Interest, Nack, Packet
from ..producer import Repository
from ..wire import encoded_size
from .engine import EventEngine
from .link import Link

PIT_SWEEP_INTERVAL_S = 1.0
PROBE_TIMEOUT_S = 4.0  # a probe round ends this long after its probes leave, at the latest


def derive_seed(seed: int, tag: str) -> int:
    digest = hashlib.blake2b(f"{seed}|{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _FacedHost:
    """Face bookkeeping shared by every host kind: one face per attached link.

    ``face_link`` maps a face to (link, peer id, peer host, peer face), the
    peer face being the one the peer receives on over the same link.
    """

    def __init__(self, sim: "NetworkSim", node_id: str):
        self.sim = sim
        self.node_id = node_id
        self.face_link: dict[int, tuple[Link, str, Host, int]] = {}
        self.peer_face: dict[str, int] = {}

    def attach_link(self, face: int, link: Link, peer: Host, peer_face: int) -> None:
        self.face_link[face] = (link, peer.node_id, peer, peer_face)
        self.peer_face[peer.node_id] = face


class ForwarderHost(_FacedHost):
    def __init__(self, sim: "NetworkSim", node: ForwarderNode):
        super().__init__(sim, node.node_id)
        self.node = node

    def attach_link(self, face: int, link: Link, peer: Host, peer_face: int) -> None:
        super().attach_link(face, link, peer, peer_face)
        self.node.add_face(face)

    def receive(self, from_face: int, packet: Packet, from_producer: bool) -> None:
        sim, node, kind = self.sim, self.node, packet.__class__
        now = sim.engine.now
        if kind is Interest:
            actions = node.on_interest(from_face, packet, now)
        elif kind is Data:
            actions = node.on_data(from_face, packet, now)
        else:
            actions = node.on_nack(from_face, packet, now)
        send, node_id = sim.send, self.node_id
        for face, out in actions:
            # Forwarded data keeps its upstream origin; data answered from
            # the content store, interests and nacks do not come from a producer.
            send(node_id, face, out, from_producer and kind is Data and out is packet)


class ProducerHost(_FacedHost):
    def __init__(self, sim: "NetworkSim", node_id: str, repo: Repository):
        super().__init__(sim, node_id)
        self.repo = repo

    def receive(self, from_face: int, packet: Packet, from_producer: bool) -> None:
        if not isinstance(packet, Interest):
            return  # producers only consume interests
        response = self.repo.resolve(packet)
        delay = self.repo.processing_delay_ms / 1000.0
        self.sim.engine.schedule_in(
            delay, self.sim.send, (self.node_id, from_face, response, True)
        )


class ConsumerHost(_FacedHost):
    """Endpoint running player sessions; doubles as their transport.

    ``sessions`` holds every owner of an ``active_fetch``: the player
    sessions, plus the stand-alone fetch of ``fetch_file_via`` while it runs.
    Data and nacks go to every active fetch of their file, since sessions
    may fetch the same file at once.

    ``gateways`` are its ``[fch]`` candidates, which it probes before it
    attaches, or None: it attaches directly to the one peer of its one link.
    """

    def __init__(self, sim: "NetworkSim", node_id: str, rng: random.Random):
        super().__init__(sim, node_id)
        self.engine = sim.engine
        self.rng = rng
        self.sessions: list[PlayerSession] = []
        self.gateways: list[str] | None = None
        self.gateway_face: int | None = None
        self.probe_results: dict[str, float] = {}
        self.chosen_gateway: str | None = None
        self._probe_sent: dict[int, float] = {}  # face -> when its unanswered probe left
        # Callbacks of the running probe round, called once it attaches.
        self._on_attached: list[Callable[[], None]] = []

    def send_interest(self, interest: Interest) -> None:
        if self.gateway_face is None:
            raise InvalidTopology(f"{self.node_id} has no attached gateway")
        self.sim.send(self.node_id, self.gateway_face, interest, False)

    # -- gateway selection -------------------------------------------------

    def candidate_gateways(self) -> list[str]:
        """Its ``gateways``, or else the one peer of its one link."""
        if self.gateways is not None:
            return self.gateways
        if len(self.face_link) != 1:
            raise InvalidTopology(f"{self.node_id}: direct attach needs exactly one link")
        return list(self.peer_face)

    def attach(self, probe_name: Name, then: Callable[[], None]) -> None:
        """Attach to a gateway, then call ``then``: at once when already
        attached or with no ``gateways`` to probe; else once a round of
        probes for ``probe_name`` picks the fastest responder. A call while
        a round runs joins that round."""
        if self.gateway_face is not None:
            then()
        elif self._on_attached:
            self._on_attached.append(then)
        elif self.gateways is None:
            [gateway] = self.candidate_gateways()
            self.chosen_gateway = gateway
            self.gateway_face = self.peer_face[gateway]
            then()
        else:
            self._on_attached = [then]
            now = self.engine.now
            for gateway in self.gateways:
                face = self.peer_face[gateway]
                self._probe_sent[face] = now
                interest = Interest(probe_name, can_be_prefix=True, nonce=self.rng.getrandbits(32))
                self.sim.send(self.node_id, face, interest, False)
            self.engine.schedule_in(PROBE_TIMEOUT_S, self._finish_probing)

    def _finish_probing(self) -> None:
        """End the probe round at its last answer or its timeout, whichever is
        first: attach to the fastest responder, ties going to the first listed."""
        if self.gateway_face is not None:
            return  # the round already ended at its last answer
        rtts = self.probe_results
        if not rtts:
            raise AllProbesFailed(f"{self.node_id}: all gateway probes timed out")
        best = min((g for g in self.gateways if g in rtts), key=rtts.__getitem__)
        self.chosen_gateway = best
        self.gateway_face = self.peer_face[best]
        waiting, self._on_attached = self._on_attached, []
        for on_attached in waiting:
            on_attached()

    # -- incoming ----------------------------------------------------------

    def receive(self, from_face: int, packet: Packet, from_producer: bool) -> None:
        if packet.__class__ is Data:
            # Only a host not yet attached can be probing its gateways.
            if self.gateway_face is None and from_face in self._probe_sent:
                rtt_ms = (self.engine.now - self._probe_sent.pop(from_face)) * 1000.0
                self.probe_results[self.face_link[from_face][1]] = rtt_ms
                if not self._probe_sent:
                    self._finish_probing()
                return
            # A fetch past discovery holds the producer's base object itself.
            base = packet.name.base
            for session in self.sessions:
                fetch = session.active_fetch
                if fetch is not None and (fetch.base is base or fetch.base == base):
                    fetch.handle_data(packet, not from_producer)
        elif packet.__class__ is Nack:
            for session in self.sessions:
                fetch = session.active_fetch
                if fetch is not None and name_is_prefix_of(fetch.base, packet.interest_name):
                    fetch.handle_nack(packet)


Host = ForwarderHost | ProducerHost | ConsumerHost


class NetworkSim:
    """Owns the engine, links and hosts of one scenario run."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.engine = EventEngine()
        self.hosts: dict[str, Host] = {}
        self.links: list[Link] = []
        self.data_tap: Callable[[Data, str, str], Data] | None = None

    # -- construction ------------------------------------------------------

    def add_forwarder(self, node_id: str, **options: Any) -> ForwarderHost:
        """Add a forwarder built with ``ForwarderNode``'s keyword
        ``options``; its nonces come from the simulator's seed and its id."""
        rng = random.Random(derive_seed(self.seed, f"fw:{node_id}"))
        host = ForwarderHost(self, ForwarderNode(node_id, nonce_rng=rng, **options))
        self._register(node_id, host)
        return host

    def add_producer(self, node_id: str, repo: Repository) -> ProducerHost:
        host = ProducerHost(self, node_id, repo)
        self._register(node_id, host)
        return host

    def add_consumer(self, node_id: str) -> ConsumerHost:
        rng = random.Random(derive_seed(self.seed, f"consumer:{node_id}"))
        host = ConsumerHost(self, node_id, rng)
        self._register(node_id, host)
        return host

    def _register(self, node_id: str, host: Host) -> None:
        if node_id in self.hosts:
            raise InvalidTopology(f"duplicate node id {node_id}")
        self.hosts[node_id] = host

    def add_link(self, a: str, b: str, **options: Any) -> Link:
        """Link two nodes with ``Link``'s keyword ``options``."""
        for node_id in (a, b):
            if node_id not in self.hosts:
                raise InvalidTopology(f"link references unknown node {node_id}")
        if b in self.hosts[a].peer_face:
            raise InvalidTopology(f"second link between {a} and {b}")
        link = Link(a, b, **options)
        self.links.append(link)
        host_a, host_b = self.hosts[a], self.hosts[b]
        # Face ids count up from 1 per host; a link from a node to itself
        # takes two of its faces.
        face_a = len(host_a.face_link) + 1
        face_b = face_a + 1 if host_b is host_a else len(host_b.face_link) + 1
        host_a.attach_link(face_a, link, host_b, face_b)
        host_b.attach_link(face_b, link, host_a, face_a)
        return link

    def link_between(self, a: str, b: str) -> Link:
        host = self.hosts.get(a)
        face = None if host is None else host.peer_face.get(b)
        if face is None:
            raise InvalidTopology(f"no link between {a} and {b}")
        return host.face_link[face][0]

    def add_route(self, node_id: str, prefix: Name, via: str, **options: Any) -> None:
        """Route ``prefix`` from a forwarder to the linked node ``via``, with
        ``ForwarderNode.add_route``'s keyword ``options``."""
        host = self.hosts.get(node_id)
        if not isinstance(host, ForwarderHost):
            raise InvalidTopology(f"routes only apply to forwarders, not {node_id}")
        face = host.peer_face.get(via)
        if face is None:
            raise InvalidTopology(f"{node_id} has no link to {via}")
        host.node.add_route(prefix, face, **options)

    # -- validation ---------------------------------------------------------

    def set_gateways(self, node_id: str, gateways: list[str]) -> None:
        """Give a consumer its ``[fch]`` candidates: a non-empty list of
        distinct linked peers, so each probe has a face of its own."""
        host = self.hosts.get(node_id)
        if not isinstance(host, ConsumerHost):
            raise InvalidTopology(f"fch entry for non-consumer {node_id!r}")
        if not gateways:
            raise InvalidTopology(f"fch entry for {node_id!r} lists no gateways")
        for k, gateway in enumerate(gateways):
            if gateway not in host.peer_face:
                raise InvalidTopology(f"fch: {node_id} has no link to {gateway}")
            if gateway in gateways[:k]:
                raise InvalidTopology(f"fch: {node_id} lists {gateway} twice")
        host.gateways = gateways

    def validate_reachability(self, videos: list[tuple[Name, str]]) -> None:
        """Every consumer must reach each video's own server through each of
        its candidate gateways. ``videos`` pairs each video's base name,
        ``<prefix>/<video id>``, with the id of the producer that serves it.
        Each file goes where the longest route prefix of its name sends it,
        so the base and every route prefix under it are walked, and each
        must lead to the server even where nothing is published under it."""
        forwarders = [h for h in self.hosts.values() if isinstance(h, ForwarderHost)]
        routes = [prefix for host in forwarders for prefix in host.node.fib]
        walks = [
            (name, server)
            for base, server in videos
            for name in (base, *routes)
            if name_is_prefix_of(base, name)
        ]
        for host in self.hosts.values():
            if not isinstance(host, ConsumerHost):
                continue
            for gateway in host.candidate_gateways():
                for name, server in walks:
                    end = self._walk(host.node_id, gateway, name)
                    if end is None or end.node_id != server:
                        raise InvalidTopology(
                            f"{host.node_id} cannot reach {name} via {gateway}"
                        )

    def _walk(self, consumer: str, gateway: str, name: Name) -> Host | None:
        """The host an interest for ``name`` sent by ``consumer`` to
        ``gateway`` ends at, each forwarder taking its own ``next_hop`` from
        the arrival face; None when a forwarder has no next hop or is met
        twice, a loop."""
        host = self.hosts[gateway]
        face = host.peer_face[consumer]
        visited = set()
        while isinstance(host, ForwarderHost):
            if host.node_id in visited:
                return None
            visited.add(host.node_id)
            out = host.node.next_hop(name, exclude=face)
            if out is None:
                return None
            _link, _peer, host, face = host.face_link[out]
        return host

    # -- traffic -------------------------------------------------------------

    def send(self, src: str, face: int, packet: Packet, from_producer: bool) -> None:
        """Send ``packet`` from ``src`` on ``face``: the link charges it its
        encoded size and schedules its arrival on the peer's face, with
        ``from_producer``, or drops it at a full queue. Interests and data
        packets carry their size (``_wire_size``, see ``packets``); only a
        nack is sized by ``encoded_size``. ``data_tap``, when set, may
        replace each data packet before it is sized."""
        link, peer, peer_host, from_face = self.hosts[src].face_link[face]
        kind = packet.__class__
        if kind is Nack:
            size = encoded_size(packet)
        else:
            if kind is Data and self.data_tap is not None:
                packet = self.data_tap(packet, src, peer)
            size = packet._wire_size
        engine = self.engine
        arrival = link.transmit(src, peer, size, engine.now)
        if arrival is None:
            return
        engine.schedule(arrival, peer_host.receive, None, (from_face, packet, from_producer))

    # -- housekeeping ----------------------------------------------------------

    def sweep_pits(self) -> None:
        """Expire every forwarder's due PIT entries, and sweep again
        ``PIT_SWEEP_INTERVAL_S`` later."""
        now = self.engine.now
        for host in self.hosts.values():
            if isinstance(host, ForwarderHost):
                host.node.pit_expire(now)
        self.engine.schedule_in(PIT_SWEEP_INTERVAL_S, self.sweep_pits)

    def drop_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for link in self.links:
            for key, value in link.drop_counts().items():
                if value:
                    counts[key] = value
        return counts


def fetch_file_via(sim: NetworkSim, consumer_id: str, base: Name, key):
    """Fetch one file through the simulated network and run it to completion.

    Returns (payload, chunk timings). This is the resource-request seam:
    callers address content by name and get the reassembled bytes back,
    joined here from the chunks the fetch hands over. A consumer not yet
    attached attaches first, probing its gateways for ``base`` if it has any.
    The fetch runs the default ``FetchEngine``, its nonces drawn from the
    simulator's seed and ``base``.

    The engine runs only until the fetch completes or fails: the clock
    stops at that event, and every later event (a session's, a stale
    timer's) stays queued for whoever runs the engine next.
    """
    host = sim.hosts[consumer_id]
    if not isinstance(host, ConsumerHost):
        raise InvalidTopology(f"{consumer_id} is not a consumer")
    result: dict = {}
    fetch = FileFetch(
        host,
        FetchEngine(),
        base,
        key,
        random.Random(derive_seed(sim.seed, f"fetch:{base}")),
        lambda chunks, timings: result.update(payload=b"".join(chunks), timings=timings),
        lambda exc: result.update(error=exc),
    )
    owner = SimpleNamespace(active_fetch=fetch)
    host.sessions.append(owner)
    try:
        host.attach(base, fetch.start)
        while not result and sim.engine.advance():
            pass
    finally:
        host.sessions.remove(owner)
    if "error" in result:
        raise result["error"]
    return result["payload"], result["timings"]
