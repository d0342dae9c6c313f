"""Per-layer tracing for the benchmark, installed from outside the program.

``Tracer.install`` replaces the public entry points of each ndnstream
layer with wrappers that record one span per call (label, parent span,
start and end) or, for the per-packet constructors, only a call count.
Functions are patched where callers look them up: a module that did
``from .wire import encoded_size`` holds its own reference, so that name
is patched in every importing module too. ``Tracer.uninstall`` restores
the original objects and checks that each one is back.

Spans stay in memory as flat integer arrays and are written to one file
when the traced run ends. A span's self time is its duration minus the
durations of its direct children; calls never overlap because the
program is single-threaded, so children are strictly nested.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ndnstream import consumer, forwarding, names, packets, producer, wire
from ndnstream.netsim import engine, link, scenario, topology

# (span label, owner, attribute): every place a caller looks the function up.
SPANNED = [
    ("names.format", names, "name_format"),
    ("names.format", packets, "name_format"),
    ("wire.encoded_size", wire, "encoded_size"),
    ("wire.encoded_size", forwarding, "encoded_size"),
    ("wire.encoded_size", topology, "encoded_size"),
    ("packets.sign", packets, "sign_data"),
    ("packets.sign", producer, "sign_data"),
    ("packets.verify", packets, "verify_data"),
    ("packets.verify", consumer, "verify_data"),
    ("packets.verify", producer, "verify_data"),
    ("producer.package", producer, "package_video"),
    ("producer.package", scenario, "package_video"),
    ("producer.publish", producer, "publish"),
    ("producer.publish", scenario, "publish"),
    ("producer.segment_payload", producer, "segment_payload"),
    ("producer.resolve", producer.Repository, "resolve"),
    ("forwarding.on_interest", forwarding.ForwarderNode, "on_interest"),
    ("forwarding.on_data", forwarding.ForwarderNode, "on_data"),
    ("forwarding.cs.insert", forwarding.ContentStore, "insert"),
    ("forwarding.prefetch_plan", forwarding.ForwarderNode, "prefetch_plan"),
    ("forwarding.fib_lpm", forwarding.ForwarderNode, "fib_longest_prefix_match"),
    ("consumer.handle_data", consumer.FileFetch, "handle_data"),
    ("netsim.event", engine.EventEngine, "advance"),
    ("netsim.send", topology.NetworkSim, "send"),
    ("netsim.link.transmit", link.Link, "transmit"),
    ("metrics.report", scenario.ScenarioRun, "report"),
]

# Constructors run for every packet: counted, not spanned.
COUNTED = [
    ("names.name_init", names.Name, "__post_init__"),
    ("names.full", names.VersionedChunkName, "full"),
    ("consumer.interests_sent", topology.ConsumerHost, "send_interest"),
]

CS_LOOKUP_EXACT = "forwarding.cs.lookup_exact"
CS_LOOKUP_PREFIX = "forwarding.cs.lookup_prefix"

# Labels whose calls and self time are reported as per-layer metrics.
TIMED_LABELS = [
    "names.format",
    "wire.encoded_size",
    "packets.sign",
    "packets.verify",
    "producer.resolve",
    "forwarding.on_interest",
    "forwarding.on_data",
    CS_LOOKUP_EXACT,
    CS_LOOKUP_PREFIX,
    "forwarding.cs.insert",
    "forwarding.prefetch_plan",
    "forwarding.fib_lpm",
    "consumer.handle_data",
    "netsim.send",
    "netsim.link.transmit",
]
SELF_ONLY_LABELS = [
    "producer.package",
    "producer.publish",
    "producer.segment_payload",
    "metrics.report",
    "metrics.export",
]


class Tracer:
    """Spans and counts for one traced run; all spans share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._counts: dict[str, list[int]] = {}
        self._originals: list[tuple[object, str, object]] = []
        # Observations taken at the wrapped boundaries.
        self.pit_max = 0
        self.heap_max = 0
        self.cs_evictions = 0
        self.queue_wait_ms = array("d")
        self._prefetched: set[tuple[int, tuple[bytes, ...]]] = set()
        self.prefetch_useful = 0

    # -- recording --------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._label_index:
            self._label_index[label] = len(self.labels)
            self.labels.append(label)
        return self._label_index[label]

    def _open(self, label_id: int) -> int:
        sid = len(self.span_label)
        self.span_label.append(label_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0)
        self.span_end.append(0)
        self._stack.append(sid)
        self.span_start[sid] = time.perf_counter_ns()
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        """A span around benchmark code, such as the set-up or the run."""
        sid = self._open(self._label_id(label))
        try:
            yield
        finally:
            self._close(sid)

    def _spanned(self, label: str, fn, before=None, after=None):
        label_id = self._label_id(label)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = open_(label_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, label: str, fn):
        cell = self._counts.setdefault(label, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- boundary observations ------------------------------------------------

    def _after_forwarding(self, args, _result) -> None:
        self.pit_max = max(self.pit_max, len(args[0].pit))

    def _before_event(self, args) -> None:
        self.heap_max = max(self.heap_max, args[0].pending())

    def _before_transmit(self, args) -> None:
        lnk, src, dst, _size, now = args
        d = lnk.direction(src, dst)
        if d.bandwidth_bps is not None:
            self.queue_wait_ms.append(max(0.0, d.busy_until - now) * 1000.0)

    def _after_insert(self, _args, evicted) -> None:
        self.cs_evictions += len(evicted)

    def _after_plan(self, args, plan) -> None:
        cs_id = id(args[0].cs)
        for interest in plan:
            self._prefetched.add((cs_id, interest.name.components))

    def _cs_lookup(self, fn):
        exact = self._spanned(CS_LOOKUP_EXACT, fn, after=self._after_lookup)
        prefix = self._spanned(CS_LOOKUP_PREFIX, fn, after=self._after_lookup)

        @functools.wraps(fn)
        def wrapper(cs, interest, now):
            if interest.can_be_prefix:
                return prefix(cs, interest, now)
            return exact(cs, interest, now)

        return wrapper

    def _after_lookup(self, args, data) -> None:
        if data is None or not self._prefetched:
            return
        vc = data.name
        comps = vc.base.components + (b"v=%d" % vc.version, b"c=%d" % vc.chunk)
        key = (id(args[0]), comps)
        if key in self._prefetched:
            self._prefetched.discard(key)
            self.prefetch_useful += 1

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        if attr not in vars(owner):
            raise RuntimeError(f"{owner!r} has no attribute {attr!r} to trace")
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        hooks = {
            "forwarding.on_interest": (None, self._after_forwarding),
            "forwarding.on_data": (None, self._after_forwarding),
            "netsim.event": (self._before_event, None),
            "netsim.link.transmit": (self._before_transmit, None),
            "forwarding.cs.insert": (None, self._after_insert),
            "forwarding.prefetch_plan": (None, self._after_plan),
        }
        for label, owner, attr in SPANNED:
            before, after = hooks.get(label, (None, None))
            self._patch(owner, attr, self._spanned(label, vars(owner)[attr], before, after))
        for label, owner, attr in COUNTED:
            self._patch(owner, attr, self._counted(label, vars(owner)[attr]))
        cs = forwarding.ContentStore
        self._patch(cs, "lookup", self._cs_lookup(vars(cs)["lookup"]))

    def uninstall(self) -> None:
        """Restore every patched attribute and check that it is back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        for owner, attr, original in self._originals:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")
        self._originals.clear()

    # -- results ------------------------------------------------------------------

    def durations_ns(self, label: str | None = None) -> np.ndarray:
        """Duration of every span, or of the spans with one label."""
        duration = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(
            self.span_start, dtype=np.int64
        )
        if label is None:
            return duration
        return duration[np.frombuffer(self.span_label, dtype=np.int32) == self._label_index[label]]

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per label."""
        label = np.frombuffer(self.span_label, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = self.durations_ns()
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(label)
        )
        own = duration - children
        n = len(self.labels)
        calls = np.bincount(label, minlength=n)
        self_ns = np.bincount(label, weights=own, minlength=n)
        return (
            {name: int(calls[i]) for i, name in enumerate(self.labels)},
            {name: float(self_ns[i]) / 1e9 for i, name in enumerate(self.labels)},
        )

    def counts(self) -> dict[str, int]:
        return {label: cell[0] for label, cell in self._counts.items()}

    def write(self, path: Path) -> None:
        """Write every span of the run, with the label table and run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            run_id=np.array(self.run_id),
            labels=np.array(self.labels),
            label=np.frombuffer(self.span_label, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, run, report) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run as name -> (value, unit)."""
    calls, self_s = tracer.self_times()
    counts = tracer.counts()
    out: dict[str, tuple[float, str]] = {
        "names.name_init.calls": (counts["names.name_init"], "count"),
        "names.full.calls": (counts["names.full"], "count"),
    }
    for label in TIMED_LABELS:
        out[f"{label}.calls"] = (calls.get(label, 0), "count")
        out[f"{label}.self_s"] = (self_s.get(label, 0.0), "s")
    for label in SELF_ONLY_LABELS:
        out[f"{label}.self_s"] = (self_s.get(label, 0.0), "s")

    stores = [repo.store for repo in run.repos.values()]
    out["producer.chunks_stored"] = (sum(len(s) for s in stores), "count")
    out["producer.bytes_stored"] = (
        sum(len(d.content) for s in stores for d in s.values()),
        "bytes",
    )

    nodes = [h.node for h in run.sim.hosts.values() if isinstance(h, topology.ForwarderHost)]
    hits = sum(n.stats.cs_hits for n in nodes)
    misses = sum(n.stats.cs_misses for n in nodes)
    prefetch_sent = sum(n.stats.prefetch_sent for n in nodes)
    out["forwarding.pit_max"] = (tracer.pit_max, "count")
    out["forwarding.upstream_ratio"] = (
        sum(n.stats.interests_out for n in nodes) / sum(n.stats.interests_in for n in nodes),
        "ratio",
    )
    out["forwarding.cs.evictions"] = (tracer.cs_evictions, "count")
    out["forwarding.cs.hit_ratio"] = (hits / (hits + misses), "ratio")
    out["forwarding.prefetch_sent"] = (prefetch_sent, "count")
    out["forwarding.prefetch_useful_ratio"] = (
        tracer.prefetch_useful / prefetch_sent if prefetch_sent else 0.0,
        "ratio",
    )

    sessions = report.sessions
    segment_bits = sum(f.content_bytes * 8 for s in sessions for f in s.segment_files())
    out["consumer.interests_sent"] = (counts["consumer.interests_sent"], "count")
    out["consumer.retx"] = (sum(f.retx_total for s in sessions for f in s.files), "count")
    out["consumer.startup_s.p50"] = (
        statistics.median(s.startup_delay_s for s in sessions),
        "s",
    )
    out["consumer.rebuffer_s"] = (sum(s.rebuffer_total_s for s in sessions), "s")
    out["consumer.mean_bitrate_kbps"] = (
        segment_bits / sum(s.media_played_s for s in sessions) / 1000.0,
        "kbps",
    )

    event_us = tracer.durations_ns("netsim.event") / 1000.0
    waits = np.frombuffer(tracer.queue_wait_ms, dtype=np.float64)
    out["netsim.events"] = (run.sim.engine.executed, "count")
    out["netsim.event_us.p50"] = (float(np.percentile(event_us, 50)), "us")
    out["netsim.event_us.p99"] = (float(np.percentile(event_us, 99)), "us")
    out["netsim.heap_max"] = (tracer.heap_max, "count")
    out["netsim.link.queue_wait_ms.p99"] = (
        float(np.percentile(waits, 99)) if len(waits) else 0.0,
        "ms",
    )
    out["netsim.link.drops"] = (sum(run.sim.drop_counts().values()), "count")
    return out
