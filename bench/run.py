"""ndnstream benchmark: scenario set-up and event-loop cost of one workload.

Run from the repository root:

    python3 bench/run.py --workload staircase --seed 1 --seconds 40 --trace 0

The workload's scenario text is generated from the seed (see
``workloads.py``) and handed to the program through ``parse_scenario``;
``ScenarioRun(scenario)`` is timed as set-up and ``ScenarioRun.run()`` as
the run. Every run is checked (see ``check_run``); the first failed check
ends the benchmark with exit code 1.

``--trace 0`` repeats set-up and run until ``--seconds`` is spent (at
least twice, so two same-seed reports can be compared), then fills the
time left with further set-ups, and reports medians. Its times are host
seconds scaled to a fixed reference speed by ``SpeedProbe``, which times
a small fixed piece of interpreter work ten times a second while the
program runs; runs made minutes apart on a host whose speed drifts then
compare. ``--trace 1`` does one untraced and one traced run and reports
per-layer counts and self times (see ``tracing.py``); the spans go to
``.bench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
scenario and report digests, iteration times (reference and host
seconds), probe statistics and machine information.
An operation is one media segment a session is due to play; it fails
if the session aborts or the horizon passes before the segment arrives.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_FULL_ITERATIONS = 2
PROBE_INTERVAL_S = 0.1
PROBE_ITEMS = 500
# Reported times are host times scaled to the speed at which one probe
# unit takes this long: a reference second is the time of 1000 probe units.
REFERENCE_PROBE_S = 0.001


class _ProbeItem:
    __slots__ = ("key", "size")

    def __init__(self, key, size):
        self.key = key
        self.size = size


def probe_unit() -> None:
    """Fixed interpreter work shaped like the simulator's.

    Small objects, tuple-keyed dicts, a heap and keyed hashes.
    """
    table = {}
    heap: list = []
    digest = hashlib.blake2b(key=b"probe", digest_size=16)
    for i in range(PROBE_ITEMS):
        key = ("ndn", "video", i % 61, i)
        table[key] = _ProbeItem(key, 8000 + i % 13)
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        digest.update(key[2].to_bytes(2, "big"))
    total = 0
    while heap:
        _, i = heapq.heappop(heap)
        total += table[("ndn", "video", i % 61, i)].size
    digest.update(total.to_bytes(8, "big"))


class SpeedProbe:
    """Samples the machine's speed while the program runs.

    The host's speed drifts by more than 1.5x within minutes (see
    BASELINE.md), so raw seconds measured at different times do not
    compare. While the probe is on, a real-time interval timer interrupts
    the benchmark every ``PROBE_INTERVAL_S``; the handler times one
    ``probe_unit`` with the cyclic GC paused, so the program's heap does
    not enter its time. ``reference_s`` removes the handlers' time from a
    timed interval and scales what is left by the probe's speed during it.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        gc_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_unit()
        t1 = time.perf_counter()
        if gc_enabled:
            gc.enable()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference speed, probe time left out.

        The speed is the mean probe time over the samples inside the
        interval and the nearest one on each side.
        """
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        window = self.took[max(lo - 1, 0) : hi + 1]
        if not window:
            raise RuntimeError("no speed sample near a timed interval")
        probe_s = sum(self.took[lo:hi])
        return (t1 - t0 - probe_s) * REFERENCE_PROBE_S / statistics.fmean(window)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def import_program():
    """Put the checkout's sources first on the path; refuse to run without them."""
    if not (SRC / "ndnstream" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ndnstream sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ndnstream

    if Path(ndnstream.__file__).resolve().parent != SRC / "ndnstream":
        raise SystemExit(f"bench: imported ndnstream from {ndnstream.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def count_operations(run, report) -> tuple[int, int]:
    """Segments the sessions were due to play, and how many did not arrive in time."""
    horizon = run.scenario.horizon_s
    attempted = failed = 0
    for session, metrics in zip(run.sessions, report.sessions):
        due = sum(run.catalogs[v].segment_count for v in session.video_ids)
        delivered = {
            (f.video_id, f.segment_index)
            for f in metrics.segment_files()
            if f.finished <= horizon
        }
        attempted += due
        failed += due - len(delivered)
    return attempted, failed


def check_run(run) -> None:
    """Sessions end unaborted with all media played; PITs drain; CS stays in capacity."""
    from ndnstream.netsim.topology import ForwarderHost

    for session in run.sessions:
        if session.aborted is not None:
            raise CheckFailed(f"session {session.session_id} aborted: {session.aborted}")
        if session.ended_at is None:
            raise CheckFailed(f"session {session.session_id} did not end by the horizon")
        expected = sum(run.catalogs[v].duration_s for v in session.video_ids)
        if abs(session.media_played_s - expected) > 1e-6:
            raise CheckFailed(
                f"session {session.session_id} played {session.media_played_s} s of {expected} s"
            )
    for host in run.sim.hosts.values():
        if not isinstance(host, ForwarderHost):
            continue
        node = host.node
        if node.pit:
            raise CheckFailed(f"{node.node_id}: {len(node.pit)} PIT entries left at the end")
        if node.cs.used_bytes > node.cs.capacity_bytes:
            raise CheckFailed(
                f"{node.node_id}: CS holds {node.cs.used_bytes} bytes over "
                f"capacity {node.cs.capacity_bytes}"
            )


class Bench:
    """Runs one workload at one seed and keeps what every run has in common."""

    def __init__(self, text: str):
        self.text = text
        self.report_digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.events: int | None = None
        self.media_s: float | None = None

    def setup(self):
        from ndnstream import parse_scenario
        from ndnstream.netsim.scenario import ScenarioRun

        return ScenarioRun(parse_scenario(self.text))

    def timed_setup(self):
        gc.collect()
        t0 = time.perf_counter()
        run = self.setup()
        return run, t0, time.perf_counter()

    def timed_run(self, run):
        t0 = time.perf_counter()
        report = run.run()
        return report, t0, time.perf_counter()

    def finish(self, run, report) -> None:
        """Check a finished run; every run of one seed must match the first."""
        attempted, failed = count_operations(run, report)
        self.attempted += attempted
        self.failed += failed
        if failed:
            raise CheckFailed(f"{failed} of {attempted} segments not delivered in time")
        check_run(run)
        media_s = sum(s.media_played_s for s in run.sessions)
        digest = sha256(report.to_json())
        events = run.sim.engine.executed
        if self.report_digest is None:
            self.report_digest, self.events, self.media_s = digest, events, media_s
        elif (digest, events) != (self.report_digest, self.events):
            raise CheckFailed(
                f"same seed, different output: report {digest[:12]} vs "
                f"{self.report_digest[:12]}, events {events} vs {self.events}"
            )


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced: full iterations, then set-up only, until the time is spent.

    Times are host seconds scaled to the reference speed by ``SpeedProbe``;
    the host seconds go into the detail line.
    """
    start = time.perf_counter()
    host: dict[str, list[float]] = {"setup_s": [], "run_s": []}
    ref: dict[str, list[float]] = {"setup_s": [], "run_s": []}
    intervals: list[tuple[str, float, float]] = []
    with SpeedProbe() as probe:
        while True:
            elapsed = time.perf_counter() - start
            if len(host["run_s"]) >= MIN_FULL_ITERATIONS and elapsed + statistics.median(
                s + r for s, r in zip(host["setup_s"], host["run_s"])
            ) > seconds:
                break
            run, s0, s1 = bench.timed_setup()
            report, r0, r1 = bench.timed_run(run)
            intervals += [("setup_s", s0, s1), ("run_s", r0, r1)]
            host["setup_s"].append(s1 - s0)
            host["run_s"].append(r1 - r0)
            bench.finish(run, report)
            del run, report
        while time.perf_counter() - start + statistics.median(host["setup_s"]) <= seconds:
            run, s0, s1 = bench.timed_setup()
            intervals.append(("setup_s", s0, s1))
            host["setup_s"].append(s1 - s0)
            del run
        # One more sample, so the last interval has one on each side.
        time.sleep(PROBE_INTERVAL_S)
    for name, t0, t1 in intervals:
        ref[name].append(probe.reference_s(t0, t1))
    run_s = statistics.median(ref["run_s"])
    metrics = {
        "setup_s": (statistics.median(ref["setup_s"]), "s"),
        "run_s": (run_s, "s"),
        "events_per_s": (bench.events / run_s, "1/s"),
        "media_s_per_host_s": (bench.media_s / run_s, "s/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "reference_s": ref,
        "host_s": host,
        "probe": {
            "samples": len(probe.took),
            "median_s": statistics.median(probe.took),
            "reference_s": REFERENCE_PROBE_S,
        },
    }
    return metrics, detail


def measure_traced(bench: Bench, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced run for the overhead base, then one traced run."""
    from ndnstream.metrics import export_report
    from tracing import Tracer, layer_metrics

    run, _, _ = bench.timed_setup()
    report, r0, r1 = bench.timed_run(run)
    untraced_run_s = r1 - r0
    bench.finish(run, report)
    del run, report
    gc.collect()

    run_id = f"{workload}-seed{seed}-pid{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.install()
    try:
        wall0 = time.perf_counter_ns()
        with tracer.span("bench.setup"):
            run = bench.setup()
        t0 = time.perf_counter()
        with tracer.span("bench.run"):
            report = run.run()
        traced_run_s = time.perf_counter() - t0
        with tracer.span("metrics.export"), tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            report.to_json()
            export_report(report, tmp)
        wall_ns = time.perf_counter_ns() - wall0
    finally:
        tracer.uninstall()
    bench.finish(run, report)

    _calls, self_s = tracer.self_times()
    self_total_s = sum(self_s.values())
    if self_total_s > wall_ns / 1e9:
        raise CheckFailed(f"self times sum to {self_total_s} s, over the traced wall {wall_ns / 1e9} s")
    metrics = layer_metrics(tracer, run, report)
    metrics["trace.overhead"] = (traced_run_s / untraced_run_s, "ratio")
    span_file = OUT_DIR / f"trace-{workload}.npz"
    tracer.write(span_file)
    detail = {
        "run_id": run_id,
        "spans": len(tracer.span_label),
        "span_file": str(span_file.relative_to(ROOT)),
        "untraced_run_s": untraced_run_s,
        "traced_run_s": traced_run_s,
        "traced_wall_s": wall_ns / 1e9,
        "self_total_s": self_total_s,
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    text = WORKLOADS[args.workload](args.seed)
    bench = Bench(text)
    try:
        if args.trace:
            metrics, detail = measure_traced(bench, args.workload, args.seed)
        else:
            metrics, detail = measure(bench, args.seconds)
    except CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": False,
                    "attempted": bench.attempted,
                    "failed": bench.failed,
                    "metrics": {},
                }
            )
        )
        return 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scenario_sha256": sha256(text),
        "report_sha256": bench.report_digest,
        "events": bench.events,
        "machine": machine_info(),
        "detail": detail,
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
