"""Alternating benchmark pairs: a base revision against the working tree.

Run it from anywhere inside the repository:

    python3 tools/bench_pairs.py --base HEAD~1 --workload fanout --pairs 10 --seconds 40 --seed 1
    python3 tools/bench_pairs.py --base HEAD~1 --workload staircase,prefetch,fanout --pairs 8 --seconds 40 --seed 1

The base revision's files are extracted with ``git archive`` into a
temporary directory, removed on exit, also when SIGTERM stops the script.
Each pair runs ``python3 bench/run.py --workload W --seed K --seconds S
--trace 0`` once in each tree for every listed workload W, one after the
other; the side that goes first alternates from pair to pair, so a drift in
machine speed falls on both sides alike.

The script stops with a non-zero exit at the first run that fails, prints
``"correct": false`` or counts a failed operation. Otherwise it prints one
table per workload: for every end-to-end metric in ``BENCHMARK.json``, the
median and [Q1, Q3] on each side, the change's relative move, and the pairs
the change won in the metric's ``better`` direction, after a line that says
whether both sides gave the same report digest and event count. Below
them come the host-second medians of ``setup_s`` and ``run_s``: each run's
median of the unscaled samples in its info line (``detail.host_s``),
compared the same way. A host row is flagged when it moves the other way
from its reference row, as when work on another thread slows the speed
probe and the reference seconds read a gain the host did not see. When
any workload's digests or event counts differ, it exits with status 2
after the tables.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_METRICS = ("setup_s", "run_s")  # the reference metrics with host seconds


class BenchFailure(Exception):
    pass


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` run in ``tree``: its info line and its result line."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchFailure(f"{tree}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if result.get("correct") is not True:
        raise BenchFailure(f"{tree}: correct: {result.get('correct')}")
    if result.get("failed", 0) > 0:
        raise BenchFailure(f"{tree}: {result['failed']} failed operations")
    return info, result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(metric: dict, before: list[float], after: list[float]) -> dict:
    """One row from a metric's values in paired runs: ``before[i]`` and
    ``after[i]`` are pair i. A pair is a win when the change's value is
    strictly better in the metric's ``better`` direction."""
    if len(before) != len(after) or not before:
        raise ValueError("need the same non-zero number of runs on each side")
    lower = metric["better"] == "lower"
    b_q, a_q = quartiles(before), quartiles(after)
    return {
        "name": metric["name"],
        "unit": metric["unit"],
        "better": metric["better"],
        "base": b_q,
        "change": a_q,
        "relative": (a_q[1] - b_q[1]) / b_q[1] if b_q[1] else float("nan"),
        "wins": sum((a < b) if lower else (a > b) for b, a in zip(before, after)),
        "pairs": len(before),
        "gap_over_base_iqr": abs(a_q[1] - b_q[1]) > b_q[2] - b_q[0],
    }


def summarize(base: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """One ``compare`` row per metric from the result lines of paired runs."""
    return [
        compare(
            metric,
            [r["metrics"][metric["name"]]["value"] for r in base],
            [r["metrics"][metric["name"]]["value"] for r in change],
        )
        for metric in metrics
    ]


def host_rows(base: list[dict], change: list[dict], reference: list[dict]) -> list[dict]:
    """A host-second ``compare`` row for each ``HOST_METRICS`` row of
    ``reference``, from the info lines of the same paired runs: a run's
    value is the median of its ``detail.host_s`` samples. ``against`` is
    set when the host median moves the other way from the reference one by
    more than the base side's host IQR: a smaller move is host noise."""
    rows = []
    for ref in reference:
        name = ref["name"]
        if name not in HOST_METRICS:
            continue
        row = compare(
            {"name": f"{name} host", "unit": ref["unit"], "better": ref["better"]},
            [statistics.median(info["detail"]["host_s"][name]) for info in base],
            [statistics.median(info["detail"]["host_s"][name]) for info in change],
        )
        row["against"] = row["relative"] * ref["relative"] < 0 and row["gap_over_base_iqr"]
        rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> str:
    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    head = ("metric", "base median [Q1, Q3]", "change median [Q1, Q3]", "change")
    lines = [f"{head[0]:<26} {head[1]:<34} {head[2]:<34} {head[3]:>8}  wins"]
    for r in rows:
        label = f"{r['name']} ({r['unit']})"
        gap = ", gap > base IQR" if r["gap_over_base_iqr"] else ""
        against = ", MOVES AGAINST REFERENCE" if r.get("against") else ""
        lines.append(
            f"{label:<26} {cell(r['base']):<34} {cell(r['change']):<34} {r['relative']:>+8.1%}  "
            f"{r['wins']}/{r['pairs']} ({r['better']} is better{gap}{against})"
        )
    return "\n".join(lines)


def split_workloads(text: str) -> list[str]:
    """The workload names of a comma-separated ``--workload`` value, in order."""
    names = [name.strip() for name in text.split(",")]
    if "" in names or len(set(names)) != len(names):
        raise ValueError(f"workload list {text!r} has an empty or repeated name")
    return names


def same_outputs(sides: dict[str, list[tuple[dict, dict]]]) -> bool:
    """Whether every run of a workload, on both sides, gave one and the same
    report digest and event count."""
    outputs = {
        side: {(info["report_sha256"], info["events"]) for info, _ in pairs}
        for side, pairs in sides.items()
    }
    return outputs["base"] == outputs["change"] and len(outputs["base"]) == 1


def format_report(runs: dict[str, dict[str, list[tuple[dict, dict]]]], metrics: list[dict]) -> str:
    """One block per workload, in ``runs`` order, from its (info, result)
    lines per side: the workload, whether both sides gave one and the same
    report digest and event count, and its table of ``summarize`` rows
    followed by their ``host_rows``."""
    blocks = []
    for workload, sides in runs.items():
        infos = {side: [info for info, _ in pairs] for side, pairs in sides.items()}
        results = {side: [result for _, result in pairs] for side, pairs in sides.items()}
        rows = summarize(results["base"], results["change"], metrics)
        rows += host_rows(infos["base"], infos["change"], rows)
        blocks.append(
            f"{workload}: report digest and event count: "
            f"{'same on both sides' if same_outputs(sides) else 'DIFFER'}\n"
            + format_rows(rows)
        )
    return "\n\n".join(blocks)


def _exit_on_sigterm(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a workload, or several split by commas")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        workloads = split_workloads(args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {workload: {"base": [], "change": []} for workload in workloads}
    # SIGTERM unwinds as SystemExit, so the temporary tree is removed.
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            tree = Path(tmp)
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", args.base], check=True, capture_output=True
            ).stdout
            subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
            for i in range(args.pairs):
                sides = [("base", tree), ("change", ROOT)]
                for workload in workloads:
                    for side, path in sides if i % 2 == 0 else sides[::-1]:
                        result = run_bench(path, workload, args.seed, args.seconds)
                        runs[workload][side].append(result)
                print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    except BenchFailure as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"seed {args.seed}, {args.pairs} pairs at --seconds {args.seconds:g}, base {args.base}")
    print(format_report(runs, metrics))
    return 0 if all(same_outputs(sides) for sides in runs.values()) else 2


if __name__ == "__main__":
    sys.exit(main())
