"""The summary of ``tools/bench_pairs.py``, on synthetic results only."""

import importlib.util
import json
import math
import os
import signal
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _result(run_s: float, events_per_s: float) -> dict:
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "events_per_s": {"value": events_per_s, "unit": "1/s"},
        },
    }


def test_summary_medians_quartiles_and_wins():
    base = [_result(s, 100.0 / s) for s in (1.0, 1.2, 1.1, 1.4, 1.3)]
    # The change is faster in four pairs and slower in the last one.
    change = [_result(s, 100.0 / s) for s in (0.9, 1.05, 1.05, 1.2, 1.5)]
    run_s, events = bench_pairs.summarize(base, change, METRICS)

    assert run_s["name"] == "run_s" and run_s["pairs"] == 5
    assert run_s["base"] == pytest.approx((1.1, 1.2, 1.3))
    assert run_s["change"] == pytest.approx((1.05, 1.05, 1.2))
    assert run_s["relative"] == pytest.approx(-0.125)
    assert run_s["wins"] == 4
    # The median gap, 0.15, is narrower than the base's IQR, 0.2.
    assert not run_s["gap_over_base_iqr"]

    # Higher is better here: a win is a larger value.
    assert events["wins"] == 4
    assert events["base"][1] == pytest.approx(100 / 1.2)
    assert events["relative"] > 0

    text = bench_pairs.format_rows([run_s, events])
    assert "run_s (s)" in text and "4/5" in text and "-12.5%" in text


def test_summary_counts_ties_as_losses_and_flags_a_clear_gap():
    base = [_result(1.0, 10.0), _result(1.0, 10.0), _result(1.02, 10.0)]
    change = [_result(1.0, 10.0), _result(0.5, 20.0), _result(0.5, 20.0)]
    run_s, events = bench_pairs.summarize(base, change, METRICS)
    assert run_s["wins"] == events["wins"] == 2
    assert run_s["gap_over_base_iqr"] and events["gap_over_base_iqr"]


def test_summary_of_one_pair_and_bad_inputs():
    [row] = bench_pairs.summarize([_result(2.0, 5.0)], [_result(1.0, 5.0)], METRICS[:1])
    assert row["base"] == (2.0, 2.0, 2.0) and row["wins"] == 1
    [zero] = bench_pairs.summarize([_result(0.0, 5.0)], [_result(1.0, 5.0)], METRICS[:1])
    assert math.isnan(zero["relative"])
    with pytest.raises(ValueError):
        bench_pairs.summarize([_result(1.0, 1.0)], [], METRICS)
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], METRICS)


def test_workload_list_splits_in_order_and_rejects_gaps_and_repeats():
    assert bench_pairs.split_workloads("fanout") == ["fanout"]
    assert bench_pairs.split_workloads("staircase, prefetch,fanout") == [
        "staircase",
        "prefetch",
        "fanout",
    ]
    for bad in ("", "fanout,", "a,,b", "fanout,fanout"):
        with pytest.raises(ValueError):
            bench_pairs.split_workloads(bad)


def _run(digest: str, run_s: float) -> tuple[dict, dict]:
    info = {"report_sha256": digest, "events": 10, **_info([1.0], [run_s])}
    return info, _result(run_s, 1.0 / run_s)


def _info(setup_s: list[float], run_s: list[float]) -> dict:
    return {"detail": {"host_s": {"setup_s": setup_s, "run_s": run_s}}}


def test_host_rows_compare_each_runs_host_median_and_flag_a_move_against_reference():
    metrics = [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]

    def result(setup_s: float, run_s: float) -> dict:
        values = {"setup_s": setup_s, "run_s": run_s, "events_per_s": 1.0 / run_s}
        return {"metrics": {name: {"value": v} for name, v in values.items()}}

    # Reference seconds: set-up 12 % faster, run 10 % faster in every pair.
    base = [result(1.0, 2.0), result(1.0, 2.0), result(1.0, 2.0)]
    change = [result(0.88, 1.8), result(0.88, 1.8), result(0.88, 1.8)]
    # Host seconds: each run's median of its samples. Set-up is slower on
    # the host in two pairs of three, run faster in all three.
    base_info = [_info([1.0, 1.2, 1.1], [2.0]), _info([1.0], [2.0]), _info([1.0], [2.0])]
    change_info = [_info([1.2, 1.15, 1.05], [1.9]), _info([1.1], [1.9]), _info([0.9], [1.9])]
    reference = bench_pairs.summarize(base, change, metrics)
    setup, run = bench_pairs.host_rows(base_info, change_info, reference)

    assert setup["name"] == "setup_s host" and setup["unit"] == "s"
    assert setup["base"] == pytest.approx((1.0, 1.0, 1.05))
    assert setup["change"] == pytest.approx((1.0, 1.1, 1.125))
    assert setup["wins"] == 1 and setup["pairs"] == 3
    assert setup["relative"] == pytest.approx(0.1) and setup["against"]
    assert run["wins"] == 3 and run["relative"] == pytest.approx(-0.05)
    assert not run["against"]

    text = bench_pairs.format_rows(reference + [setup, run])
    [setup_line] = [line for line in text.splitlines() if line.startswith("setup_s host (s)")]
    assert "1/3" in setup_line and "+10.0%" in setup_line and "MOVES AGAINST REFERENCE" in setup_line
    [run_line] = [line for line in text.splitlines() if line.startswith("run_s host (s)")]
    assert "3/3" in run_line and "AGAINST" not in run_line


def test_host_rows_leave_a_move_against_reference_inside_the_base_iqr_unflagged():
    metrics = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]

    def result(setup_s: float) -> dict:
        return {"metrics": {"setup_s": {"value": setup_s}}}

    # Reference set-up 1 % faster; host set-up 1 % slower, a gap of 0.01
    # against a base host IQR of 0.1 (0.95 to 1.05).
    reference = bench_pairs.summarize(
        [result(1.0)] * 3, [result(0.99)] * 3, metrics
    )
    base_info = [_info([v], [2.0]) for v in (0.9, 1.0, 1.1)]
    change_info = [_info([v], [2.0]) for v in (0.91, 1.01, 1.11)]
    [setup] = bench_pairs.host_rows(base_info, change_info, reference)
    assert setup["relative"] * reference[0]["relative"] < 0
    assert not setup["gap_over_base_iqr"] and not setup["against"]
    assert "AGAINST" not in bench_pairs.format_rows(reference + [setup])


def test_report_has_one_table_per_workload_from_its_own_runs():
    runs = {
        # The change wins both staircase pairs and loses both fanout pairs.
        "staircase": {
            "base": [_run("s", 2.0), _run("s", 2.2)],
            "change": [_run("s", 1.0), _run("s", 1.1)],
        },
        "fanout": {
            "base": [_run("f", 1.0), _run("f", 1.0)],
            "change": [_run("f", 1.5), _run("g", 1.5)],
        },
    }
    text = bench_pairs.format_report(runs, METRICS)
    staircase, fanout = text.split("\n\n")
    assert staircase.startswith("staircase: report digest and event count: same on both sides")
    assert fanout.startswith("fanout: report digest and event count: DIFFER")
    assert "-50.0%" in staircase and "2/2" in staircase and "0/2" not in staircase
    assert "+50.0%" in fanout and "0/2" in fanout and "2/2" not in fanout
    # Each table ends with the run's host seconds, read from the info lines.
    assert staircase.splitlines()[-1].startswith("run_s host (s)")
    assert fanout.splitlines()[-1].startswith("run_s host (s)")


@pytest.mark.parametrize("differ", [None, "digest", "events"])
def test_main_prints_the_tables_then_exits_2_when_outputs_differ(monkeypatch, capsys, differ):
    """``main`` on synthetic runs: no tree is extracted and no benchmark is
    run. Status 0 when every run gives the same digest and event count,
    2 when the change's fanout runs give another digest or event count."""

    class Done:
        stdout = b""

    benchmark = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["end_to_end"]]

    def run_bench(tree, workload, seed, seconds):
        info, result = _run(workload, 1.0)
        result["metrics"] = {name: {"value": 1.0} for name in names}
        if tree == bench_pairs.ROOT and workload == "fanout" and differ:
            info["report_sha256" if differ == "digest" else "events"] = 0
        return info, result

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: Done())
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    argv = "--base HEAD --workload staircase,fanout --pairs 2 --seconds 1 --seed 1".split()
    status = bench_pairs.main(argv)
    out = capsys.readouterr().out
    assert "staircase: report digest and event count: same on both sides" in out
    assert out.count("run_s (s)") == 2
    if differ:
        assert status == 2 and "fanout: report digest and event count: DIFFER" in out
    else:
        assert status == 0 and "DIFFER" not in out



def test_sigterm_removes_the_temporary_tree_and_restores_the_handler(monkeypatch):
    """A SIGTERM while the base tree exists ends ``main`` with SystemExit,
    the tree is removed and the handler from before ``main`` is back."""

    class Done:
        stdout = b""

    caught = []

    def before(signum, frame):
        caught.append(signum)

    trees = []

    def run_bench(tree, workload, seed, seconds):
        trees.append(tree)
        os.kill(os.getpid(), signal.SIGTERM)
        raise AssertionError("SIGTERM did not stop the run")

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: Done())
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    previous = signal.signal(signal.SIGTERM, before)
    try:
        argv = "--base HEAD --workload fanout --pairs 1 --seconds 1 --seed 1".split()
        with pytest.raises(SystemExit) as stopped:
            bench_pairs.main(argv)
        assert stopped.value.code == 128 + signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) is before
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert not caught
    assert trees and trees[0].name.startswith("bench-pairs-")
    assert not trees[0].exists()
