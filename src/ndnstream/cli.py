"""Command-line harness: run scenario files, canned experiments, validation."""

from __future__ import annotations

import argparse
import sys

from .errors import InvalidConfig, NdnStreamError
from .experiments import EXPERIMENTS, experiment_scenario
from .metrics import export_report
from .netsim.scenario import ScenarioRun, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndnstream",
        description="Adaptive video streaming over named-data networking, emulated.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file and export its report")
    run_p.add_argument("scenario", help="path to a scenario file")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", default="out", help="report output directory")

    exp_p = sub.add_parser("experiments", help="run a canned experiment")
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment name")
    exp_p.add_argument("--seed", type=int, default=None)
    exp_p.add_argument("--out", default="out")

    val_p = sub.add_parser("validate", help="build a scenario file without running it")
    val_p.add_argument("scenario", help="path to a scenario file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "experiments":
            scenario = experiment_scenario(args.name, seed=args.seed)
        else:
            scenario = load_scenario(args.scenario)
            if args.command == "run" and args.seed is not None:
                scenario.seed = args.seed
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # validate builds exactly what run builds and stops before the first event.
    try:
        built = ScenarioRun(scenario)
        if args.command == "validate":
            print(f"{args.scenario}: ok")
            return EXIT_OK
        report = built.run()
        written = export_report(report, args.out)
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NdnStreamError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for session in report.sessions:
        startup = (
            f"{session.startup_delay_s:.3f}s" if session.startup_delay_s is not None else "n/a"
        )
        status = f" ABORTED ({session.aborted})" if session.aborted else ""
        print(
            f"session {session.session_id}: startup {startup}, "
            f"rebuffers {session.rebuffer_count}, files {len(session.files)}{status}"
        )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
