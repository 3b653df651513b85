"""Command line front end.

    bamsim run <scenario> [--seed N] [--out DIR] [--stop N] [--quiet]
    bamsim validate <scenario>
    bamsim summary <journal.jsonl>

<scenario> is a file path or the name of a bundled scenario (exp1_mam,
exp1_rdm, exp2_hard, exp2_soft).  run writes metrics.csv and journal.jsonl
into --out (default ./out) and prints the key=value summary.  Exit codes:
0 ok, 2 bad scenario or arguments (an --out that cannot be created or
written included), 3 simulation failure.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from typing import List, Optional

from . import metrics, scenario

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bamsim",
        description="Discrete-event simulator for LSP admission control under "
        "per-class bandwidth allocation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("scenario", help="scenario file or bundled name")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--out", default="./out", help="output directory (default ./out)")
    p_run.add_argument("--stop", type=int,
                       help="process only the first N requests (1 <= N <= request count)")
    p_run.add_argument("--quiet", action="store_true", help="suppress the end-of-run summary")

    p_val = sub.add_parser("validate", help="parse and check a scenario, run nothing")
    p_val.add_argument("scenario", help="scenario file or bundled name")

    p_sum = sub.add_parser("summary", help="recount totals from a saved journal")
    p_sum.add_argument("journal", help="journal file written by run")
    return parser


def _load(name: str) -> scenario.Scenario:
    try:
        return scenario.load(name)
    except scenario.ScenarioError as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _cmd_run(args: argparse.Namespace) -> int:
    scn = _load(args.scenario)
    if args.seed is not None:
        scn.run.seed = args.seed
    if args.stop is not None:
        total = sum(d.count for d in scn.demands)
        if not 1 <= args.stop <= total:
            print("error: --stop %d must be between 1 and the request count (%d)"
                  % (args.stop, total), file=sys.stderr)
            return EXIT_BAD_INPUT
        scn.run.stop = args.stop
    # The topmost directory of --out that does not exist yet, if any, so that
    # a scenario that fails in build leaves nothing behind.
    created = None
    head = os.path.abspath(args.out)
    while not os.path.exists(head):
        created, head = head, os.path.dirname(head)
    try:
        os.makedirs(args.out, exist_ok=True)  # before the run, so a bad --out costs none
    except OSError as exc:
        print("error: --out: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        result = scenario.simulate(scn)
    except scenario.ScenarioError as exc:  # found while building, before any event
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # noqa: BLE001 - any internal failure is exit 3
        print("simulation failed: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME
    try:
        result.metrics.write_csv(os.path.join(args.out, "metrics.csv"))
        metrics.write_journal(result.journal, os.path.join(args.out, "journal.jsonl"))
    except OSError as exc:
        print("error: --out: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    if not args.quiet:
        print(metrics.render_summary(vars(result.state.counters)))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scn = _load(args.scenario)
    try:
        scenario.build(scn)  # parsing checked the counts: no request is drawn
    except scenario.ScenarioError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    print("%s: ok (%d requests over %d cycles)" % (
        scn.source, sum(d.count for d in scn.demands), scn.run.cycles))
    return EXIT_OK


def _cmd_summary(args: argparse.Namespace) -> int:
    try:
        journal = metrics.read_journal(args.journal)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    print(metrics.render_summary(metrics.summarize(journal)))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_summary(args)


if __name__ == "__main__":
    sys.exit(main())
