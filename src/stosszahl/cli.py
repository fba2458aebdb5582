"""Command-line entry point.

Exit codes: 0 every check passed, 1 at least one check failed, 2 the
configuration, an input file or the output location was unusable, 3 the
program itself failed: an unexpected exception (a bug, or a numerical
invariant such as a scenario's final-state check breaking), reported as one
``internal error: <Type>: <message>`` line on stderr without a traceback,
so it never reads as a failed check. The ``STOSSZAHL_OUT``
environment variable overrides the config file's output directory; an
explicit ``--out`` flag overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_scenario_config
from .gas import audit_ledger_file
from .scenarios import list_scenarios, run_scenario

OUT_ENV_VAR = "STOSSZAHL_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stosszahl",
        description="Run collapse-vs-unitarity experiment scenarios and audit ledgers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario from a config file")
    run_parser.add_argument("--config", required=True, help="path to the key = value config file")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--out", default=None, help="override the output directory")
    run_parser.add_argument(
        "--no-header-timestamp",
        action="store_true",
        help="suppress the timestamp comment line so outputs are byte-reproducible",
    )

    audit_parser = sub.add_parser("audit", help="replay a ledger CSV against its invariants")
    audit_parser.add_argument("--ledger", required=True, help="path to a ledger CSV")
    audit_parser.add_argument(
        "--n-molecules",
        type=int,
        default=None,
        help="molecule count N: enables the id range check and, with n = N minus the "
        "confirmation set size that most rows give (the smaller on a tie), requires every "
        "set size to be N - n, each differing row a violation, and each molecule's first "
        "role to fit a run's initial layout, molecules 0..n-1 excited",
    )

    sub.add_parser("list-scenarios", help="print the registered scenario names")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # _dispatch returns 1 or 2 for every failure it expects
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "list-scenarios":
        for name in list_scenarios():
            print(name)
        return 0

    if args.command == "audit":
        try:
            audit = audit_ledger_file(args.ledger, args.n_molecules)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"events: {audit.n_events}")
        for violation in audit.violations:
            print(f"violation: {violation}")
        print("audit: PASS" if audit.passed else "audit: FAIL")
        return 0 if audit.passed else 1

    # run
    out_override = args.out if args.out is not None else os.environ.get(OUT_ENV_VAR)
    try:
        config = load_scenario_config(args.config, seed_override=args.seed, out_override=out_override)
        config.write_timestamp = not args.no_header_timestamp
        report = run_scenario(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: measured {check.measured} (requires {check.requirement})")
    print(f"report: {config.out_dir / 'report.json'}")
    print(f"scenario {report.scenario}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
