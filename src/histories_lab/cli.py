"""Command-line front end: scenario analysis and parameter sweeps.

Exit codes: 0 success, 2 user or validation error, 3 internal numeric
failure.  Reports are deterministic: identical inputs and flags produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .analysis import AnalysisOptions, analyze, report_to_json
from .classicality import classify
from .config import parse_config
from .errors import ConfigValidationError, HistoriesLabError, NumericError, ValidationError
from .scenarios import SCENARIO_NAMES, build_scenario
from .unify import (
    correlations_from_marginals,
    cycle_check,
    extract_marginals,
    find_unifying_probability,
)

SWEEPABLE = ("eprb", "leggett_garg")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histories-lab",
        description="Consistent-histories analysis: classicality classification and "
                    "LP search for unifying probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze a built-in scenario or a JSON config")
    group = an.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=SCENARIO_NAMES, help="built-in scenario name")
    group.add_argument("--config", help="path to a scenario config JSON file")
    an.add_argument("--exact", action="store_true",
                    help="decide unification in exact rational arithmetic")
    an.add_argument("--tol", type=float, default=1e-10,
                    help="classification tolerance (default 1e-10)")
    an.add_argument("--delta", type=float, default=1e-9,
                    help="marginal-matching relaxation for the float LP (default 1e-9)")
    an.add_argument("--out", help="write the JSON report here (default: stdout)")

    sw = sub.add_parser("sweep", help="grid-evaluate a scenario over parameter ranges")
    sw.add_argument("--scenario", choices=SWEEPABLE, required=True)
    sw.add_argument("--param", action="append", default=[], help="parameter name (repeatable)")
    sw.add_argument("--range", action="append", default=[], dest="ranges", metavar="LO:HI:STEPS",
                    help="grid for the matching --param (repeatable)")
    sw.add_argument("--out", help="write the CSV here (default: stdout)")
    return parser


def _parse_range(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range {spec!r} must look like lo:hi:steps")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ValidationError(f"range {spec!r} must be numeric lo:hi:steps") from None
    if steps < 1:
        raise ValidationError(f"range {spec!r} must have at least one step")
    return np.linspace(lo, hi, steps)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_analyze(args) -> int:
    if args.scenario is not None:
        descriptor = build_scenario(args.scenario)
    else:
        descriptor = parse_config(args.config)
    options = AnalysisOptions(tol=args.tol, delta=args.delta, exact=args.exact)
    report = analyze(descriptor, options)
    _write_output(report_to_json(report), args.out)
    return 0


def evaluate_sweep_point(scenario: str, params: dict) -> dict:
    """One grid point: combined-set consistency, max inequality value, LP feasibility.

    The pair correlations of both scenarios go around a cycle, so the
    inequality value is the largest left-hand side of the n-cycle family
    (``unify.cycle_check``): the eight CHSH combinations, bound 2, for eprb
    and the four three-time Leggett-Garg combinations, bound 1, for
    leggett_garg.
    """
    descriptor = build_scenario(scenario, params)
    tables = []
    combined_consistent = None
    for sset in descriptor.sets:
        hset = descriptor.build(sset.name)
        report = classify(hset)
        if sset.name == "combined":
            combined_consistent = report.consistent
        elif sset.mapping is not None and report.consistent:
            tables.append(extract_marginals(hset, sset.mapping))
    verdict = find_unifying_probability(descriptor.space, tables)
    return {
        "combined_consistent": int(bool(combined_consistent)),
        "max_combination": cycle_check(correlations_from_marginals(tables)).max_value,
        "feasible": int(verdict.feasible),
    }


def _sweep_threads() -> int:
    raw = os.environ.get("HISTORIES_LAB_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValidationError(f"HISTORIES_LAB_THREADS must be an integer, got {raw!r}") from None
    return min(8, os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    if not args.param:
        raise ValidationError("sweep needs at least one --param with a matching --range")
    if len(args.param) != len(args.ranges):
        raise ValidationError("each --param needs exactly one matching --range")
    if len(set(args.param)) != len(args.param):
        raise ValidationError("sweep parameters must be distinct")
    grids = [_parse_range(spec) for spec in args.ranges]
    # validate parameter names against the scenario before launching the grid
    build_scenario(args.scenario, {name: float(g[0]) for name, g in zip(args.param, grids)})

    # row-major: the last parameter varies fastest
    points = [
        {name: float(grids[k][combo[k]]) for k, name in enumerate(args.param)}
        for combo in itertools.product(*(range(len(g)) for g in grids))
    ]

    with ThreadPoolExecutor(max_workers=_sweep_threads()) as pool:
        rows = list(pool.map(lambda p: evaluate_sweep_point(args.scenario, p), points))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(args.param) + ["combined_consistent", "max_combination", "feasible"])
    for point, row in zip(points, rows):
        writer.writerow(
            [repr(point[name]) for name in args.param]
            + [row["combined_consistent"], repr(row["max_combination"]), row["feasible"]]
        )
    _write_output(buffer.getvalue(), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_sweep(args)
    except ConfigValidationError as exc:
        for path, reason in exc.problems:
            print(f"config error at {path}: {reason}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except HistoriesLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
