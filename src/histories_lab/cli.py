"""Command-line front end: scenario analysis, report verification and parameter sweeps.

Exit codes: 0 success, 2 user or validation error, 3 internal numeric
failure (for ``verify``: stored evidence that does not check out).
Reports are deterministic: identical inputs and flags produce
byte-identical output.  ``sweep`` splits its row-major grid into
``HISTORIES_LAB_THREADS`` equal contiguous slices (default: the CPUs this
process may run on, never more than ``SWEEP_WORKER_CAP`` = 8); this process
evaluates the first slice and each later one runs in a child forked from it.
With one slice, or where ``fork`` is unavailable, every point runs in this
process.  Within a slice each infeasible point offers its Farkas certificate
to the next, which reports it only after checking it against its own
constraint system.  A grid of more than ``SWEEP_POINT_CAP`` points is
refused before it is built.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import AnalysisOptions, analyze, report_to_json, reverify
from .classicality import DEFAULT_CLASSIFY_TOL, classify
from .config import load_json, parse_config
from .errors import ConfigValidationError, HistoriesLabError, NumericError, ValidationError
from .scenarios import SCENARIO_NAMES, build_scenario
from .unify import (
    DEFAULT_DELTA,
    correlations_from_marginals,
    cycle_check,
    extract_marginals,
    find_unifying_probability,
)

SWEEPABLE = ("eprb", "leggett_garg")
SWEEP_POINT_CAP = 10**6
SWEEP_WORKER_CAP = 8


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged
    (``append`` copies its shared ``default=[]`` before adding to it)."""
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
    an.add_argument("--tol", type=float, default=DEFAULT_CLASSIFY_TOL,
                    help="classification tolerance (default %(default)s)")
    an.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                    help="marginal-matching relaxation for the float LP (default %(default)s)")
    an.add_argument("--out", help="write the JSON report here (default: stdout)")

    ve = sub.add_parser("verify", help="re-check a saved report's witness or Farkas certificate")
    ve.add_argument("report", help="path to a JSON report written by analyze")

    sw = sub.add_parser("sweep", help="grid-evaluate a scenario over parameter ranges")
    sw.add_argument("--scenario", choices=SWEEPABLE, required=True)
    sw.add_argument("--param", action="append", default=[], help="parameter name (repeatable)")
    sw.add_argument("--range", action="append", default=[], dest="ranges", metavar="LO:HI:STEPS",
                    help="grid for the matching --param (repeatable)")
    sw.add_argument("--out", help="write the CSV here (default: stdout)")
    return parser


def _parse_range(spec: str) -> tuple[float, float, int]:
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
    return lo, hi, steps


def _grids(specs: list[str]) -> list[np.ndarray]:
    """The grid of each ``lo:hi:steps`` spec, refused before any is built when
    their product exceeds ``SWEEP_POINT_CAP`` points."""
    ranges = [_parse_range(spec) for spec in specs]
    count = math.prod(steps for _, _, steps in ranges)
    if count > SWEEP_POINT_CAP:
        raise ValidationError(f"sweep grid has {count} points, cap is {SWEEP_POINT_CAP}")
    grids = []
    for spec, (lo, hi, steps) in zip(specs, ranges):
        with np.errstate(all="ignore"):
            grid = np.linspace(lo, hi, steps)
        if not np.isfinite(grid).all():
            raise ValidationError(f"range {spec!r} must give finite grid values")
        grids.append(grid)
    return grids


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


def cmd_verify(args) -> int:
    reverify(load_json(args.report, "report"))
    print(f"{args.report}: evidence verified")
    return 0


@dataclass
class Carry:
    """What a grid point hands the next point of its slice: the Farkas
    certificate of an infeasible point, or ``None`` after a feasible one."""

    certificate: list | None = None


def evaluate_sweep_point(scenario: str, params: dict, carry: Carry | None = None) -> dict:
    """One grid point: combined-set consistency, max inequality value, LP feasibility.

    The pair correlations of both scenarios go around a cycle, so the
    inequality value is the largest left-hand side of the n-cycle family
    (``unify.cycle_check``): the eight CHSH combinations, bound 2, for eprb
    and the four three-time Leggett-Garg combinations, bound 1, for
    leggett_garg.  ``carry`` offers the previous point's certificate to
    ``find_unifying_probability``, which reports it only if it verifies
    against this point's own constraint system, and keeps this point's
    certificate for the next point.
    """
    carry = Carry() if carry is None else carry
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
    verdict = find_unifying_probability(descriptor.space, tables, certificate=carry.certificate)
    carry.certificate = verdict.farkas_certificate
    return {
        "combined_consistent": int(bool(combined_consistent)),
        "max_combination": cycle_check(correlations_from_marginals(tables)).max_value,
        "feasible": int(verdict.feasible),
    }


def _sweep_threads() -> int:
    """Processes a sweep may use, this one included: ``HISTORIES_LAB_THREADS``,
    else the usable CPUs; at most ``SWEEP_WORKER_CAP`` either way."""
    raw = os.environ.get("HISTORIES_LAB_THREADS", "").strip()
    if raw:
        try:
            requested = int(raw)
        except ValueError:
            raise ValidationError(f"HISTORIES_LAB_THREADS must be an integer, got {raw!r}") from None
    else:
        requested = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(SWEEP_WORKER_CAP, requested or 1))


def _evaluate_slice(scenario: str, points: list[dict]) -> list[dict]:
    """``evaluate_sweep_point`` over contiguous points, each carrying its
    certificate to the next."""
    carry = Carry()
    return [evaluate_sweep_point(scenario, point, carry) for point in points]


def _fork_slice(scenario: str, points: list[dict]) -> tuple[int, io.BufferedReader]:
    """Fork a child that pickles the rows of ``_evaluate_slice``, or its
    first error, into a pipe and exits; return its pid and the pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = _evaluate_slice(scenario, points)
            except Exception as exc:
                payload = exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
        finally:
            os._exit(0)  # never return into the parent's stack
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _slice_rows(worker: int, pipe: io.BufferedReader) -> list[dict]:
    """The rows a child sent, or the error it sent raised here."""
    try:
        payload = pickle.loads(pipe.read())
    except (EOFError, pickle.UnpicklingError):
        raise HistoriesLabError(f"sweep worker {worker} exited without a result") from None
    if isinstance(payload, Exception):
        raise payload
    return payload


def _evaluate_grid(scenario: str, points: list[dict]) -> list[dict]:
    """``_evaluate_slice`` over ``_sweep_threads()`` equal contiguous slices, in grid order.

    This process evaluates the first slice and each later slice runs in a
    forked child.  Children are read in slice order, so rows come back in
    grid order and a failing grid raises its first failing point's error,
    as a serial loop does.  Every child is killed and reaped before this
    returns or raises.  With one worker, or without ``os.fork``, nothing is
    forked.
    """
    workers = min(_sweep_threads(), len(points))
    if workers == 1 or not hasattr(os, "fork"):
        return _evaluate_slice(scenario, points)
    edges = [len(points) * k // workers for k in range(workers + 1)]
    children = []
    try:
        for k in range(1, workers):
            children.append(_fork_slice(scenario, points[edges[k]:edges[k + 1]]))
        rows = _evaluate_slice(scenario, points[:edges[1]])
        for worker, (_, pipe) in enumerate(children, 1):
            rows += _slice_rows(worker, pipe)
        return rows
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def cmd_sweep(args) -> int:
    if not args.param:
        raise ValidationError("sweep needs at least one --param with a matching --range")
    if len(args.param) != len(args.ranges):
        raise ValidationError("each --param needs exactly one matching --range")
    if len(set(args.param)) != len(args.param):
        raise ValidationError("sweep parameters must be distinct")
    grids = _grids(args.ranges)
    # validate parameter names against the scenario before launching the grid
    build_scenario(args.scenario, {name: float(g[0]) for name, g in zip(args.param, grids)})

    # row-major: the last parameter varies fastest
    points = [
        {name: float(grids[k][combo[k]]) for k, name in enumerate(args.param)}
        for combo in itertools.product(*(range(len(g)) for g in grids))
    ]

    rows = _evaluate_grid(args.scenario, points)

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
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "verify":
            return cmd_verify(args)
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
