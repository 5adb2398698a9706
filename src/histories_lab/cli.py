"""Command-line front end: scenario analysis, report verification and parameter sweeps.

Exit codes: 0 success, 2 user or validation error, 3 internal numeric
failure (for ``verify``: stored evidence that does not check out).
Reports are deterministic: identical inputs and flags produce
byte-identical output.  ``sweep`` evaluates its row-major grid in this
process, ``SWEEP_CHUNK`` contiguous points at a time, each chunk as one
stacked computation with a leading grid axis (``scenarios.ScenarioGrid``).
A point is refused, before its chunk's physics, only by the parameter
rules that refuse a built-in's one point; nothing checks what the physics
derives from checked parameters.  Each infeasible point offers its Farkas
certificate to the points after it, across chunks, and a point reports it
only after checking it against its own constraint system: one product
checks it against a chunk's remaining points, and the first point it does
not refute solves its own LP.  Each chunk is written as one ``writerows``
over its columns.  A grid of more than ``SWEEP_POINT_CAP`` points is
refused before it is built.
``HISTORIES_LAB_THREADS`` is ignored.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import AnalysisOptions, analyze, report_to_json, reverify
from .classicality import DEFAULT_CLASSIFY_TOL
from .config import load_json, parse_config
from .errors import ConfigValidationError, HistoriesLabError, NumericError, ValidationError
from .histories import decoherence_stack, interference_maxima
from .scenarios import _GRID_BUILDERS, SCENARIO_NAMES, build_scenario, scenario_grid
from .unify import (
    DEFAULT_DELTA,
    band_test,
    build_constraint_system,
    cycle_values,
    find_unifying_probability,
    pair_correlations,
    stacked_rhs,
)

SWEEPABLE = tuple(_GRID_BUILDERS)
SWEEP_POINT_CAP = 10**6
SWEEP_CHUNK = 256  # grid points stacked at once, so memory does not grow with the grid


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
                    help="grid for the matching --param (repeatable); a range that "
                         "starts with '-' needs the '=' form, --range=-1:1:3")
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
    """Write ``text`` to stdout or ``out``; a regular file is rewritten in place and
    cut to length, cheaper than truncating it first, and anything else just written."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(text.encode())
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc.strerror or exc}") from None


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
    """What a grid point hands the points after it: the Farkas certificate
    of an infeasible point, or ``None`` after a feasible one."""

    certificate: list | None = None


def evaluate_sweep_point(scenario: str, params: dict, carry: Carry | None = None) -> dict:
    """One grid point: combined-set consistency, max inequality value, LP feasibility.

    The pair correlations of both scenarios go around a cycle, so the
    inequality value is the largest left-hand side of the n-cycle family
    (``unify.cycle_check``): the eight CHSH combinations, bound 2, for eprb
    and the four three-time Leggett-Garg combinations, bound 1, for
    leggett_garg.  ``carry`` offers the previous point's certificate, which
    is reported only if it verifies against this point's own constraint
    system, and keeps this point's certificate for the next point.  A stack
    of one ``_evaluate_points`` point.
    """
    columns = {name: np.array([value]) for name, value in params.items()}
    combined, maxima, feasible = _evaluate_points(scenario, columns, 1,
                                                  Carry() if carry is None else carry)
    return {"combined_consistent": int(combined[0]), "max_combination": float(maxima[0]),
            "feasible": int(feasible[0])}


def _evaluate_points(scenario: str, params: dict, size: int,
                     carry: Carry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``evaluate_sweep_point`` columns of ``size`` contiguous grid points,
    ``params`` holding each swept parameter as a ``(size,)`` array: the
    combined-consistency flags (int), the max combinations (float) and the
    feasible bits (int), each of shape ``(size,)``.

    The physics, tables and correlations are stacks.  ``ScenarioGrid.check``
    refuses the first point its grid's rules refuse, before any physics is
    computed.  What the physics derives from checked parameters is valid by
    construction.  Only the right-hand side of the constraint system moves,
    so the points are settled in runs: the carried certificate is tested
    against every remaining point's right-hand side at once (``band_test``
    on a stack), the run of points it refutes is infeasible, and the first
    point it does not refute builds its tables and asks
    ``find_unifying_probability``, whose verdict's certificate, or
    ``None``, is carried on from there.  The pair tables of both scenarios
    form one cycle, so an infeasible point's own violated Bell, CHSH or
    Leggett-Garg inequality refutes it before any LP, and that inequality
    is what it carries: the README ``eprb`` sweep solves no LP and the
    README ``leggett_garg`` sweep 3.
    """
    grid = scenario_grid(scenario, params)
    grid.check()
    pairs = []  # (mapping, labels, (size, n) probabilities) of each pair set, in set order
    for name in grid.slots:
        entries = decoherence_stack(grid.class_operators(name), grid.fixed.initial.matrix)
        if name == "combined":
            combined = np.broadcast_to(  # classify's consistency
                np.min(interference_maxima(entries), axis=0) <= DEFAULT_CLASSIFY_TOL, (size,))
            continue
        p = np.broadcast_to(entries.diagonal(axis1=1, axis2=2).real, (size, entries.shape[1]))
        pairs.append((grid.fixed.mappings[name], grid.labels(name), p))
    correlations = np.stack([pair_correlations([tuple((o,) for o in label) for label in labels], p)
                             for _, labels, p in pairs], axis=1)
    # CorrelationSet order: the pairs sorted by their sorted variable names
    order = sorted(range(len(pairs)), key=lambda k: sorted(v.name for v in pairs[k][0].variables))
    values = cycle_values(correlations[:, order])
    maxima = values[:, 0]
    for column in values.T[1:]:
        maxima = np.where(column > maxima, column, maxima)  # max() keeps the first of equal values
    rhs = stacked_rhs(np.concatenate([p for *_, p in pairs], axis=1))

    def tables(g: int) -> list:
        return [mapping.marginal_table(dict(zip(labels, p[g].tolist()))) for mapping, labels, p in pairs]

    space = grid.fixed.space
    feasible = np.zeros(size, dtype=int)  # a refuted point is infeasible
    system = None
    g = 0
    while g < size:
        if carry.certificate is not None:
            system = system or build_constraint_system(space, tables(g))
            refutes = band_test(system.matrix, carry.certificate, DEFAULT_DELTA)
            if refutes is not None:
                refuted = refutes(rhs[g:])
                g += len(refuted) if refuted.all() else int(refuted.argmin())  # to the first miss
                if g == size:
                    break
        carry.certificate = find_unifying_probability(space, tables(g)).farkas_certificate
        feasible[g] = carry.certificate is None  # only infeasible verdicts carry one
        g += 1
    return combined.astype(int), maxima, feasible


def _sweep_threads() -> int:
    """Processes a sweep uses: always this one.  Kept for the benchmark, which records it."""
    return 1


def cmd_sweep(args) -> int:
    if not args.param:
        raise ValidationError("sweep needs at least one --param with a matching --range")
    if len(args.param) != len(args.ranges):
        raise ValidationError("each --param needs exactly one matching --range")
    if len(set(args.param)) != len(args.param):
        raise ValidationError("sweep parameters must be distinct")
    grids = _grids(args.ranges)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(args.param) + ["combined_consistent", "max_combination", "feasible"])
    points = itertools.product(*(g.tolist() for g in grids))  # row-major: the last varies fastest
    carry = Carry()
    while chunk := list(itertools.islice(points, SWEEP_CHUNK)):
        columns = dict(zip(args.param, np.array(chunk).T))
        combined, maxima, feasible = _evaluate_points(args.scenario, columns, len(chunk), carry)
        # tolist gives Python floats, which csv writes by their repr (a numpy float's repr differs)
        writer.writerows(zip(*zip(*chunk), combined.tolist(), maxima.tolist(), feasible.tolist()))
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
