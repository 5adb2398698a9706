"""The three benchmark workloads: analyze, sweep and unify-batch.

Each workload is a closed loop with one client.  ``setup`` builds every
input the loop needs and may be called more than once; ``round`` runs one
fixed unit of work and appends per-operation timings to a ``Samples``;
``check`` verifies outputs after the timed loop.  Every operation goes
through the package's public entry points, looked up as module attributes
at call time so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from histories_lab import analysis, cli, config, scenarios, unify
from histories_lab.errors import NumericError

from common import Metric, Outputs, Samples, Tally, median, timing_metrics


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

FLOAT_CASES = tuple((name, "float") for name in scenarios.SCENARIO_NAMES) + (("eprb", "config"),)
EXACT_CASES = (("griffiths_spin", "exact"), ("three_box", "exact"), ("eprb", "exact"))
# exits 2 today: MarginalTable.as_exact snaps values so they no longer sum to 1
KNOWN_FAILING_CASE = ("leggett_garg", "exact")
FLOAT_PASSES_PER_ROUND = 4
BOUNDARY = 1e-8


def _case_name(case) -> str:
    return f"{case[0]}.{case[1]}"


class Analyze:
    """``cli.main(["analyze", ...])`` on every built-in scenario, float and exact.

    A round is four float passes (the four scenarios plus the eprb config),
    one exact pass (griffiths_spin, three_box, eprb) and one attempt at
    ``leggett_garg --exact``, which is counted but kept out of the pass times.
    """

    name = "analyze"

    def __init__(self, seed: int, workdir, tally: Tally):
        rng = random.Random(seed)
        self.float_cases = list(FLOAT_CASES)
        self.exact_cases = list(EXACT_CASES)
        rng.shuffle(self.float_cases)
        rng.shuffle(self.exact_cases)
        self.workdir = workdir
        self.config_path = workdir / "eprb_config.json"
        self.tally = tally
        self.outputs = Outputs(tally)
        self.known_message = ""

    def _argv(self, case) -> list[str]:
        name, mode = case
        source = ["--config", str(self.config_path)] if mode == "config" else ["--scenario", name]
        exact = ["--exact"] if mode == "exact" else []
        out = str(self.workdir / f"{_case_name(case)}.json")
        return ["analyze", *source, *exact, "--out", out]

    def setup(self) -> None:
        doc = config.scenario_to_config(scenarios.build_scenario("eprb"))
        self.config_path.write_text(json.dumps(doc))
        config.parse_config(str(self.config_path))
        # one float pass so lazy imports and caches settle before timing
        for case in self.float_cases:
            cli.main(self._argv(case))

    def _run(self, case, samples: Samples) -> float:
        argv = self._argv(case)
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        samples[f"case.{_case_name(case)}"].append(elapsed)
        self.outputs.record(_case_name(case), code, argv[-1])
        return elapsed

    def _run_known_failing(self) -> None:
        argv = self._argv(KNOWN_FAILING_CASE)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code == 2:
            self.known_message = err.getvalue().strip().splitlines()[0] if err.getvalue() else ""
            self.tally.known_failure("analyze leggett_garg --exact exits 2")
        else:
            self.outputs.record(_case_name(KNOWN_FAILING_CASE), code, argv[-1])

    def round(self, samples: Samples) -> None:
        for _ in range(FLOAT_PASSES_PER_ROUND):
            samples["float_pass"].append(sum(self._run(c, samples) for c in self.float_cases))
        samples["exact_pass"].append(sum(self._run(c, samples) for c in self.exact_cases))
        self._run_known_failing()

    def check(self) -> None:
        for case, data in self.outputs.first.items():
            problem = self._check_report(case, json.loads(data))
            if problem:
                self.outputs.reject(case, problem)

    @staticmethod
    def _check_report(case: str, report: dict) -> str | None:
        try:
            analysis.reverify(report)
        except NumericError as exc:
            return f"reverify failed: {exc}"
        unification = report["unification"]
        verdict = unification["verdict"]
        name, mode = case.split(".")
        if verdict["mode"] != ("exact" if mode == "exact" else "float"):
            return f"verdict mode is {verdict['mode']}"
        bell, chsh = unification["bell"], unification["chsh"]
        if bell is not None and abs(bell["slack"]) >= BOUNDARY \
                and bell["satisfied"] != (verdict["status"] == "feasible"):
            return "verdict disagrees with the Bell check"
        if chsh is not None and abs(2.0 - chsh["max_value"]) >= BOUNDARY \
                and chsh["satisfied"] != (verdict["status"] == "feasible"):
            return "verdict disagrees with the CHSH check"
        if name == "griffiths_spin":
            witness = {tuple(cell): analysis.decode_value(v) for cell, v in verdict["witness"] or []}
            plus_up = witness.get((1, 1))
            good = plus_up == Fraction(1) if mode == "exact" else \
                plus_up is not None and abs(plus_up - 1.0) <= 2e-9
            if verdict["status"] != "feasible" or not good:
                return f"expected feasible with witness(+x, up) = 1, got {verdict['status']} {plus_up!r}"
        elif name == "three_box":
            if verdict["status"] != "infeasible" or verdict["farkas_certificate"] is None:
                return f"expected infeasible with a certificate, got {verdict['status']}"
        elif name == "eprb":
            if verdict["status"] != "feasible" or verdict["unique"] is not True:
                return f"expected feasible and unique, got {verdict['status']} unique={verdict['unique']}"
        return None

    def metrics(self, samples: Samples) -> list[Metric]:
        return (timing_metrics("analyze.float_pass_ms", samples["float_pass"], "primary_ms.best", True)
                + timing_metrics("analyze.exact_pass_ms", samples["exact_pass"], "secondary_ms.best")
                + self._case_metrics(samples))

    def _case_metrics(self, samples: Samples) -> list[Metric]:
        return [Metric(f"analyze.case_ms.{_case_name(case)}",
                       1e3 * median(samples[f"case.{_case_name(case)}"]), "ms",
                       len(samples[f"case.{_case_name(case)}"]))
                for case in FLOAT_CASES + EXACT_CASES]

    def notes(self) -> list[str]:
        if not self.known_message:
            return []
        return [f"known failure, counted in failed: leggett_garg --exact: {self.known_message}"]

    def traced_context(self):
        return contextlib.nullcontext()

    def trace_extras(self, reference: Samples) -> dict[str, float]:
        return {m.name: m.value for m in self._case_metrics(reference)}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEPS = (("leggett_garg", "omega", "0:3.14159:181"), ("eprb", "theta4", "2:2.8:41"))


def _grid(spec: str) -> list[float]:
    lo, hi, steps = spec.split(":")
    return [float(v) for v in np.linspace(float(lo), float(hi), int(steps))]


class Sweep:
    """The two README sweeps through ``cli.main`` at the default thread count.

    Set-up computes the expected CSV of each sweep with a serial
    ``evaluate_sweep_point`` loop.  A round runs both sweeps once, in an
    order drawn from the seed.
    """

    name = "sweep"

    def __init__(self, seed: int, workdir, tally: Tally):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.outputs = Outputs(tally)
        self.expected: dict[str, str] = {}
        self.serial_walls: list[float] = []

    def _argv(self, sweep) -> list[str]:
        scenario, param, spec = sweep
        return ["sweep", "--scenario", scenario, "--param", param, "--range", spec,
                "--out", str(self.workdir / f"sweep_{scenario}.csv")]

    def setup(self) -> None:
        start = time.perf_counter()
        for scenario, param, spec in SWEEPS:
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow([param, "combined_consistent", "max_combination", "feasible"])
            for value in _grid(spec):
                row = cli.evaluate_sweep_point(scenario, {param: value})
                writer.writerow([repr(value), row["combined_consistent"],
                                 repr(row["max_combination"]), row["feasible"]])
            self.expected[scenario] = buffer.getvalue()
        self.serial_walls.append(time.perf_counter() - start)

    def round(self, samples: Samples) -> None:
        order = list(SWEEPS)
        self.rng.shuffle(order)
        for sweep in order:
            argv = self._argv(sweep)
            start = time.perf_counter()
            code = cli.main(argv)
            samples[f"sweep.{sweep[0]}"].append(time.perf_counter() - start)
            self.outputs.record(sweep[0], code, argv[-1])

    def check(self) -> None:
        for scenario, data in self.outputs.first.items():
            if data.decode() != self.expected[scenario]:
                self.outputs.reject(scenario, "CSV differs from the serial evaluate_sweep_point rows")

    def metrics(self, samples: Samples) -> list[Metric]:
        lg, ep = samples["sweep.leggett_garg"], samples["sweep.eprb"]
        out = timing_metrics("sweep.leggett_garg_ms", lg, "primary_ms.best", True)
        out += timing_metrics("sweep.eprb_ms", ep, "secondary_ms.best")
        for (scenario, _, spec), times in zip(SWEEPS, (lg, ep)):
            points = len(_grid(spec))
            out.append(Metric(f"sweep.{scenario}_points_per_s", median(points / t for t in times),
                              "1/s", len(times)))
        threaded = median(a + b for a, b in zip(lg, ep))
        out.append(Metric("cli.sweep_pool_speedup", median(self.serial_walls) / threaded, "ratio",
                          len(lg)))
        return out

    def notes(self) -> list[str]:
        return []

    @contextlib.contextmanager
    def traced_context(self):
        """Traced sweeps run one pool thread, so no span includes waiting for the GIL."""
        saved = os.environ.get("HISTORIES_LAB_THREADS")
        os.environ["HISTORIES_LAB_THREADS"] = "1"
        try:
            yield
        finally:
            if saved is None:
                del os.environ["HISTORIES_LAB_THREADS"]
            else:
                os.environ["HISTORIES_LAB_THREADS"] = saved

    def trace_extras(self, reference: Samples) -> dict[str, float]:
        threaded = Samples()
        self.round(threaded)
        wall = sum(threaded["sweep.leggett_garg"]) + sum(threaded["sweep.eprb"])
        return {"cli.sweep_pool_speedup": median(self.serial_walls) / wall}


# ---------------------------------------------------------------------------
# unify-batch
# ---------------------------------------------------------------------------

SMALL_PER_FAMILY = 50
LARGE_PER_KIND = 24


@dataclass(frozen=True)
class System:
    kind: str                  # lg3, eprb4, joint5, corr5, joint6, corr6
    large: bool
    space: object
    tables: tuple
    expected: bool | None      # expected feasibility; None when no oracle applies


def _lg_system(rng) -> System:
    omega = float(rng.uniform(0.1, 6.0))
    times = np.sort(rng.uniform(0.0, 5.0, size=3))
    while np.min(np.diff(times)) < 1e-3:
        times = np.sort(rng.uniform(0.0, 5.0, size=3))
    desc = scenarios.leggett_garg(omega, *map(float, times))
    tables = tuple(unify.extract_marginals(desc.build(n), desc.set_named(n).mapping)
                   for n in ("pair_12", "pair_23", "pair_13"))
    check = unify.bell_check(unify.correlations_from_marginals(tables))
    expected = None if abs(check.slack) < BOUNDARY else check.satisfied
    return System("lg3", False, desc.space, tables, expected)


def _eprb_system(rng) -> System:
    axes = rng.normal(size=(4, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    desc = scenarios.eprb(*map(tuple, axes))
    tables = tuple(unify.extract_marginals(desc.build(n), desc.set_named(n).mapping)
                   for n in ("pair_13", "pair_14", "pair_23", "pair_24"))
    check = unify.chsh_check(unify.correlations_from_marginals(tables))
    expected = None if abs(2.0 - check.max_value) < BOUNDARY else check.satisfied
    return System("eprb4", False, desc.space, tables, expected)


def _pairwise_system(rng, n_vars: int, joint: bool) -> System:
    """Pairwise marginals over dichotomic variables.

    ``joint``: marginals of one random joint distribution, so feasible.
    Otherwise each pair gets an independent random correlation, which is
    mostly infeasible.
    """
    variables = [unify.Variable(f"v{k}", (1, -1)) for k in range(n_vars)]
    p = rng.dirichlet(np.ones(2 ** n_vars)).reshape((2,) * n_vars) if joint else None
    tables = []
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            if joint:
                pair = p.sum(axis=tuple(k for k in range(n_vars) if k not in (i, j)))
                values = {(s1, s2): float(pair[a, b])
                          for a, s1 in enumerate((1, -1)) for b, s2 in enumerate((1, -1))}
            else:
                c = float(rng.uniform(-1.0, 1.0))
                values = {(s1, s2): 0.25 * (1.0 + s1 * s2 * c) for s1 in (1, -1) for s2 in (1, -1)}
            tables.append(unify.MarginalTable((variables[i], variables[j]), values))
    kind = f"{'joint' if joint else 'corr'}{n_vars}"
    return System(kind, True, unify.JointSampleSpace(tuple(variables)), tuple(tables),
                  True if joint else None)


class UnifyBatch:
    """``unify.find_unifying_probability`` in float mode on tables built in set-up.

    Small class: the Fine-theorem families (Leggett-Garg with 3 variables,
    eprb with 4).  Large class: pairwise systems over 5 and 6 dichotomic
    variables, half from a random joint distribution and half from random
    correlations.  A round solves the whole batch once, in a seeded order.
    """

    name = "unify-batch"

    def __init__(self, seed: int, workdir, tally: Tally):
        self.seed = seed
        self.tally = tally
        self.systems: list[System] = []
        self.statuses: list[str | None] = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        systems = [_lg_system(rng) for _ in range(SMALL_PER_FAMILY)]
        systems += [_eprb_system(rng) for _ in range(SMALL_PER_FAMILY)]
        for n_vars in (5, 6):
            for joint in (True, False):
                systems += [_pairwise_system(rng, n_vars, joint) for _ in range(LARGE_PER_KIND)]
        random.Random(self.seed).shuffle(systems)
        self.systems = systems
        self.statuses = [None] * len(systems)

    def round(self, samples: Samples) -> None:
        spent = {True: 0.0, False: 0.0}
        for k, system in enumerate(self.systems):
            start = time.perf_counter()
            verdict = unify.find_unifying_probability(system.space, system.tables)
            elapsed = time.perf_counter() - start
            spent[system.large] += elapsed
            if system.large:
                samples["large"].append(elapsed)
            samples[f"system.{k}"].append(elapsed)
            samples[f"kind.{system.kind}"].append(elapsed)
            self._record(k, system, verdict.status)
        n_large = sum(s.large for s in self.systems)
        samples["large_per_s"].append(n_large / spent[True])
        samples["small_per_s"].append((len(self.systems) - n_large) / spent[False])

    def _record(self, k: int, system: System, status: str) -> None:
        first = self.statuses[k] = self.statuses[k] or status
        if status != first:
            self.tally.mismatch(f"{system.kind} system {k}: verdict changed from {first} to {status}")
        elif system.expected is not None and (status == "feasible") != system.expected:
            self.tally.mismatch(f"{system.kind} system {k}: {status}, oracle expects "
                                f"{'feasible' if system.expected else 'infeasible'}")
        else:
            self.tally.ok()

    def check(self) -> None:
        pass  # every verdict is checked as it arrives (see _record)

    def metrics(self, samples: Samples) -> list[Metric]:
        out = timing_metrics("unify.large_solve_ms", samples["large"], with_p90=True)
        for name in ("large", "small"):
            out.append(Metric(f"unify.{name}_lps_per_s", median(samples[f"{name}_per_s"]), "1/s",
                              len(samples[f"{name}_per_s"])))
        # The classes mix systems whose solve times differ several-fold, so the
        # steady per-class figure is each system's fastest solve, averaged.
        for name, key in (("large", "primary_ms.best"), ("small", "secondary_ms.best")):
            best = [min(samples[f"system.{k}"]) for k, s in enumerate(self.systems)
                    if s.large == (name == "large")]
            out.append(Metric(f"unify.{name}_ms_per_lp.best", 1e3 * sum(best) / len(best), "ms",
                              len(samples["large_per_s"]), key))
        return out + self._per_solve(samples)

    def _per_solve(self, samples: Samples) -> list[Metric]:
        out = []
        for n_vars in (5, 6):
            times = samples[f"kind.joint{n_vars}"] + samples[f"kind.corr{n_vars}"]
            out.append(Metric(f"unify.ms_per_solve.vars{n_vars}",
                              1e3 * sum(times) / len(times), "ms", len(times)))
        return out

    def notes(self) -> list[str]:
        feasible = self.statuses.count("feasible")
        by_kind: dict = {}
        for system, status in zip(self.systems, self.statuses):
            counts = by_kind.setdefault(system.kind, [0, 0])
            counts[status == "feasible"] += 1
        detail = ", ".join(f"{kind} {c[1]}/{sum(c)}" for kind, c in sorted(by_kind.items()))
        return [f"feasible systems: {feasible} of {len(self.systems)} ({detail})"]

    def traced_context(self):
        return contextlib.nullcontext()

    def trace_extras(self, reference: Samples) -> dict[str, float]:
        return {m.name: m.value for m in self._per_solve(reference)}


WORKLOADS = {w.name: w for w in (Analyze, Sweep, UnifyBatch)}

# per-layer metrics that are not span totals; zero on workloads that do not produce them
TRACE_EXTRAS = tuple(f"analyze.case_ms.{_case_name(c)}" for c in FLOAT_CASES + EXACT_CASES) + (
    "unify.ms_per_solve.vars5", "unify.ms_per_solve.vars6", "cli.sweep_pool_speedup")
