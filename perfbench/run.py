"""histories-lab benchmark: analyze, sweep and unify-batch workloads.

Run from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds with
tracing off.  ``--trace 1`` runs one fixed round of the workload untraced,
then twice traced, and reports the per-layer metrics of the first traced
round; the two traced rounds must produce identical counts.  Metric names
and units come from BENCHMARK.json at the repository root.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TRACED_ROUNDS = 2


def load_package():
    """Import histories_lab from this checkout's ``src``, never from elsewhere."""
    package_dir = SRC / "histories_lab"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found at {package_dir}")
    sys.path.insert(0, str(SRC))
    import histories_lab

    if Path(histories_lab.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"perfbench: imported histories_lab from {histories_lab.__file__}, "
                 f"expected {package_dir}")
    return histories_lab


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} not found")
    return json.loads(path.read_text())


def environment(package, seed: int, workload: str, trace: bool) -> dict:
    import numpy
    from histories_lab import cli

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": package.active_backend(),
        "sweep_threads": cli._sweep_threads(),
        "traced_sweep_threads": 1 if trace else None,
    }


def measure(workload, seconds: int) -> list:
    """Untraced run: set-up repeated, then whole rounds until ``seconds`` have passed."""
    from common import Metric, Samples, median, peak_rss_mb

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    samples = Samples()
    start = time.perf_counter()
    while True:
        workload.round(samples)
        if time.perf_counter() - start >= seconds:
            break
    workload.check()
    return ([Metric("setup_s", median(setup_times), "s", SETUP_REPEATS, "setup_s")]
            + workload.metrics(samples)
            + [Metric("peak_rss_mb", peak_rss_mb(), "MB", 1, "peak_rss_mb")])


def trace(workload, tally, trace_path: Path) -> dict[str, float]:
    """Traced run: per-layer self times and counts from one fixed round."""
    from common import Samples
    from spans import Tracer, empty_totals, layer_totals
    from workloads import TRACE_EXTRAS

    workload.setup()
    tracer = Tracer()
    rounds = []
    with workload.traced_context():
        reference = Samples()
        start = time.perf_counter()
        workload.round(reference)
        untraced_wall = time.perf_counter() - start
        tracer.install()
        try:
            for _ in range(TRACED_ROUNDS):
                tracer.reset()
                start = time.perf_counter()
                workload.round(Samples())
                wall = time.perf_counter() - start
                rounds.append((wall, layer_totals(tracer.spans), dict(tracer.counters)))
                if len(rounds) == 1:
                    trace_path.parent.mkdir(exist_ok=True)
                    tracer.write(trace_path)
        finally:
            tracer.uninstall()
    extras = workload.trace_extras(reference)
    workload.check()

    counts = [({k: v for k, v in totals.items() if k.endswith(".calls")}, counters)
              for _, totals, counters in rounds]
    if any(c != counts[0] for c in counts[1:]):
        tally.problems.append("exact counts differ between traced rounds of the same seed")

    values = empty_totals()
    values.update({name: 0.0 for name in TRACE_EXTRAS})
    _, totals, counters = rounds[0]
    values.update(totals)
    values.update(counters)
    values.update(extras)
    values["trace.overhead_ratio"] = statistics.mean(w for w, _, _ in rounds) / untraced_wall
    return values


def run_workload(name: str, seed: int, seconds: int, traced: bool, spec: dict, package):
    from common import Tally
    from workloads import WORKLOADS

    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        workload = WORKLOADS[name](seed, workdir, tally)
        print(f"# histories-lab benchmark: workload={name} seed={seed} "
              f"seconds={seconds} trace={int(traced)}")
        print("env " + json.dumps(environment(package, seed, name, traced)))
        if traced:
            trace_path = ROOT / ".perfbench-traces" / f"{name}-seed{seed}.jsonl"
            values = trace(workload, tally, trace_path)
            wanted = spec["per_layer"]
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics = measure(workload, seconds)
            for m in metrics:
                alias = f"  [{m.key}]" if m.key and m.key != m.name else ""
                print(f"{m.name:<42} {m.value:14.6f} {m.unit:<6} (n={m.n}){alias}")
            values = {m.key: m.value for m in metrics if m.key}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        sys.exit(f"perfbench: {name} produced no value for {', '.join(missing)}")
    result = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}
    if traced:
        for key, entry in result.items():
            print(f"{key:<54} {entry['value']:16.6f} {entry['unit']}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    known = "".join(f"; known: {what} x{n}" for what, n in tally.known_failures.items())
    print(f"{'failed_ratio':<42} {ratio:14.6f} ratio  "
          f"(failed {tally.failed} of attempted {tally.attempted}{known})")
    for note in workload.notes():
        print(f"note: {note}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    return tally, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="histories-lab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("analyze", "sweep", "unify-batch", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = load_package()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        tally, result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, package)
        correct = correct and tally.correct
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + key: entry for key, entry in result.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
