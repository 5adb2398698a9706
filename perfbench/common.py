"""Shared pieces of the benchmark workloads: tallies, samples and metrics."""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Tally:
    """Attempted and failed operations; every output mismatch is a failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    known_failures: dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def mismatch(self, message: str) -> None:
        """An operation whose output failed a check; makes the run incorrect."""
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def known_failure(self, what: str) -> None:
        """An operation that fails today for a documented reason; counted, not hidden."""
        self.attempted += 1
        self.failed += 1
        self.known_failures[what] = self.known_failures.get(what, 0) + 1

    @property
    def correct(self) -> bool:
        return not self.problems


class Outputs:
    """The first output of each case, for byte-identity checks across repetitions."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.first: dict[str, bytes] = {}
        self.runs: dict[str, int] = {}

    def record(self, case: str, code: int, path: str) -> None:
        if code != 0:
            self.tally.mismatch(f"{case} exited {code}")
            return
        with open(path, "rb") as fh:
            data = fh.read()
        self.runs[case] = self.runs.get(case, 0) + 1
        if data != self.first.setdefault(case, data):
            self.tally.mismatch(f"{case}: output differs from its first run")
        else:
            self.tally.ok()

    def reject(self, case: str, problem: str) -> None:
        """A check on the first output failed, so every run of the case failed."""
        self.tally.problems.append(f"{case}: {problem}")
        self.tally.failed += self.runs[case]


class Samples(defaultdict):
    """Named lists of timings and rates collected by the timed loop."""

    def __init__(self):
        super().__init__(list)


@dataclass(frozen=True)
class Metric:
    name: str          # the name printed for people
    value: float
    unit: str
    n: int             # samples behind the value
    key: str | None = None  # the BENCHMARK.json end-to-end name it is reported under


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def timing_metrics(name: str, values_s: list[float], key: str | None = None,
                   with_p90: bool = False) -> list[Metric]:
    """Median (and p90) of durations in seconds, reported in ms.

    With ``key``, the fastest duration is also reported under that
    BENCHMARK.json name as ``<name>.best``.
    """
    ms = [1e3 * v for v in values_s]
    out = [Metric(f"{name}.p50", median(ms), "ms", len(ms))]
    if with_p90:
        out.append(Metric(f"{name}.p90", p90(ms), "ms", len(ms)))
    if key is not None:
        out.append(Metric(f"{name}.best", min(ms), "ms", len(ms), key))
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
