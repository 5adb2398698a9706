"""Classification of history sets on the hierarchy of classicality conditions.

The hierarchy, strongest first: decoherent (all off-diagonal interference
vanishes), consistent (real parts vanish), partially decoherent (each history
has zero interference with its own negation, i.e. quasi-probability equals
probability), linearly positive (all quasi-probabilities non-negative).
Also detects "zero cover" pathologies: coarse-grainings of individually
likely histories whose union has zero measure.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .histories import HistorySet, Label, decoherence_functional

DEFAULT_CLASSIFY_TOL = 1e-10
DEFAULT_ZERO_COVER_THRESHOLD = 1e-9
AUTO_ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class ClassicalityReport:
    """Flags and diagnostics from one classification run.

    The flags are cascaded (each implies the next weaker one by construction),
    so a report can never invert the hierarchy even when a diagnostic sits at
    a tolerance boundary.
    """

    decoherent: bool
    consistent: bool
    partially_decoherent: bool
    linearly_positive: bool
    max_offdiag_abs: float
    max_offdiag_re: float
    min_quasi: float
    max_prob_quasi_gap: float
    tolerance_used: float

    def __post_init__(self):
        ok = (
            (not self.decoherent or self.consistent)
            and (not self.consistent or self.partially_decoherent)
            and (not self.partially_decoherent or self.linearly_positive)
        )
        if not ok:
            raise AssertionError("classicality flags violate the hierarchy")


def classify(hset: HistorySet, tol: float = DEFAULT_CLASSIFY_TOL) -> ClassicalityReport:
    """Classify a history set at an absolute tolerance.

    Enlarging ``tol`` can only turn flags on, never off.  The diagnostics
    depend only on the set, which computes them once; a call compares them
    with ``tol`` (``classify_diagnostics``).
    """
    return classify_diagnostics(hset.classicality_diagnostics, tol)


def classify_diagnostics(diagnostics, tol: float = DEFAULT_CLASSIFY_TOL) -> ClassicalityReport:
    """The report of one set's four classicality diagnostics, a row of
    ``histories.classicality_stack`` as Python floats, at an absolute tolerance."""
    max_abs_off, max_re_off, min_q, max_gap = diagnostics

    decoherent = max_abs_off <= tol
    consistent = max_re_off <= tol or decoherent
    partially_decoherent = max_gap <= tol or consistent
    linearly_positive = min_q >= -tol or partially_decoherent

    return ClassicalityReport(
        decoherent=decoherent,
        consistent=consistent,
        partially_decoherent=partially_decoherent,
        linearly_positive=linearly_positive,
        max_offdiag_abs=max_abs_off,
        max_offdiag_re=max_re_off,
        min_quasi=min_q,
        max_prob_quasi_gap=max_gap,
        tolerance_used=tol,
    )


@dataclass(frozen=True)
class ZeroCoverReport:
    """Result of searching coarse-grainings for a zero-measure union.

    ``witness`` lists the labels of histories that each carry measure above
    the threshold while their union does not.  ``evaluated`` is False when the
    subset enumeration was skipped because it would be too large; that state
    is distinct from ``preclusive`` (which asserts the search ran and found
    nothing).
    """

    found: bool
    witness: tuple[Label, ...] | None
    preclusive: bool
    evaluated: bool
    threshold_used: float


def detect_zero_cover(hset: HistorySet) -> ZeroCoverReport:
    """Search unions of two or more histories of a set for a zero cover:
    ``zero_cover`` of its labels and its decoherence functional, which the
    set computes once."""
    return zero_cover(hset.labels, decoherence_functional(hset).entries)


@functools.cache
def _subsets(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ``size``-subset of ``range(n)`` in lexicographic order, as rows of
    indices and as the complex matrix of their indicator rows, both read-only."""
    subsets = np.array(list(itertools.combinations(range(n), size)))
    # S is complex, like D, so the product runs on the complex BLAS kernel
    # an analysis has already loaded; a real one paged in 0.25 MB more.
    indicator = np.zeros((len(subsets), n), dtype=complex)
    np.put_along_axis(indicator, subsets, 1.0, axis=1)
    subsets.setflags(write=False)
    indicator.setflags(write=False)
    return subsets, indicator


def zero_cover(labels: tuple, entries: np.ndarray) -> ZeroCoverReport:
    """Search unions of two or more histories for a zero cover, given the
    labels and the ``(n, n)`` decoherence functional of one set.

    A union's measure is the bilinear sum of decoherence-functional entries
    over its members, which equals the measure of the summed class operator;
    a member or union counts as zero at ``DEFAULT_ZERO_COVER_THRESHOLD``.
    The search runs over every subset size for sets of at most
    ``AUTO_ENUMERATION_LIMIT`` histories, smallest first, and stops at the
    first size with a hit; larger sets come back not-evaluated.  The reported
    witness is the smallest one; ties are broken by the lexicographically
    smallest complement, i.e. the coarsest negation.  The unions of one size
    are measured together, by one product with the matrix of their indicator
    rows, which is built once per ``(n, size)``; a union counts only when
    every member carries measure above the threshold.
    """
    threshold = DEFAULT_ZERO_COVER_THRESHOLD
    n = len(labels)
    if n > AUTO_ENUMERATION_LIMIT:
        return ZeroCoverReport(found=False, witness=None, preclusive=False,
                               evaluated=False, threshold_used=threshold)

    live = entries.diagonal().real > threshold
    best = None
    for size in range(2, int(live.sum()) + 1):
        subsets, indicator = _subsets(n, size)
        # row r of S marks subset r; Re diag(S D S^T) is every union's measure
        unions = ((indicator @ entries) * indicator).sum(axis=1).real
        hits = subsets[(unions <= threshold) & live[subsets].all(axis=1)].tolist()
        if hits:
            best = min(hits, key=lambda subset: ([i for i in range(n) if i not in subset], subset))
            break

    if best is None:
        return ZeroCoverReport(found=False, witness=None, preclusive=True,
                               evaluated=True, threshold_used=threshold)
    witness = tuple(labels[i] for i in best)
    return ZeroCoverReport(found=True, witness=witness, preclusive=False,
                           evaluated=True, threshold_used=threshold)
