"""Consistent-histories probability calculus and unifying-probability search.

Build class operators from time-ordered projective decompositions, compute
decoherence functionals and (quasi-)probabilities with optional
post-selection, classify history sets on the classicality hierarchy, detect
zero covers, and decide by LP feasibility whether incompatible consistent
sets admit one unifying probability.  For dichotomic pair correlations around
an n-cycle, one family of inequalities (Bell and Leggett-Garg for three
variables, CHSH for four) is an analytic cross-check.
"""

from ._kernels import active_backend
from .analysis import AnalysisOptions, analyze, report_to_json, reverify
from .classicality import (
    ClassicalityReport,
    ZeroCoverReport,
    classify,
    detect_zero_cover,
)
from .config import parse_config, scenario_to_config
from .errors import (
    ConfigValidationError,
    DegeneratePostSelectionError,
    HistoriesLabError,
    HistoryCountError,
    InconsistentSetError,
    NumericError,
    ValidationError,
)
from .histories import (
    ClassOperator,
    DecoherenceFunctional,
    HistorySchedule,
    HistorySet,
    Slot,
    build_class_operators,
    coarse_measure,
    decoherence_functional,
    history_probabilities,
    history_probability,
    history_set,
    negate,
    negation_interference,
    quasi_probabilities,
)
from .operators import (
    DensityOperator,
    Projector,
    bloch_projector,
    heisenberg_projector,
    ket,
    projector_onto,
    propagator,
    validate_projective_decomposition,
)
from .scenarios import (
    ScenarioDescriptor,
    ScenarioSet,
    build_scenario,
    eprb,
    eprb_planar,
    griffiths_spin,
    leggett_garg,
    three_box,
)
from .simplex import LPResult, solve_lp, solve_lp_exact, solve_lp_float, verify_certificate
from .unify import (
    CorrelationSet,
    CycleCheck,
    FeasibilityVerdict,
    JointSampleSpace,
    MarginalTable,
    QuasiClassification,
    Variable,
    VariableMapping,
    build_constraint_system,
    classify_quasiprobability,
    correlations_from_marginals,
    cycle_check,
    extract_marginals,
    find_unifying_probability,
    pair_correlation,
    probe_uniqueness,
    product_unify,
    verify_witness,
)

__version__ = "0.1.0"
