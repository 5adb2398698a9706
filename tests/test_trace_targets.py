"""The benchmark reads package functions, attributes and report fields by name.

``perfbench/spans.py`` resolves every ``(module, attribute)`` in ``TRACED``
with ``getattr``, wraps a traced class's own ``__post_init__`` and counts
histories built as the ``len`` of what ``histories.build_class_operators``
returns; ``perfbench/run.py`` records ``cli._sweep_threads()`` and
``histories_lab.active_backend()``; ``perfbench/workloads.py`` reads the
inequality checks through ``unify.bell_check``/``unify.chsh_check`` and the
report's ``bell``/``chsh`` blocks.  A rename in the package would break the
benchmark without any other test noticing, so these checks pin the names.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import histories_lab
from histories_lab import analysis, cli, histories, operators, scenarios, unify

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.TRACED
    for module_name, attr in spans.TRACED:
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        owner_name, _, method = attr.partition(".")
        owner = getattr(module, owner_name)
        if isinstance(owner, type):
            # a bare class name means the class's own __post_init__
            assert (method or "__post_init__") in owner.__dict__, (module_name, attr)
        else:
            assert callable(owner) and not method, (module_name, attr)


def test_histories_built_counts_one_per_label():
    # spans.py counts histories.histories_built as len(build_class_operators(schedule))
    z = operators.Projector(np.diag([1.0, 0.0])), operators.Projector(np.diag([0.0, 1.0]))
    for times in ((0.0,), (0.0, 1.0, 2.0)):
        schedule = histories.HistorySchedule(
            tuple(histories.Slot(t, z, (1, -1)) for t in times), np.zeros((2, 2)))
        assert len(histories.build_class_operators(schedule)) == schedule.label_count()


def test_sweep_thread_count_is_exposed():
    assert callable(cli._sweep_threads)
    assert cli._sweep_threads() >= 1


def test_backend_name_is_exposed():
    assert isinstance(histories_lab.active_backend(), str)


def _correlations(descriptor, names):
    return unify.correlations_from_marginals(
        [unify.extract_marginals(descriptor.build(n), descriptor.set_named(n).mapping)
         for n in names])


def test_inequality_check_names_and_fields():
    bell = unify.bell_check(_correlations(scenarios.build_scenario("leggett_garg"),
                                          ("pair_12", "pair_23", "pair_13")))
    assert isinstance(bell.slack, float) and isinstance(bell.satisfied, bool)
    chsh = unify.chsh_check(_correlations(scenarios.build_scenario("eprb"),
                                          ("pair_13", "pair_14", "pair_23", "pair_24")))
    assert isinstance(chsh.max_value, float) and isinstance(chsh.satisfied, bool)


def test_report_inequality_fields():
    bell = analysis.analyze(scenarios.build_scenario("leggett_garg"))["unification"]["bell"]
    assert {"slack", "satisfied"} <= set(bell)
    chsh = analysis.analyze(scenarios.build_scenario("eprb"))["unification"]["chsh"]
    assert {"max_value", "satisfied"} <= set(chsh)


def test_the_tracer_sees_the_solver_under_analyze():
    # every phase 1 runs in solve_lp_float or solve_lp_exact, so a traced analyze counts them
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for exact in (False, True):
            analysis.analyze(scenarios.build_scenario("eprb"), analysis.AnalysisOptions(exact=exact))
    finally:
        tracer.uninstall()
    totals = {**spans.empty_totals(), **spans.layer_totals(tracer.spans), **tracer.counters}
    assert totals["simplex.solve_lp_float.calls"] >= 1
    assert totals["simplex.solve_lp_exact.calls"] >= 1
    assert totals["simplex.tableau_cells"] > 0
