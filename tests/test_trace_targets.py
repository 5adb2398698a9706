"""The benchmark's span tracer names package functions and classes by string.

``perfbench/spans.py`` resolves every ``(module, attribute)`` in ``TRACED``
with ``getattr`` and wraps a traced class's own ``__post_init__``, and
``perfbench/run.py`` records ``cli._sweep_threads()``.  A rename in the
package would break ``--trace 1`` or the run's environment line without any
other test noticing, so these checks pin the names.
"""

import importlib
import importlib.util
from pathlib import Path

from histories_lab import cli

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


def test_sweep_thread_count_is_exposed():
    assert callable(cli._sweep_threads)
    assert cli._sweep_threads() >= 1
