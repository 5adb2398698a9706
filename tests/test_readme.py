"""The README's library quick start runs and prints what its comments say, and
its tolerance table gives the values in the code."""

import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

from histories_lab import unify

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_prints_its_documented_output():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["[1. 0.]", "True"]
    assert len(lines) == 3 and lines[2].startswith("feasible ")


def _ledger() -> list[tuple[str, str]]:
    """``(name, value)`` of each row of the README's tolerance table."""
    text = README.read_text()
    rows = text[text.index("| Tolerance |"):].split("\n\n")[0].splitlines()[2:]
    return [tuple(cell.strip().strip("`") for cell in row.split("|")[1:3]) for row in rows]


def test_the_tolerance_ledger_gives_each_value_in_the_code_and_the_unify_docstring():
    docstring = " ".join(unify.__doc__.split())
    rows = _ledger()
    assert len(rows) == 11
    for name, value in rows:
        module, attr = name.split(".")
        target = getattr(importlib.import_module(f"histories_lab.{module}"), attr)
        if callable(target):  # a literal in a function, unnamed
            assert f"< {value}" in inspect.getsource(target)
            assert f"{value}, unnamed, in ``{attr}``" in docstring
        else:
            assert target == float(value)
            assert f"``{name.removeprefix('unify.')}`` {value}" in docstring
