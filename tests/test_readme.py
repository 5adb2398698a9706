"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_prints_its_documented_output():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["[1. 0.]", "True"]
    assert len(lines) == 3 and lines[2].startswith("feasible ")
