"""Reports are byte-identical to the committed goldens.

``golden/analyze_<scenario>[_exact].json`` are the ``analyze --scenario``
reports of the four built-in scenarios, in float and exact mode, and
``golden/config_eprb[_exact].json`` the ``analyze --config`` reports of
``scenario_to_config(build_scenario("eprb"))``.  A change that moves a byte
of a report must regenerate them on purpose, with the reason in CHANGES.md.
A golden is one line of JSON; ``python -m json.tool`` indents it.
"""

import json
from pathlib import Path

import pytest

from histories_lab.analysis import report_to_json
from histories_lab.cli import main
from histories_lab.config import scenario_to_config
from histories_lab.scenarios import SCENARIO_NAMES, build_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"
MODES = {"": [], "_exact": ["--exact"]}
GOLDEN_REPORTS = sorted(path.name for path in GOLDEN.glob("*.json"))


def _assert_matches_golden(out: Path, name: str) -> None:
    golden = GOLDEN / name
    # the values first, so that a mismatch prints a structured diff, not one long line
    assert json.loads(out.read_text()) == json.loads(golden.read_text())
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("suffix", MODES, ids=["float", "exact"])
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_analyze_reports_match_their_goldens(tmp_path, scenario, suffix):
    out = tmp_path / "report.json"
    assert main(["analyze", "--scenario", scenario, *MODES[suffix], "--out", str(out)]) == 0
    _assert_matches_golden(out, f"analyze_{scenario}{suffix}.json")


@pytest.mark.parametrize("suffix", MODES, ids=["float", "exact"])
def test_config_reports_match_their_goldens(tmp_path, suffix):
    config = tmp_path / "eprb.json"
    config.write_text(json.dumps(scenario_to_config(build_scenario("eprb"))))
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", str(config), *MODES[suffix], "--out", str(out)]) == 0
    _assert_matches_golden(out, f"config_eprb{suffix}.json")


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_indented_reports_still_verify_and_hold_the_same_values(tmp_path, name):
    """Reports were once written as ``json.dumps(report, sort_keys=True,
    indent=2)``; such a report still verifies, and its canonical text is the
    golden's."""
    golden = (GOLDEN / name).read_text()
    indented = json.dumps(json.loads(golden), sort_keys=True, indent=2) + "\n"
    report = tmp_path / name
    report.write_text(indented)
    assert main(["verify", str(report)]) == 0
    assert report_to_json(json.loads(indented)) == golden
