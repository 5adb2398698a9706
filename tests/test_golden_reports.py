"""Reports are byte-identical to the committed goldens.

``golden/analyze_<scenario>[_exact].json`` are the ``analyze --scenario``
reports of the four built-in scenarios, in float and exact mode, and
``golden/config_eprb[_exact].json`` the ``analyze --config`` reports of
``scenario_to_config(build_scenario("eprb"))``.  A change that moves a byte
of a report must regenerate them on purpose, with the reason in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from histories_lab.cli import main
from histories_lab.config import scenario_to_config
from histories_lab.scenarios import SCENARIO_NAMES, build_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"
MODES = {"": [], "_exact": ["--exact"]}


@pytest.mark.parametrize("suffix", MODES, ids=["float", "exact"])
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_analyze_reports_match_their_goldens(tmp_path, scenario, suffix):
    out = tmp_path / "report.json"
    assert main(["analyze", "--scenario", scenario, *MODES[suffix], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"analyze_{scenario}{suffix}.json").read_bytes()


@pytest.mark.parametrize("suffix", MODES, ids=["float", "exact"])
def test_config_reports_match_their_goldens(tmp_path, suffix):
    config = tmp_path / "eprb.json"
    config.write_text(json.dumps(scenario_to_config(build_scenario("eprb"))))
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", str(config), *MODES[suffix], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"config_eprb{suffix}.json").read_bytes()
