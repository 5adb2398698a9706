"""The canonical report text and the report encoding, against ``json`` as the oracle."""

import json
from fractions import Fraction

import numpy as np
import pytest

from histories_lab import cli
from histories_lab.analysis import AnalysisOptions, analyze, encode_value, report_to_json
from histories_lab.config import parse_config, scenario_to_config
from histories_lab.scenarios import SCENARIO_NAMES, build_scenario


def _oracle(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(1), object(), {1, 2}, b"x", 1j,
                                   Fraction(1, 2), {"a": [np.bool_(False)]}])
def test_report_text_refuses_what_json_cannot_write(value):
    with pytest.raises(TypeError):
        report_to_json(value)


def test_every_report_is_written_as_json_dumps_would(tmp_path):
    config = tmp_path / "eprb.json"
    config.write_text(json.dumps(scenario_to_config(build_scenario("eprb"))))
    cases = [(["--scenario", name], build_scenario(name)) for name in SCENARIO_NAMES]
    cases.append((["--config", str(config)], parse_config(str(config))))
    for source, descriptor in cases:
        for exact in (False, True):
            out = tmp_path / "report.json"
            assert cli.main(["analyze", *source, *(["--exact"] if exact else []),
                             "--out", str(out)]) == 0
            report = analyze(descriptor, AnalysisOptions(exact=exact))
            assert out.read_text() == _oracle(report)
            assert out.read_text().isascii()


@pytest.mark.parametrize("value, encoded", [
    (np.float64(0.25), 0.25),
    (np.int64(-3), -3),
    (True, True),
    (Fraction(-1, 3), {"$fraction": [-1, 3]}),
    (complex(0.5, -2.0), {"$complex": [0.5, -2.0]}),
    ((1, "a", None), [1, "a", None]),
    (np.array([[1.5, 2.0]]), [[1.5, 2.0]]),
    ({1: (Fraction(2), np.float64(0.5))}, {"1": [{"$fraction": [2, 1]}, 0.5]}),
    (2**70, 2**70),
])
def test_encode_value_table(value, encoded):
    assert repr(encode_value(value)) == repr(encoded)  # np.float64(0.25) and 1 == True differ here


@pytest.mark.parametrize("value", [np.bool_(True), object(), {1, 2}, b"x", [np.bool_(False)]])
def test_encode_value_refuses_unknown_types(value):
    with pytest.raises(TypeError):
        encode_value(value)
