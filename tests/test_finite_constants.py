"""The reduction constants a config gives must be finite.

``reduction.constants`` fixes the frozen combinations c_m of the reduced
flow, like a phase-space point fixes a state; JSON numbers such as
``1e309`` parse to infinity.  A constant that is not finite is a config
error (exit 2) at its JSON path, raised before any surface is sampled and
with no artifact written."""

import json
from pathlib import Path

import pytest

from noncanon import reduction
from noncanon.cli import EXIT_CONFIG, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _must_not_run(*_args, **_kwargs):
    raise AssertionError("ran before the config was checked")


@pytest.mark.parametrize(
    "constants, index", [("[1e309, 0.0]", 0), ("[0.5, -1e999]", 1), ("[0.5, NaN]", 1)]
)
def test_non_finite_constants_are_a_config_error(tmp_path, capsys, monkeypatch, constants, index):
    monkeypatch.setattr(reduction, "surface_cloud", _must_not_run)
    monkeypatch.setattr(reduction, "check_reduction", _must_not_run)
    doc = json.loads((FIXTURES / "reduce_constant.json").read_text(encoding="utf-8"))
    doc["reduction"]["constants"] = "@constants@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"@constants@"', constants), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["reduce", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err == f"config error: $.reduction.constants[{index}]: expected a finite number\n"
    assert not out.exists() or not any(out.iterdir())
