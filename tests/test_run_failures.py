"""Runs that fail, or read a value that is not finite, keep the exit-code
contract quietly.

- A ``reduce`` whose reduced orbit fails exits 3 and leaves no artifact:
  the surface CSV is written only once every step has succeeded.
- An ``integrate`` whose monitors start infinite reports a NaN drift
  (inf - inf) without a numpy warning, and its assertion fails (exit 1).
- A ``constant-theta-f`` structure needs a finite ``theta`` and ``f``; JSON
  numbers such as ``1e309`` parse to infinity, and a non-finite value is a
  config error (exit 2) at its JSON path."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from noncanon.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_RUNTIME, main
from noncanon.dynamics import Trajectory

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _main(tmp_path, command, fixture, edit, literal=None):
    """Run ``command`` on a fixture edited by ``edit(doc)`` with numpy
    warnings as errors; ``literal`` replaces the JSON string "@" so that
    non-finite numbers can be written.  Returns the exit code, stderr and
    the names of the files left in the output directory."""
    doc = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    edit(doc)
    text = json.dumps(doc)
    if literal is not None:
        text = text.replace('"@"', literal)
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(path), "--out", str(out)])
    files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    return code, files


def test_a_failed_reduced_orbit_leaves_no_artifact(tmp_path, capsys):
    def edit(doc):
        doc["reduction"]["constants"] = [1e300, 0.0]

    code, files = _main(tmp_path, "reduce", "reduce_constant.json", edit)
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME, err
    assert err == "runtime error: reduced orbit: need at least two upward zero crossings\n"
    assert files == []


def test_a_successful_reduce_still_writes_its_surface(tmp_path, capsys):
    code, files = _main(tmp_path, "reduce", "reduce_constant.json", lambda doc: None)
    assert code == 0, capsys.readouterr().err
    assert files == ["reduce_report.json", "reduction_report.json", "surface_points.csv"]


def test_an_infinite_monitor_drifts_by_nan_quietly(tmp_path, capsys):
    def edit(doc):
        doc["initial_state"] = [1e308, 0.0]

    code, files = _main(tmp_path, "integrate", "integrate_canonical_oscillator.json", edit)
    assert code == EXIT_ASSERTION
    assert capsys.readouterr().err == ""
    assert "integrate_report.json" in files


def test_monitor_drift_of_an_infinite_start_is_nan():
    trajectory = Trajectory(
        times=np.array([0.0, 1.0]),
        states=np.zeros((2, 2)),
        monitors={"H": np.array([math.inf, math.inf]), "c": np.array([1.0, 3.0])},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        drift = trajectory.monitor_drift("H")
        assert trajectory.monitor_drift("c") == (2.0, 2.0)
    assert all(math.isnan(d) for d in drift)


@pytest.mark.parametrize("key", ["theta", "f"])
@pytest.mark.parametrize("literal", ["1e309", "-1e309", "NaN"])
def test_constant_theta_f_needs_finite_values(tmp_path, capsys, key, literal):
    def edit(doc):
        doc["structure"][key] = "@"

    code, files = _main(tmp_path, "check-jacobi", "check_jacobi_constant.json", edit, literal)
    assert code == EXIT_CONFIG
    message = f"config error: $.structure.{key}: expected a finite number\n"
    assert capsys.readouterr().err == message
    assert files == []
