"""Config values that are checked before any flow or grid runs.

The epsilons of ``sweep`` and the alphas of ``hodograph`` are the
abscissae of log-log fits, so each must be finite and above 0 and a list
needs two distinct values; the ``assertions`` block is read, and its shape
checked, before the command runs (its values are resolved after the run).
A bad input exits 2 with its JSON path, and the functions that would
integrate a flow or sweep a grid are patched to fail if they are called."""

import json
from pathlib import Path

import pytest

from noncanon import cli, dynamics, hodograph, reduction
from noncanon.cli import EXIT_CONFIG, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _with(name, *keys, value):
    """Fixture ``name`` with the value at the key path ``keys`` replaced."""
    doc = _fixture(name)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def _must_not_run(*_args, **_kwargs):
    raise AssertionError("ran before the config was checked")


@pytest.fixture
def nothing_runs(monkeypatch):
    # ``integrate`` is imported by name into cli and reduction as well
    for module in (dynamics, reduction, cli):
        monkeypatch.setattr(module, "integrate", _must_not_run)
    monkeypatch.setattr(reduction, "epsilon_sweep", _must_not_run)
    monkeypatch.setattr(hodograph, "limit_sweep", _must_not_run)
    monkeypatch.setattr(hodograph, "grid_checks", _must_not_run)


def run_config(tmp_path, capsys, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr()


SWEEP = "sweep_epsilon.json"
LINEAR = "hodograph_linear_sweep.json"
OSCILLATOR = "integrate_canonical_oscillator.json"
_ASSERTION = {"name": "a", "value": "slope_error_from_unity", "op": "<=", "threshold": 0.2}

# name: (command, config, JSON path named by the error)
CASES = {
    "epsilon_zero": ("sweep", _with(SWEEP, "sweep", "epsilons", value=[0.01, 0.0]),
                     "$.sweep.epsilons[1]"),
    "epsilon_negative": ("sweep", _with(SWEEP, "sweep", "epsilons", value=[0.01, -0.001]),
                         "$.sweep.epsilons[1]"),
    "epsilon_nan": ("sweep", _with(SWEEP, "sweep", "epsilons", value=[float("nan"), 0.01]),
                    "$.sweep.epsilons[0]"),
    "epsilon_infinite": ("sweep", _with(SWEEP, "sweep", "epsilons", value=[0.01, float("inf")]),
                         "$.sweep.epsilons[1]"),
    "one_epsilon": ("sweep", _with(SWEEP, "sweep", "epsilons", value=[0.01]),
                    "$.sweep.epsilons"),
    "repeated_epsilon": ("sweep", _with(SWEEP, "sweep", "epsilons", value=[0.01, 0.01]),
                         "$.sweep.epsilons"),
    "alpha_negative": ("hodograph", _with(LINEAR, "hodograph", "alphas", value=[1.0, -10.0]),
                       "$.hodograph.alphas[1]"),
    "alpha_zero": ("hodograph", _with(LINEAR, "hodograph", "alphas", value=[1.0, 0.0]),
                   "$.hodograph.alphas[1]"),
    "alpha_infinite": ("hodograph", _with(LINEAR, "hodograph", "alphas", value=[1.0, float("inf")]),
                       "$.hodograph.alphas[1]"),
    "one_alpha": ("hodograph", _with(LINEAR, "hodograph", "alphas", value=[1.0]),
                  "$.hodograph.alphas"),
    "repeated_alpha": ("hodograph", _with(LINEAR, "hodograph", "alphas", value=[1.0, 1.0]),
                       "$.hodograph.alphas"),
    "assertions_a_number": ("sweep", _with(SWEEP, "assertions", value=5), "$.assertions"),
    "assertion_a_string": ("sweep", _with(SWEEP, "assertions", value=["x"]), "$.assertions[0]"),
    "assertion_without_threshold": (
        "sweep",
        _with(SWEEP, "assertions", value=[{k: v for k, v in _ASSERTION.items() if k != "threshold"}]),
        "$.assertions[0].threshold",
    ),
    "assertion_unknown_op": ("sweep", _with(SWEEP, "assertions", value=[dict(_ASSERTION, op="~")]),
                             "$.assertions[0].op"),
    "assertion_name_a_number": (
        "integrate", _with(OSCILLATOR, "assertions", value=[dict(_ASSERTION, name=1)]),
        "$.assertions[0].name",
    ),
    "assertion_threshold_a_string": (
        "hodograph", _with(LINEAR, "assertions", value=[dict(_ASSERTION, threshold="0.2")]),
        "$.assertions[0].threshold",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_exits_before_the_run(tmp_path, capsys, nothing_runs, case):
    command, doc, path = CASES[case]
    code, captured = run_config(tmp_path, capsys, command, doc)
    assert code == EXIT_CONFIG, captured.err
    assert captured.err.startswith(f"config error: {path}:"), captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no LAPACK message, no assertion lines


def test_an_unknown_report_value_is_still_found_after_the_run(tmp_path, capsys):
    # the value path is resolved against the report, so it can only fail
    # after the command has run
    doc = _with(SWEEP, "assertions", value=[dict(_ASSERTION, value="no.such.key")])
    doc["sweep"]["epsilons"] = [0.1, 0.01]
    doc["integrator"]["t_end"] = 0.1
    code, captured = run_config(tmp_path, capsys, "sweep", doc)
    assert code == EXIT_CONFIG
    assert "$.assertions: no value at 'no.such.key'" in captured.err
    assert (tmp_path / "out" / "epsilon_sweep.csv").exists()


@pytest.mark.parametrize("name, command", [(SWEEP, "sweep"), (LINEAR, "hodograph")])
def test_valid_fit_lists_still_run(tmp_path, capsys, name, command):
    doc = _fixture(name)
    if command == "sweep":
        doc["sweep"]["epsilons"] = [0.1, 0.01, 0.1]  # a repeat beside another value fits
        doc["integrator"]["t_end"] = 1.0
    code, captured = run_config(tmp_path, capsys, command, doc)
    assert code in (0, 1), captured.err
    assert "Traceback" not in captured.err
