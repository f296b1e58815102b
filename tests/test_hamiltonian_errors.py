"""Hamiltonians read from a config (``$.hamiltonian`` and each entry of
``$.reduction.leaf_hamiltonians``) must parse and name only the variables
and parameters of the structure they flow on; otherwise the run ends as a
config error, exit code 2, with the JSON path, never a traceback."""

import json

import pytest

from noncanon.cli import EXIT_CONFIG, main

INTEGRATE = {
    "version": 1,
    "phase_space": {"n": 1},
    "structure": {"kind": "canonical"},
    "hamiltonian": "(p1^2 + q1^2)/2",
    "initial_state": [1.0, 0.0],
    "integrator": {"dt": 0.01, "t_end": 0.1},
}

SWEEP = {
    "version": 1,
    "parameters": {"k": 1.0},
    "hamiltonian": "(p1^2 + p2^2 + q1^2 + q2^2)/2",
    "initial_state": [1.0, 0.0, 0.0, 1.0],
    "sweep": {"theta": 1.0, "epsilons": [0.1, 0.01]},
    "integrator": {"dt": 0.01, "t_end": 0.1},
}

SPECTRUM = {
    "version": 1,
    "phase_space": {"n": 2},
    "structure": {"kind": "constant-theta-f", "theta": 1.0, "f": 1.0},
    "hamiltonian": "(p1^2 + p2^2 + q1^2 + q2^2)/2",
    "reduction": {
        "reference_point": [1.0, 0.0, 0.0, -1.0],
        "surface_points": 10,
        "spectrum": True,
        "dt": 0.01,
    },
}

LEAF = {
    "version": 1,
    "phase_space": {"n": 2},
    "parameters": {"a": 0.5},
    "structure": {
        "kind": "custom",
        "entries": {"1,2": "a", "1,3": "1", "2,4": "1", "3,4": "2"},
    },
    "reduction": {
        "reference_point": [0.3, 0.2, 0.1, 0.4],
        "leaf_hamiltonians": ["q1*p2", "a*p1*p2"],
    },
}


def run_config(tmp_path, capsys, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def _leaves(hamiltonians):
    return dict(LEAF, reduction=dict(LEAF["reduction"], leaf_hamiltonians=hamiltonians))


CASES = {
    "integrate_undeclared_parameter": (
        "integrate", dict(INTEGRATE, hamiltonian="k*p1^2"), "$.hamiltonian", "['k']"
    ),
    "sweep_undeclared_parameter": (
        "sweep", dict(SWEEP, hamiltonian="k*p1^2 + b*q1"), "$.hamiltonian", "['b']"
    ),
    "spectrum_undeclared_parameter": (
        "reduce", dict(SPECTRUM, hamiltonian="(q1^2 + q2^2)/2 + k*p1"), "$.hamiltonian", "['k']"
    ),
    "leaf_entry_does_not_parse": (
        "reduce", _leaves(["q1*p2", "q1 +* p1"]), "$.reduction.leaf_hamiltonians[1]", ""
    ),
    "leaf_entries_a_string": (
        "reduce", _leaves("q1*p2"), "$.reduction.leaf_hamiltonians", "expected a list"
    ),
    "leaf_entry_undeclared_parameter": (
        "reduce", _leaves(["q1*p2", "b*p1"]), "$.reduction.leaf_hamiltonians[1]", "['b']"
    ),
    "leaf_entry_not_a_string": (
        "reduce", _leaves(["q1*p2", 3]), "$.reduction.leaf_hamiltonians[1]", "expression string"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_hamiltonian_is_a_config_error(tmp_path, capsys, case):
    command, doc, path, detail = CASES[case]
    code, err = run_config(tmp_path, capsys, command, doc)
    assert code == EXIT_CONFIG
    assert path in err
    assert detail in err
    assert "Traceback" not in err


def test_sweep_hamiltonian_takes_declared_parameters(tmp_path, capsys):
    # the swept structures bind $.parameters, as an integrated structure does
    code, err = run_config(tmp_path, capsys, "sweep", dict(SWEEP, hamiltonian="k*p1^2"))
    assert code == 0, err
