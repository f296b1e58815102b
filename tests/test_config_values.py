"""Config values of the wrong type or shape, and a negative ``--seed``, end
as config errors: exit code 2 and a message that names the JSON path (or
the flag), never a traceback."""

import json

import pytest

from noncanon.cli import EXIT_CONFIG, main

OSCILLATOR = {
    "version": 1,
    "phase_space": {"n": 1},
    "structure": {"kind": "canonical"},
    "hamiltonian": "(q1^2 + p1^2)/2",
    "initial_state": [1.0, 0.0],
    "integrator": {"dt": 0.01, "t_end": 1.0},
}

CLOUD = {
    "version": 1,
    "phase_space": {"n": 2},
    "structure": {"kind": "theta-f-field", "theta": {"1,2": "-q1/p2"}, "f": {"1,2": "-p2/q1"}},
    "cloud": {"count": 10, "filters": [{"expr": "q1", "min_abs": 0.2}]},
}

GRID = {
    "version": 1,
    "hodograph": {
        "kind": "linear",
        "parameters": {"alpha": 1.0},
        "grid": {"x": [-1.0, 1.0, 5], "y": [-1.0, 1.0, 5], "filters": [{"expr": "y", "min": 0.1}]},
    },
}

SWEEP = {
    "version": 1,
    "hamiltonian": "(p1^2 + p2^2 + q1^2 + q2^2)/2",
    "initial_state": [1.0, 0.3, -0.2, -0.8],
    "integrator": {"dt": 0.01, "t_end": 0.1},
    "sweep": {"theta": 1.0, "epsilons": [0.1, 0.01]},
}

SURFACE = {
    "version": 1,
    "phase_space": {"n": 2},
    "structure": {"kind": "constant-theta-f", "theta": 1.0, "f": 1.0},
    "reduction": {"reference_point": [1.0, 0.0, 0.0, -1.0], "surface_points": 10},
}


def run_config(tmp_path, capsys, command, doc, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), *flags])
    return code, capsys.readouterr().err


def _with(doc, block, **values):
    return dict(doc, **{block: dict(doc[block], **values)})


@pytest.mark.parametrize("command, doc", [("check-jacobi", CLOUD), ("hodograph", GRID),
                                          ("sweep", SWEEP), ("reduce", SURFACE)])
def test_valid_configs_run(tmp_path, capsys, command, doc):
    assert run_config(tmp_path, capsys, command, doc)[0] == 0


def test_non_numeric_cloud_filter_bound(tmp_path, capsys):
    doc = _with(CLOUD, "cloud", filters=[{"expr": "q1", "min_abs": "big"}])
    code, err = run_config(tmp_path, capsys, "check-jacobi", doc)
    assert code == EXIT_CONFIG
    assert "$.cloud.filters[0].min_abs" in err


def test_non_numeric_grid_filter_bound(tmp_path, capsys):
    grid = dict(GRID["hodograph"]["grid"], filters=[{"expr": "y", "min": "low"}])
    doc = _with(GRID, "hodograph", grid=grid)
    code, err = run_config(tmp_path, capsys, "hodograph", doc)
    assert code == EXIT_CONFIG
    assert "$.hodograph.grid.filters[0].min" in err


def test_initial_state_of_the_wrong_length(tmp_path, capsys):
    doc = dict(OSCILLATOR, initial_state=[1.0, 0.0, 0.5])
    code, err = run_config(tmp_path, capsys, "integrate", doc)
    assert code == EXIT_CONFIG
    assert "$.initial_state" in err


def test_sweep_initial_state_of_the_wrong_length(tmp_path, capsys):
    doc = dict(SWEEP, initial_state=[1.0, 0.3])
    code, err = run_config(tmp_path, capsys, "sweep", doc)
    assert code == EXIT_CONFIG
    assert "$.initial_state" in err


def test_non_numeric_sweep_theta(tmp_path, capsys):
    code, err = run_config(tmp_path, capsys, "sweep", _with(SWEEP, "sweep", theta="abc"))
    assert code == EXIT_CONFIG
    assert "$.sweep.theta" in err


def test_non_numeric_sweep_epsilon(tmp_path, capsys):
    doc = _with(SWEEP, "sweep", epsilons=[0.1, "x"])
    code, err = run_config(tmp_path, capsys, "sweep", doc)
    assert code == EXIT_CONFIG
    assert "$.sweep.epsilons[1]" in err


def test_non_numeric_cloud_count(tmp_path, capsys):
    code, err = run_config(tmp_path, capsys, "check-jacobi", _with(CLOUD, "cloud", count="many"))
    assert code == EXIT_CONFIG
    assert "$.cloud.count" in err


def test_non_numeric_surface_points(tmp_path, capsys):
    doc = _with(SURFACE, "reduction", surface_points="lots")
    code, err = run_config(tmp_path, capsys, "reduce", doc)
    assert code == EXIT_CONFIG
    assert "$.reduction.surface_points" in err


def test_negative_seed_flag(tmp_path, capsys):
    code, err = run_config(tmp_path, capsys, "integrate", OSCILLATOR, "--seed", "-3")
    assert code == EXIT_CONFIG
    assert "--seed" in err
