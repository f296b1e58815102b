"""Bad config values end as config errors: exit code 2 and a message that
names the JSON path, never a traceback."""

import json

from noncanon.cli import EXIT_CONFIG, main

OSCILLATOR = {
    "version": 1,
    "phase_space": {"n": 1},
    "structure": {"kind": "canonical"},
    "hamiltonian": "(q1^2 + p1^2)/2",
    "initial_state": [1.0, 0.0],
    "integrator": {"dt": 0.01, "t_end": 1.0},
}


def run_config(tmp_path, capsys, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_negative_dt(tmp_path, capsys):
    doc = dict(OSCILLATOR, integrator={"dt": -0.01, "t_end": 1.0})
    code, err = run_config(tmp_path, capsys, "integrate", doc)
    assert code == EXIT_CONFIG
    assert "$.integrator.dt" in err
    assert "Traceback" not in err


def test_non_integer_seed(tmp_path, capsys):
    doc = dict(OSCILLATOR, seed="abc")
    code, err = run_config(tmp_path, capsys, "integrate", doc)
    assert code == EXIT_CONFIG
    assert "$.seed" in err
    assert "Traceback" not in err


def test_grid_without_y(tmp_path, capsys):
    doc = {
        "version": 1,
        "hodograph": {
            "kind": "linear",
            "parameters": {"alpha": 1.0},
            "grid": {"x": [-1.0, 1.0, 5]},
        },
    }
    code, err = run_config(tmp_path, capsys, "hodograph", doc)
    assert code == EXIT_CONFIG
    assert "$.hodograph.grid.y" in err
    assert "Traceback" not in err
