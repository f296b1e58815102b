"""Config values read by ``float()``/``int()`` deep inside a command (the
spectrum integrator of ``reduce``, sampling ranges, the hodograph band,
family parameters and alphas) end as config errors: exit code 2 and a
message that names the JSON path, never a traceback."""

import json

import pytest

from noncanon.cli import EXIT_CONFIG, main

SPECTRUM = {
    "version": 1,
    "phase_space": {"n": 2},
    "structure": {"kind": "constant-theta-f", "theta": 1.0, "f": 1.0},
    "hamiltonian": "(p1^2 + p2^2 + q1^2 + q2^2)/2",
    "reduction": {
        "reference_point": [1.0, 0.0, 0.0, -1.0],
        "surface_points": 10,
        "spectrum": True,
        "n_max": 3,
        "dt": 0.01,
        "t_end": 10.0,
    },
}

CLOUD = {
    "version": 1,
    "phase_space": {"n": 2},
    "structure": {"kind": "theta-f-field", "theta": {"1,2": "q2"}},
    "cloud": {"count": 5, "ranges": {"q1": [-1.0, 1.0]}},
}

GRID = {
    "version": 1,
    "hodograph": {
        "kind": "linear",
        "parameters": {"alpha": 1.0},
        "grid": {"x": [-1.0, 1.0, 5], "y": [-1.0, 1.0, 5], "band": 0.05},
        "alphas": [1.0, 10.0],
    },
}


def run_config(tmp_path, capsys, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def _with(doc, block, **values):
    return dict(doc, **{block: dict(doc[block], **values)})


def _grid(**values):
    return _with(GRID, "hodograph", grid=dict(GRID["hodograph"]["grid"], **values))


@pytest.mark.parametrize("command, doc", [("reduce", SPECTRUM), ("check-jacobi", CLOUD),
                                          ("hodograph", GRID)])
def test_valid_configs_run(tmp_path, capsys, command, doc):
    assert run_config(tmp_path, capsys, command, doc)[0] == 0


CASES = {
    "spectrum_dt_zero": ("reduce", _with(SPECTRUM, "reduction", dt=0), "$.reduction.dt"),
    "spectrum_dt_negative": ("reduce", _with(SPECTRUM, "reduction", dt=-0.01), "$.reduction.dt"),
    "spectrum_t_end_zero": ("reduce", _with(SPECTRUM, "reduction", t_end=0), "$.reduction.t_end"),
    "spectrum_n_max_text": ("reduce", _with(SPECTRUM, "reduction", n_max="x"), "$.reduction.n_max"),
    "spectrum_constants_text": (
        "reduce", _with(SPECTRUM, "reduction", constants=["a", 0.0]), "$.reduction.constants[0]"
    ),
    "surface_range_text": (
        "reduce",
        _with(SPECTRUM, "reduction", surface_parameter_ranges={"p1": ["a", 1]}),
        "$.reduction.surface_parameter_ranges.p1[0]",
    ),
    "cloud_range_text": (
        "check-jacobi", _with(CLOUD, "cloud", ranges={"q1": ["a", 1]}), "$.cloud.ranges.q1[0]"
    ),
    "cloud_range_one_number": (
        "check-jacobi", _with(CLOUD, "cloud", ranges={"q1": [0.5]}), "$.cloud.ranges.q1"
    ),
    "cloud_ranges_not_an_object": (
        "check-jacobi", _with(CLOUD, "cloud", ranges=[-1.0, 1.0]), "$.cloud.ranges"
    ),
    "grid_band_text": ("hodograph", _grid(band="x"), "$.hodograph.grid.band"),
    "family_parameter_text": (
        "hodograph", _with(GRID, "hodograph", parameters={"alpha": "x"}),
        "$.hodograph.parameters.alpha",
    ),
    "alpha_text": ("hodograph", _with(GRID, "hodograph", alphas=[1.0, "x"]), "$.hodograph.alphas[1]"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_value_is_a_config_error(tmp_path, capsys, case):
    command, doc, path = CASES[case]
    code, err = run_config(tmp_path, capsys, command, doc)
    assert code == EXIT_CONFIG
    assert path in err
    assert "Traceback" not in err
