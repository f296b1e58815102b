"""Bracket values that overflow stay off stderr.

Entries of about 1e200 overflow in the Jacobi residuals, the stacked
determinants and the inverse pairing products of ``check-jacobi``, and in
the determinant that ``integrate`` takes along the flow.  A loglog family
with alpha = 0.01 and u0 * v0 < 0 admits grid points where exp(x/alpha)
overflows in ``hodograph``'s root-product statistics, which then subtract
inf from inf.  Each of ``jacobi_report``, ``degeneracy_of``, the monitor
pass's determinant and the loglog statistics runs under one
``np.errstate``, so these runs print no numpy ``RuntimeWarning``, and their
exit codes and artifacts are the ones they had when they warned (pinned by
SHA-256)."""

import hashlib
import json
import warnings

import pytest

from noncanon.cli import EXIT_OK, main

_CLOUD = {
    "count": 100,
    "ranges": {"q1": [0.3, 1.8], "q2": [-1.5, 1.5], "p1": [-1.5, 1.5], "p2": [0.3, 1.8]},
    "filters": [{"expr": "q1", "min_abs": 0.2}, {"expr": "p2", "min_abs": 0.2}],
}
HARMONIC = "(p1^2 + p2^2 + q1^2 + q2^2)/2"

# name: (command, config, {artifact: SHA-256 of its bytes})
CASES = {
    "field_check_jacobi": (
        "check-jacobi",
        {
            "version": 1,
            "phase_space": {"n": 2},
            "structure": {
                "kind": "theta-f-field",
                "theta": {"1,2": "1e200*q1"},
                "f": {"1,2": "1e200*p1"},
            },
            "cloud": _CLOUD,
            "seed": 14,
        },
        {
            "check-jacobi_report.json": (
                "3c8dd0c89cec3ea0abaff055c43efc747947ed8fa860c456bb513a8e501bbfb8"
            ),
            "jacobi_points.csv": (
                "dba0cd65e4bd9741c1f5f52f5ad07f7261f0ff82a2c8997f5ec1e30ccfb83937"
            ),
        },
    ),
    "constant_check_jacobi": (
        "check-jacobi",
        {
            "version": 1,
            "phase_space": {"n": 2},
            "structure": {"kind": "constant-theta-f", "theta": 1e200, "f": 1e200},
            "cloud": {"count": 100},
            "seed": 12,
        },
        {
            "check-jacobi_report.json": (
                "0e5c0b7fe54376ec0cc7e7a402ce873931bfa84bf61b468d73041c40dc0fab91"
            ),
            "jacobi_points.csv": (
                "20eaf7e052a3c39cf6c929f722e0b560759653d5396432de77655d3484fa0037"
            ),
        },
    ),
    "constant_integrate": (
        "integrate",
        {
            "version": 1,
            "phase_space": {"n": 2},
            "structure": {"kind": "constant-theta-f", "theta": 1e160, "f": 1e160},
            "hamiltonian": HARMONIC,
            "initial_state": [1.0, 0.0, 0.0, 0.0],
            "integrator": {"method": "rk4", "dt": 0.001, "t_end": 1.0},
        },
        {
            "integrate_report.json": (
                "873fe7681b5bc75e42710523ed8364727b17bc23fe97a012897eba00cbd61ed8"
            ),
            "trajectory.csv": (
                "a8f163c0282960a5436b8638d2125d1fa6c0646f5acac7fc32e57ff97b6d709d"
            ),
        },
    ),
    "loglog_hodograph": (
        "hodograph",
        {
            "version": 1,
            "hodograph": {
                "kind": "loglog",
                "parameters": {"alpha": 0.01, "u0": -1.0, "v0": 1.0},
                "grid": {"x": [-1.0, 10.0, 5], "y": [1.0, 3.0, 5]},
            },
        },
        {
            "hodograph_report.json": (
                "d25475d4d3664bee98ecf90118955444ac072acdaaeb84c19bfe4559cb11c9cc"
            ),
        },
    ),
}


def run_case(tmp_path, capsys, name):
    """Exit code, stderr, recorded warnings and artifact digests of a run."""
    command, doc, _ = CASES[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path), "--out", str(out)])
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    return code, capsys.readouterr().err, [str(w.message) for w in caught], digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_overflowing_brackets_run_quietly(tmp_path, capsys, name):
    code, err, caught, digests = run_case(tmp_path, capsys, name)
    assert caught == []
    assert err == ""
    assert code == EXIT_OK
    assert digests == CASES[name][2]
