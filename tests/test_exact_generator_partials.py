"""Exact partials for generator (custom-fg) families.

The generator map x = f(u) + g(v), y = -F(u) - G(v) with F' = s f' has the
Jacobian [[f', g'], [-u f', -v g']] in (u, v).  Its inverse at the solved
point gives u_x, u_y, v_x and v_y exactly (the implicit function theorem),
so each admissible grid point costs one Newton inversion and no finite
difference."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon import cli, hodograph
from noncanon.cli import load_config, run
from noncanon.expressions import evaluate
from noncanon.hodograph import (
    HodographError,
    _field_partials,
    _GeneratorSolver,
    build_family,
    inverse_map_from_generators,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_config(path)


def _counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; return the list of its calls."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.5, 2.0),
    x=st.floats(0.4, 1.6),
    y=st.floats(-1.0, 1.0),
)
def test_linear_generators_give_the_closed_form_partials(alpha, x, y):
    params = {"alpha": alpha}
    numeric = build_family("custom-fg", params, f="alpha*s", g="-alpha*s")
    closed = build_family("linear", params)
    got = _field_partials(numeric, x, y)
    want = _field_partials(closed, x, y)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    # the returned point meets Newton's stop rule
    rx, ry = numeric._solver.residual(got[0], got[1], x, y)
    assert abs(rx) <= hodograph._NEWTON_TOL and abs(ry) <= hodograph._NEWTON_TOL


def _forward_jacobian_inverse(f, g, u, v, h=1e-6):
    """Invert the Jacobian of the single-valued map (u, v) -> (x, y), taken
    by central differences in (u, v)."""
    x_expr, y_fn = inverse_map_from_generators(f, g)

    def xy(a, b):
        return np.array([evaluate(x_expr, {"u": a, "v": b}), y_fn(a, b)])

    jac = np.column_stack(
        [(xy(u + h, v) - xy(u - h, v)) / (2 * h), (xy(u, v + h) - xy(u, v - h)) / (2 * h)]
    )
    return np.linalg.inv(jac)  # [[u_x, u_y], [v_x, v_y]]


def test_partials_belong_to_the_solved_root_where_roots_switch():
    # nearby points solve onto the other root (u near 0.001), so differences
    # of the inversion across the point would mix the two branches
    family = build_family("custom-fg", {}, f="s^2", g="-s")
    u, v, ux, uy, vx, vy = _field_partials(family, 1.0, 0.5000001)
    assert u == pytest.approx(-0.897, abs=1e-3)
    ref = _forward_jacobian_inverse("s^2", "-s", u, v)
    got = np.array([[ux, uy], [vx, vy]])
    assert np.all(np.abs(got - ref) <= 1e-6 * np.abs(ref))


# the tail:custom_fg job of perfbench's workloads
TAIL_CUSTOM_FG = {
    "version": 1,
    "hodograph": {
        "kind": "custom-fg",
        "parameters": {"alpha": 1.0},
        "f": "alpha*s",
        "g": "-alpha*s",
        "grid": {"x": [0.4, 1.4, 3], "y": [-1.0, 1.0, 3]},
    },
}


def test_jacobian_minimum_is_one_over_alpha_x_max(tmp_path):
    # |u_x v_y - u_y v_x| = 1/(alpha x) for linear generators
    report = run("hodograph", _config(tmp_path, TAIL_CUSTOM_FG), tmp_path / "out")
    assert abs(report.results["jacobian_min"] - 5 / 7) <= 1e-14


def test_custom_fg_run_inverts_each_grid_point_once(tmp_path, monkeypatch):
    cfg = _config(tmp_path, TAIL_CUSTOM_FG)
    grid = cli._grid_from_config(cfg.raw["hodograph"], "custom-fg", "$.hodograph")
    expected = len(grid.points({"alpha": 1.0}))
    solves = _counted(monkeypatch, _GeneratorSolver, "__call__")
    reads = _counted(monkeypatch, hodograph.HodographFamily, "evaluate_uv")
    run("hodograph", cfg, tmp_path / "out")
    assert expected == 9
    assert len(solves) == expected
    assert len(reads) == 0


def test_loglog_run_reads_the_grid_values(tmp_path, monkeypatch):
    reads = _counted(monkeypatch, hodograph.HodographFamily, "evaluate_uv")
    report = run("hodograph", load_config(FIXTURES / "hodograph_loglog.json"), tmp_path / "out")
    assert len(reads) == 0
    assert report.results["min_u_minus_v"] > 0.0


def test_solution_with_vanishing_slope_is_a_failed_seed():
    # f' = 0 everywhere: the first seed, (0, -0.2), solves x = 1, y = 0.1
    # exactly, but u_x = -v/(f'(u)(u - v)) has no value there; every other
    # seed meets det == 0
    family = build_family("custom-fg", {}, f="0", g="-5*s")
    solver = family._solver
    rx, ry = solver.residual(0.0, -0.2, 1.0, 0.1)
    assert abs(rx) <= hodograph._NEWTON_TOL and abs(ry) <= hodograph._NEWTON_TOL
    with pytest.raises(HodographError, match="generator inversion failed"):
        _field_partials(family, 1.0, 0.1)
