"""The generated passes against the loops they replace.

Every block of points runs in a generated pass (``expressions._generate_pass``),
one function that loops over the points itself.  A closed-form family's grid
has the filter pass of ``Grid2D.points``, the check pass of ``grid_checks``
and the deviation pass of ``limit_sweep``, run once per alpha.  Each must
give what the point-by-point loop gives on the tree walker, folded with
Python's ``max`` and ``min``, bit for bit, NaN residuals included; redo a
raising point on the tree walker once and go on; finish every filter before
any field row; make no Python call per point; and compile each distinct
source once per run, no more than one row per filter pass, per partials row
and per value row did.  No fixture takes a block point by point, and every
pass loops with an unconditional back edge."""

import builtins
import dis
import json
import math
import struct
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncanon import expressions, hodograph
from noncanon.cli import load_config, run
from noncanon.expressions import EVALUATION_ERRORS, _reference_row, parse
from noncanon.hodograph import (
    DomainFilter,
    Grid2D,
    HodographError,
    HodographFamily,
    build_family,
    default_filters,
    grid_checks,
    limit_sweep,
)
from test_acceptance import FIXTURE_COMMANDS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
XY = ("x", "y")


def _bits(values):
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


def _outcome(fn, *args):
    """The bits of a result's floats, or the type and message of the error."""
    try:
        result = fn(*args)
    except (*EVALUATION_ERRORS, HodographError) as err:
        return type(err), str(err)
    return _bits(np.asarray(result, dtype=float).ravel().tolist())


# --- the point-by-point loops, on the tree walker --------------------------------


def _tree_points(grid, parameters):
    xs = np.linspace(grid.x_range[0], grid.x_range[1], grid.nx).tolist()
    ys = np.linspace(grid.y_range[0], grid.y_range[1], grid.ny).tolist()
    kept = []
    for x, y in product(xs, ys):
        env = {**parameters, "x": x, "y": y}
        if all(f.admits(env) for f in grid.filters):
            kept.append((x, y))
    return kept


def tree_checks(family, grid):
    points = _tree_points(grid, family.parameters)
    if not points:
        raise HodographError("grid has no admissible points")
    res_u = res_v = 0.0
    j_min = math.inf
    values = []
    for x, y in points:
        row = _reference_row(family, (family.u_expr, family.v_expr), (x, y), XY)
        u, ux, uy, v, vx, vy = row
        values += [u, v]
        res_u = max(res_u, abs(ux - v * uy))
        res_v = max(res_v, abs(vx - u * vy))
        j_min = min(j_min, abs(ux * vy - uy * vx))
    return [*np.ravel(points), *values, res_u, res_v, j_min]


def pass_checks(family, grid):
    checks = grid_checks(family, grid)
    pde = checks.pde
    return [*checks.points.ravel(), *checks.values.ravel(),
            pde["max_res_u"], pde["max_res_v"], checks.jacobian_min]


def tree_deviations(family, points):
    dev_u = dev_v = dev_uv = 0.0
    for x, y in points:
        u, v = _reference_row(family, (family.u_expr, family.v_expr), (x, y))
        limit = -y / x
        dev_u = max(dev_u, abs(u - limit))
        dev_v = max(dev_v, abs(v - limit))
        dev_uv = max(dev_uv, abs(u - v))
    return [dev_u, dev_v, dev_uv]


def tree_sweep(kind, parameters, alphas, grid):
    rows = []
    for alpha in alphas:
        params = {**parameters, "alpha": float(alpha)}
        points = _tree_points(grid, params)
        if not points:
            raise HodographError(f"grid empty at alpha = {alpha}")
        rows += [float(alpha), *tree_deviations(build_family(kind, params), points)]
    return rows


def pass_sweep(kind, parameters, alphas, grid):
    table = limit_sweep(kind, parameters, alphas, grid)
    keys = ("alpha", "max_dev_u", "max_dev_v", "max_u_minus_v")
    return [r[key] for r in table.rows for key in keys]


# --- equal to the loops, bit for bit -----------------------------------------------

_RANGES = [(-1.0, 1.0), (0.5, 3.0), (-2.0, 1.0), (1.0, 3.0), (-3.0, 3.0)]
_SIZES = st.integers(2, 9)
# log(x + 1) raises left of x = -1, where its filter pass redoes the point
_USER_FILTER = DomainFilter(parse("log(x + 1)"), min_abs=0.2)


def _case(kind, alpha, x_range, y_range, nx, ny, band, user_filter):
    params = {"alpha": alpha, "u0": 0.3, "v0": 0.2}
    filters = default_filters(kind, band) + ((_USER_FILTER,) if user_filter else ())
    return build_family(kind, params), Grid2D(x_range, y_range, nx, ny, filters)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["linear", "log", "loglog"]),
    alpha=st.sampled_from([0.001, 0.5, 1.3, 10.0]),
    x_range=st.sampled_from(_RANGES),
    y_range=st.sampled_from(_RANGES),
    nx=_SIZES,
    ny=_SIZES,
    band=st.sampled_from([0.0, 1e-3, 0.05]),
    user_filter=st.booleans(),
)
# exp(x/alpha) overflows: u is NaN, and so are the residuals, at most points
@example("log", 0.001, (0.5, 3.0), (-2.0, 2.0), 9, 9, 1e-3, False)
@example("linear", 1.3, (-2.0, 1.0), (-1.0, 1.0), 7, 5, 0.05, True)
@example("log", 0.5, (-2.0, 1.0), (1.0, 3.0), 9, 4, 1e-3, True)
def test_passes_equal_the_point_by_point_folds(
    kind, alpha, x_range, y_range, nx, ny, band, user_filter
):
    family, grid = _case(kind, alpha, x_range, y_range, nx, ny, band, user_filter)
    assert _outcome(pass_checks, family, grid) == _outcome(tree_checks, family, grid)
    if kind != "loglog":
        args = (kind, family.parameters, [alpha, 10.0 * alpha], grid)
        assert _outcome(pass_sweep, *args) == _outcome(tree_sweep, *args)


def test_a_nan_residual_never_wins_the_fold():
    # the case of the examples above: every NaN residual is dropped, as by
    # Python's max, and the Jacobian minimum stays infinite
    family, grid = _case("log", 0.001, (0.5, 3.0), (-2.0, 2.0), 9, 9, 1e-3, False)
    checks = grid_checks(family, grid)
    assert np.isnan(checks.values).any()
    assert checks.pde["max_res_u"] == 0.0
    assert checks.jacobian_min == math.inf
    assert _outcome(pass_checks, family, grid) == _outcome(tree_checks, family, grid)


@pytest.mark.parametrize("alphas", [[2.0], [2.0, 2.0], [2.0, -2.0], [-1.0, -3.0]])
def test_a_sweep_without_two_distinct_positive_alphas_has_a_nan_order(alphas):
    # the rule of ``reduction.epsilon_sweep``: no line is fitted through one
    # abscissa, and no logarithm is taken of a non-positive alpha
    grid = Grid2D((0.5, 1.5), (-1.0, 1.0), 5, 5, default_filters("linear"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = limit_sweep("linear", {"alpha": 1.0}, alphas, grid)
    assert [r["alpha"] for r in table.rows] == alphas
    assert all(r["max_dev_u"] > 0.0 for r in table.rows)
    assert math.isnan(table.fitted_order)
    assert limit_sweep("linear", {}, [2.0, 20.0], grid).fitted_order == pytest.approx(1.0)


# --- a raising point is redone once, and the pass goes on -----------------------


def _spy(monkeypatch, owner, name, at):
    """Wrap ``owner.<name>``; return the point of each call, its argument
    ``at``."""
    points = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        points.append(tuple(args[at]))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return points


def test_a_raising_point_is_redone_once_and_the_pass_goes_on(monkeypatch):
    # math.pow overflows in generated code at x = 2 only, where the tree
    # walker gives inf; the first x of the grid is 2
    family = HodographFamily("mixed", {}, parse("x^1100"), parse("y"))
    grid = Grid2D((2.0, 1.0), (-1.0, 1.0), 3, 2)
    redone = _spy(monkeypatch, expressions, "_reference_row", 2)
    got = pass_checks(family, grid)
    assert redone == [(2.0, -1.0), (2.0, 1.0)]
    assert got == tree_checks(family, grid)
    assert math.isinf(got[12])  # u at the first point

    redone.clear()
    points = grid.points()
    deviations = hodograph._deviation_pass(family)(family.parameters, points.tolist())
    assert redone == [(2.0, -1.0), (2.0, 1.0)]
    assert _bits(deviations) == _bits(tree_deviations(family, points.tolist()))


@pytest.mark.parametrize(
    "source, first",
    [
        # raises in generated code at x = 2 only: log(-0.25), a reject on
        # the tree walker, and an overflowing math.pow, inf there
        ("log(1.75 - x)", 1.5),
        ("x^1100", 2.0),
    ],
)
def test_a_raising_filter_point_is_redone_once_and_the_pass_goes_on(
    monkeypatch, source, first
):
    grid = Grid2D((2.0, 1.0), (-1.0, 1.0), 3, 2, (DomainFilter(parse(source)),))
    redone = _spy(monkeypatch, hodograph, "_admitted", 3)
    points = grid.points()
    assert redone == [(2.0, -1.0), (2.0, 1.0)]
    xs = [x for x in (2.0, 1.5, 1.0) if x <= first]
    assert points.tolist() == [[x, y] for x in xs for y in (-1.0, 1.0)]


class _FailingFilter(DomainFilter):
    """A filter whose tree-walker test raises an error that is no reject."""

    def admits(self, env):
        raise LookupError(f"filter fails at x = {env['x']}")


def test_every_filter_runs_over_the_grid_before_any_field_row():
    # u leaves its domain at x = -1, the first points; the filter's lines
    # raise only at x = 1, the last points, and its redo raises there
    family = HodographFamily("mixed", {}, parse("log(x + 0.75)"), parse("y"))
    grid = Grid2D((-1.0, 1.0), (1.0, 2.0), 5, 2, (_FailingFilter(parse("log(0.75 - x)")),))
    with pytest.raises(LookupError, match="filter fails at x = 1.0"):
        grid_checks(family, grid)


# --- no Python call per point, and no more compiles ----------------------------

CUSTOM_FG = {
    "version": 1,
    "hodograph": {
        "kind": "custom-fg",
        "f": "s",
        "g": "-s",
        "grid": {"x": [0.5, 1.5, 4], "y": [-1.0, 1.0, 4]},
    },
}


def _hodograph_config(tmp_path, name):
    if name != "custom-fg":
        return load_config(FIXTURES / name)
    path = tmp_path / "custom_fg.json"
    path.write_text(json.dumps(CUSTOM_FG), encoding="utf-8")
    return load_config(path)


CLOSED_FORM = sorted(p.name for p in FIXTURES.glob("hodograph_*.json"))


@pytest.mark.parametrize("name", CLOSED_FORM)
def test_a_closed_form_run_makes_no_python_call_per_point(tmp_path, monkeypatch, name):
    calls = []

    def never(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return called

    for attr in ("_admitted", "_reference_row", "_field_partials", "_generate_row"):
        monkeypatch.setattr(hodograph, attr, never(attr))
    # the passes' redo of a field point is ``expressions._reference_row``
    monkeypatch.setattr(expressions, "_reference_row", never("_reference_row"))
    monkeypatch.setattr(DomainFilter, "admits", never("admits"))
    monkeypatch.setattr(HodographFamily, "evaluate_uv", never("evaluate_uv"))
    report = run("hodograph", _hodograph_config(tmp_path, name), tmp_path / "out")
    assert calls == []
    assert report.results["jacobian_min"] > 0.0


@pytest.mark.parametrize("name", [*CLOSED_FORM, "custom-fg"])
def test_a_hodograph_run_compiles_no_more_than_one_row_per_pass(tmp_path, monkeypatch, name):
    cfg = _hodograph_config(tmp_path, name)
    alphas = cfg.raw["hodograph"].get("alphas", [])
    # the rows a run built when it looped point by point: a closed-form
    # family one filter row per grid, its partials row and one value row
    # per sweep family; a custom-fg family a filter row and one row per
    # generator
    rows = 3 if name == "custom-fg" else (1 + len(alphas)) + 1 + len(alphas)
    compiled = []
    original = builtins.compile

    def counted(*args, **kwargs):
        compiled.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    run("hodograph", cfg, tmp_path / "out")
    assert len(compiled) <= rows
    # each distinct source once: the grid's filter pass serves every alpha,
    # and one deviation pass the whole sweep
    assert len(compiled) == len(set(compiled))
    assert len(compiled) == (3 if name == "custom-fg" or alphas else 2)


@pytest.mark.parametrize("name", sorted(FIXTURE_COMMANDS))
def test_no_fixture_takes_a_block_point_by_point(tmp_path, monkeypatch, name):
    # clouds, grids, stored states and structure blocks each run one
    # generated pass per block: no redo and no generated row per point;
    # only the surface solve of ``reduce`` runs a row, one point at a time
    calls = []

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in (
        (expressions, "_reference_row"),
        (hodograph, "_reference_row"),
        (hodograph, "_admitted"),
    ):
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    # every generated row, and every ``compile`` function, is built here
    function = expressions._Codegen.function

    def spy(gen, params, result, fallback):
        return counted("row", function(gen, params, result, fallback))

    monkeypatch.setattr(expressions._Codegen, "function", spy)
    command = FIXTURE_COMMANDS[name]
    run(command, load_config(FIXTURES / name), tmp_path / "out")
    assert set(calls) <= ({"row"} if command == "reduce" else set())


# runs that build every kind of pass: a grid's and a cloud's filter pass,
# the check and deviation passes, a structure's value and dual passes and
# the monitor and drift passes over stored states
_EVERY_PASS = {
    "hodograph_linear_sweep.json": "hodograph",
    "check_jacobi_singular_field.json": "check-jacobi",
    "reduce_constant.json": "reduce",
    "integrate_singular_field.json": "integrate",
    "sweep_epsilon.json": "sweep",
}


def test_every_back_edge_of_a_pass_is_an_unconditional_jump(tmp_path, monkeypatch):
    # as in the flows' stepping loop: CPython 3.11 specializes a loop whose
    # back edge is JUMP_BACKWARD, which a ``for`` loop compiles to
    built = []
    generate = expressions._generate_pass

    def spy(*args):
        built.append(generate(*args))
        return built[-1]

    monkeypatch.setattr(expressions, "_generate_pass", spy)
    monkeypatch.setattr(hodograph, "_generate_pass", spy)
    for name, command in _EVERY_PASS.items():
        run(command, load_config(FIXTURES / name), tmp_path / name)
    kinds = {tuple(f.__code__.co_varnames[:4]) for f in built}
    assert kinds == {("redo", "env", "points", "out")}
    assert len(built) >= 9
    for generated in built:
        ops = {i.opname for i in dis.get_instructions(generated)}
        assert {op for op in ops if "BACKWARD" in op} == {"JUMP_BACKWARD"}
