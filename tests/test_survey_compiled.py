"""The survey path (bracket matrices, Jacobi reports, degeneracy, domain
filters, hodograph families and generators) against the tree walker.

Generated code must give the tree walker's numbers bit for bit and, where
the tree walker raises, its error and message; fixture artifacts must not
depend on which of the two ran, and a family copied with new expressions
(``dataclasses.replace``) must run them, not its source's cached code.
A single point runs the flows' state-tuple row
(``expressions._generate_row``): a surface solve's structure entries,
closed-form families' (u, v) and generators a row over s.  A block of
points, a structure's points, a cloud's or a grid's, runs the same lines in
a generated pass (``expressions._generate_pass``).  A raising row or pass
point is redone on the tree walker."""

import dataclasses
import math
import struct
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon import brackets, expressions, hodograph
from noncanon.brackets import (
    DELTA_KINDS,
    canonical,
    constant_theta_f,
    custom,
    d_operator_values,
    general_planar,
    theta_f_field,
)
from noncanon.cli import load_config, run
from noncanon.expressions import (
    EVALUATION_ERRORS,
    DomainError,
    _reference_row,
    derivative,
    evaluate,
    gradient,
    parse,
)
from noncanon.hodograph import (
    Grid2D,
    HodographFamily,
    _field_partials,
    _GeneratorSolver,
    build_family,
    default_filters,
    pde_residual,
)
from noncanon.reduction import total_variation_residual

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

STRUCTURES = {
    "canonical": canonical(2),
    "constant-theta-f": constant_theta_f(0.7, 1.3),
    "theta-f-field": theta_f_field(2, {(1, 2): "-q1/p2"}, {(1, 2): "-p2/q1"}),
    "theta-f-field-3": theta_f_field(
        3, {(1, 2): "0.8*q3", (1, 3): "sqrt(q1)"}, {(2, 3): "0.4*sin(p1)"}
    ),
    "general-planar": general_planar(
        "1/(-(p2/q1) - q1/(2*alpha))",
        "-(p2/q1) + q1/(2*alpha)",
        "1 + q2^2",
        "exp(p1)",
        "log(p2)",
        "q1*p1",
        parameters={"alpha": 1.3},
    ),
    "custom": custom(2, {(1, 2): "q2*p1", (3, 4): "1/q1", (1, 3): "2", (2, 4): "p2^0.5"}),
}

_coordinate = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0, -1.0])
)


def _bits(value):
    """A float, a float array or a dict of floats as comparable bytes; any
    NaN compares equal to any other NaN."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    values = np.asarray(value, dtype=float).ravel().tolist()
    return [
        "nan" if math.isnan(v) else struct.pack("<d", v) for v in values
    ]


def _outcome(fn, *args):
    """The bytes of a result, or the type and message of the error raised."""
    try:
        result = fn(*args)
    except EVALUATION_ERRORS as err:
        return type(err), str(err)
    if isinstance(result, tuple):
        return tuple(_bits(r) if r is not None else None for r in result)
    return _bits(result)


# --- tree-walking references --------------------------------------------------


def tree_theta(s, x):
    env = s.env_at(x)
    m = np.zeros((s.dim, s.dim))
    for (a, b), expr in s.entries.items():
        v = evaluate(expr, env)
        m[a, b] = v
        m[b, a] = -v
    return m


# silent, as the library's stacked passes are, where an entry overflows to
# inf and the det or a product meets inf * 0 or inf - inf
_QUIET = np.errstate(over="ignore", divide="ignore", invalid="ignore")


@_QUIET
def tree_jacobi(s, x):
    env = s.env_at(x)
    names = s.variable_names
    m = np.zeros((s.dim, s.dim))
    grads = np.zeros((s.dim, s.dim, s.dim))
    for (a, b), expr in s.entries.items():
        v = evaluate(expr, env)
        m[a, b] = v
        m[b, a] = -v
        g = np.array(gradient(expr, names, env))
        grads[a, b] = g
        grads[b, a] = -g
    generic = 0.0
    for a, b, c in combinations(range(s.dim), 3):
        r = m[a] @ grads[b, c] + m[b] @ grads[c, a] + m[c] @ grads[a, b]
        generic = max(generic, abs(r))
    identities = {}
    if s.kind in DELTA_KINDS:
        identities = s._delta_kind_identities(x, m, grads)
    elif s.kind == "general-planar":
        d = {
            name: d_operator_values(s, s.entry_expression(a, b), x)
            for name, (a, b) in (
                ("theta", (0, 1)),
                ("f", (2, 3)),
                ("g11", (0, 2)),
                ("g12", (0, 3)),
                ("g21", (1, 2)),
                ("g22", (1, 3)),
            )
        }
        identities = {
            "theta_d3": abs(d["theta"][2] + d["g21"][0] + d["g11"][1]),
            "theta_d4": abs(d["theta"][3] + d["g22"][0] + d["g12"][1]),
            "f_d1": abs(d["f"][0] - d["g12"][2] + d["g11"][3]),
            "f_d2": abs(d["f"][1] - d["g22"][2] + d["g21"][3]),
        }
    return generic, identities


@_QUIET
def tree_degeneracy(s, x):
    m = tree_theta(s, x)
    det = float(np.linalg.det(m))
    pairing = planar = None
    if s.kind in DELTA_KINDS:
        t = m[: s.n, : s.n]
        f = m[s.n :, s.n :]
        pairing = float(np.max(np.abs(t @ f + np.eye(s.n))))
    elif s.kind == "general-planar":
        env = s.env_at(x)
        theta = evaluate(s.entry_expression(0, 1), env)
        field = evaluate(s.entry_expression(2, 3), env)
        g = [[evaluate(s.entry_expression(i, 2 + j), env) for j in (0, 1)] for i in (0, 1)]
        planar = theta * field - g[0][0] * g[1][1] + g[0][1] * g[1][0]
    return det, pairing, planar


def jacobi(s, x):
    rep = s.jacobi_report(x)
    return rep.generic_max, rep.identities


def degeneracy(s, x):
    rep = s.degeneracy(x)
    return rep.det, rep.inverse_pairing_residual, rep.planar_condition


def tree_field_partials(family, x, y):
    env = dict(family.parameters)
    env["x"] = x
    env["y"] = y
    u = evaluate(family.u_expr, env)
    v = evaluate(family.v_expr, env)
    return (
        u,
        v,
        derivative(family.u_expr, "x", env),
        derivative(family.u_expr, "y", env),
        derivative(family.v_expr, "x", env),
        derivative(family.v_expr, "y", env),
    )


# --- bit-for-bit agreement on random points -----------------------------------


@pytest.mark.parametrize("kind", sorted(STRUCTURES))
@settings(max_examples=60, deadline=None)
@given(point=st.lists(_coordinate, min_size=6, max_size=6))
def test_brackets_match_the_tree_walker(kind, point):
    s = STRUCTURES[kind]
    x = np.array(point[: s.dim])
    assert _outcome(s.theta_matrix, x) == _outcome(tree_theta, s, x)
    assert _outcome(jacobi, s, x) == _outcome(tree_jacobi, s, x)
    assert _outcome(degeneracy, s, x) == _outcome(tree_degeneracy, s, x)


def test_general_planar_identities_are_reported():
    s = STRUCTURES["general-planar"]
    rep = s.jacobi_report([0.9, 0.3, 0.2, 1.1])
    assert sorted(rep.identities) == ["f_d1", "f_d2", "theta_d3", "theta_d4"]


@pytest.mark.parametrize(
    "kind, parameters, branch",
    [
        ("linear", {"alpha": 1.3}, "+"),
        ("log", {"alpha": 0.9, "u0": 1.2}, "+"),
        ("loglog", {"alpha": 1.1, "u0": 0.3, "v0": 0.2}, "+"),
        ("loglog", {"alpha": 1.1, "u0": 0.3, "v0": 0.2}, "-"),
    ],
)
@settings(max_examples=80, deadline=None)
@given(x=_coordinate, y=st.floats(-3.0, 3.0, allow_nan=False))
def test_field_partials_match_the_tree_walker(kind, parameters, branch, x, y):
    family = build_family(kind, parameters, branch=branch)
    # the draws are Python floats, as grid_checks hands them to
    # _field_partials from points.T.tolist()
    assert _outcome(_field_partials, family, x, y) == _outcome(
        tree_field_partials, family, x, y
    )


# --- errors are the tree walker's ---------------------------------------------


def test_jacobi_report_outside_the_domain_raises_the_tree_error():
    s = STRUCTURES["theta-f-field"]
    x = [0.5, 0.3, 0.2, 0.0]  # -q1/p2 at p2 = 0
    with pytest.raises(DomainError) as tree:
        tree_jacobi(s, x)
    with pytest.raises(DomainError) as generated:
        s.jacobi_report(x)
    assert str(generated.value) == str(tree.value) == "division by zero in '-q1/p2'"


def _raised(fn, *args):
    with pytest.raises(DomainError) as err:
        fn(*args)
    return str(err.value)


# A survey row whose generated code raises is redone on the tree walker:
# each expression's value, then its gradient, in row order.  So the error
# is the first that expression meets, in the order the expressions are
# evaluated, even where another expression would meet a value error first.


def _tree_value_then_gradient(expr, names, env):
    evaluate(expr, env)
    gradient(expr, names, env)


def test_field_partials_raise_the_tree_error():
    # sqrt'(0) fails in u before v, and its log(-1), is reached
    family = HodographFamily("mixed", {}, parse("sqrt(x)"), parse("log(y)"))
    message = _raised(_field_partials, family, 0.0, -1.0)
    env = {"x": 0.0, "y": -1.0}
    assert message == _raised(_tree_value_then_gradient, family.u_expr, ("x", "y"), env)
    assert message == "sqrt derivative at zero in 'sqrt(x)'"


def test_total_variation_residual_raises_the_tree_error():
    # entries are taken in order, each value with its partials
    s = theta_f_field(2, {(1, 2): "sqrt(q1)"}, {(1, 2): "log(p1)"})
    x = np.array([0.0, 0.5, -1.0, 0.5])
    message = _raised(total_variation_residual, s, x)
    assert message == "sqrt derivative at zero in 'sqrt(q1)'"


def test_generator_slope_raises_the_tree_error():
    # the slope's code takes the value too, and log(-1) comes before sqrt'(0)
    family = build_family("custom-fg", {}, f="sqrt(s) + log(s - 1)", g="s")
    solver = _GeneratorSolver(family)
    message = _raised(solver._gen_prime, "f_expr", 0.0)
    assert message == _raised(_tree_value_then_gradient, family.f_expr, ("s",), {"s": 0.0})
    assert message == "log of non-positive value in 'log(s - 1.0)'"


# --- families copied with new expressions ---------------------------------------


def test_reassigned_closed_form_family_runs_the_new_expressions():
    grid = Grid2D((-1.0, 1.0), (-1.0, 1.0), 9, 9, default_filters("linear", 0.05))
    family = build_family("linear", {"alpha": 1.0})
    assert pde_residual(family, grid)["max_res_u"] <= 1e-12
    shifted = family.u_expr + parse("0.1*x")
    family = dataclasses.replace(family, u_expr=shifted, v_expr=shifted)
    fresh = HodographFamily("linear", {"alpha": 1.0}, family.u_expr, family.v_expr)
    assert pde_residual(family, grid) == pde_residual(fresh, grid)
    assert pde_residual(family, grid)["max_res_u"] >= 0.05
    assert family.evaluate_uv(0.5, 0.3) == fresh.evaluate_uv(0.5, 0.3)


def test_reassigned_generators_run_the_new_expressions():
    family = build_family("custom-fg", {}, f="s", g="s^3")
    before = family.evaluate_uv(0.4, -0.3)
    family = dataclasses.replace(family, f_expr=parse("2*s"))
    after = family.evaluate_uv(0.4, -0.3)
    assert after != before
    assert after == build_family("custom-fg", {}, f="2*s", g="s^3").evaluate_uv(0.4, -0.3)


def test_a_family_field_cannot_be_reassigned():
    # the family's code is a plain memo over its fields, so they are frozen
    family = build_family("linear", {"alpha": 1.0})
    with pytest.raises(dataclasses.FrozenInstanceError):
        family.u_expr = parse("x")


def test_values_survive_a_derivative_the_tree_walker_never_takes():
    # sqrt has a value at 0 but no derivative there; only the value is asked for
    family = HodographFamily("limit", {}, parse("sqrt(x)"), parse("y"))
    assert family.evaluate_uv(0.0, 2.0) == (0.0, 2.0)
    assert family.evaluate_uv(4.0, 2.0) == (2.0, 2.0)


# --- survey fixtures on the tree path ----------------------------------------------

SURVEY_FIXTURES = {
    "check_jacobi_canonical.json": "check-jacobi",
    "check_jacobi_constant.json": "check-jacobi",
    "check_jacobi_singular_field.json": "check-jacobi",
    "check_jacobi_violating.json": "check-jacobi",
    "reduce_constant.json": "reduce",
    "reduce_singular_field.json": "reduce",
    "hodograph_linear_sweep.json": "hodograph",
    "hodograph_log.json": "hodograph",
    "hodograph_loglog.json": "hodograph",
}


def _artifacts(name, out_dir):
    run(SURVEY_FIXTURES[name], load_config(FIXTURES / name), out_dir)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


@pytest.mark.parametrize("name", sorted(SURVEY_FIXTURES))
def test_survey_artifacts_match_tree_fallback(name, tmp_path, monkeypatch):
    generated = _artifacts(name, tmp_path / "generated")
    calls = []

    def raising_row(structure, exprs, variables=()):
        # a generated row whose body always raises: every point returns the
        # row's fallback, the tree walker
        def disabled(x):
            calls.append(exprs)
            return _reference_row(structure, exprs, x, variables)

        return disabled

    build = expressions._generate_pass

    def raising_pass(gen, *args):
        # a pass whose lines raise at every point: every point takes its
        # redo, the tree walker
        gen.lines.append("raise ArithmeticError")
        return build(gen, *args)

    def redo(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(hodograph, "_generate_row", raising_row)
    monkeypatch.setattr(brackets, "_generate_row", raising_row)
    monkeypatch.setattr(hodograph, "_generate_pass", raising_pass)
    monkeypatch.setattr(expressions, "_generate_pass", raising_pass)
    monkeypatch.setattr(hodograph, "_admitted", redo(hodograph._admitted))
    monkeypatch.setattr(hodograph, "_reference_row", redo(hodograph._reference_row))
    monkeypatch.setattr(expressions, "_reference_row", redo(expressions._reference_row))
    assert _artifacts(name, tmp_path / "tree") == generated
    assert calls
