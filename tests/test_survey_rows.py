"""Grids, clouds, hodograph fields and generators run the state-tuple code.

A single point runs a row: a closed-form family has one (u, v) value row
over (x, y), and a custom-fg family one row per generator over (s,).  A
block of points runs a generated pass that loops over the points itself:
one filter pass per grid and per cloud (``hodograph._filter_pass``), one
check pass per closed-form family and one deviation pass per sweep, each
built once per run.  A row or a pass point that raises is redone on the
tree walker.  These tests hold the rows and passes to the
one-expression-at-a-time evaluation they replace: each filter on its own
with ``compile`` (whose fallback is the tree walker), taken in order until
the first reject, and ``evaluate`` and ``derivative`` of each field and
generator.  ``cli.sample_cloud`` draws in blocks and must give the
points, the error and the random stream of one draw per attempt."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncanon import cli, hodograph
from noncanon.cli import ConfigError, load_config, run
from noncanon.expressions import (
    EVALUATION_ERRORS,
    DomainError,
    compile,
    derivative,
    evaluate,
    parse,
)
from noncanon.hodograph import (
    DomainFilter,
    Grid2D,
    HodographFamily,
    _GeneratorSolver,
    build_family,
    default_filters,
)

_coordinate = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])
)


def _bits(values):
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


def _outcome(fn, *args):
    """The bits of a result, or the type and message of the error raised."""
    try:
        result = fn(*args)
    except EVALUATION_ERRORS as err:
        return type(err), str(err)
    return _bits(result) if isinstance(result, (tuple, list)) else result


def _filter_by_compile(flt, env):
    try:
        v = compile(flt.expr)(env)[0]
    except DomainError:
        return False
    if math.isnan(v):
        return False
    if flt.min_abs is not None and abs(v) < flt.min_abs:
        return False
    if flt.minimum is not None and v < flt.minimum:
        return False
    return True


def _filters_one_at_a_time(filters, names, parameters, x):
    env = {**parameters, **dict(zip(names, x))}
    return all(_filter_by_compile(f, env) for f in filters)


# --- filters ------------------------------------------------------------------

FILTERS = [
    DomainFilter(parse("x"), min_abs=0.1),
    DomainFilter(parse("log(y) + beta"), minimum=-1.0),
    DomainFilter(parse("1/(x - y)"), min_abs=0.5),
    DomainFilter(parse("sqrt(x*y)^3 - x"), minimum=-2.0),
    # inf - inf: a NaN value rejects its point
    DomainFilter(parse("(1e308*y)^2 - (1e308*y)^2"), min_abs=1.0),
]


def _cloud_kept(filters, names, parameters, points):
    """The points that the cloud filter pass keeps, run as
    ``cli.sample_cloud`` runs it on a block of draws."""
    draws = np.array(points, dtype=float).reshape(-1, len(names))
    keep = hodograph._filter_pass(filters, names)
    count = keep(parameters, draws.tolist(), memoryview(draws.reshape(-1)))
    return draws[:count]


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=6),
    beta=st.sampled_from([0.0, 0.5, -1.5]),
)
# 1/(x - y) and log(y) raise in generated code, a reject on the tree walker
@example([(1.0, 1.0), (2.0, -1.0), (0.5, 1.0)], 0.5)
def test_filter_row_equals_the_filters_one_at_a_time(points, beta):
    params = {"beta": beta}
    want = [p for p in points if _filters_one_at_a_time(FILTERS, ("x", "y"), params, p)]
    assert want == [p for p in points if hodograph._admitted(FILTERS, ("x", "y"), params, p)]
    got = _cloud_kept(FILTERS, ("x", "y"), params, points)
    assert _bits(got.ravel().tolist()) == _bits([v for p in want for v in p])


def test_a_filter_error_is_raised_unless_an_earlier_filter_rejects():
    # ``gamma`` is unbound: only a domain error is a reject, so the point
    # raises, unless the filter before it has already rejected it
    filters = [DomainFilter(parse("x"), min_abs=0.5), DomainFilter(parse("gamma*y"))]
    assert len(_cloud_kept(filters, ("x", "y"), {}, [(0.1, 1.0)])) == 0
    with pytest.raises(EVALUATION_ERRORS) as err:
        _cloud_kept(filters, ("x", "y"), {}, [(0.1, 1.0), (1.0, 1.0)])
    assert str(err.value) == "unbound name 'gamma'"
    with pytest.raises(type(err.value), match="unbound name 'gamma'"):
        _filters_one_at_a_time(filters, ("x", "y"), {}, (1.0, 1.0))


def test_a_grid_whose_filter_values_are_all_nan_has_no_admissible_points(tmp_path, capsys):
    # each point's loglog filter is inf - inf: a value that cannot be
    # compared rejects its point, so no point is left to check
    doc = {
        "version": 1,
        "hodograph": {
            "kind": "loglog",
            "parameters": {"alpha": 1.0, "u0": 1e200, "v0": 1e200},
            "grid": {"x": [-1.0, 1.0, 3], "y": [1e200, 2e200, 3]},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["hodograph", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: grid has no admissible points\n"


@pytest.mark.parametrize("kind", ["linear", "log", "loglog"])
def test_grid_points_equal_the_filters_one_at_a_time(kind):
    params = {"alpha": 1.2, "u0": 0.3, "v0": 0.2}
    filters = (*default_filters(kind, 0.05), DomainFilter(parse("log(x + 1)"), min_abs=0.2))
    grid = Grid2D((-1.0, 1.0), (-3.0, 3.0), 23, 19, filters)
    want = [
        (x, y)
        for x in np.linspace(-1.0, 1.0, 23).tolist()
        for y in np.linspace(-3.0, 3.0, 19).tolist()
        if _filters_one_at_a_time(filters, ("x", "y"), params, (x, y))
    ]
    got = grid.points(params)
    assert 0 < len(got) < 23 * 19
    assert _bits(got.ravel().tolist()) == _bits(np.array(want).ravel().tolist())


# --- clouds --------------------------------------------------------------------


def _one_draw_per_attempt(cfg, rng):
    """``sample_cloud`` as one draw and one filter pass per attempt."""
    block = cfg.raw.get("cloud", {})
    count = block.get("count", 100)
    names = cfg.structure.variable_names
    lo, hi = np.array(cli._ranges(block, "ranges", names, [-1.5, 1.5], "$.cloud")).T
    filters = cli._filters_from_config(block, "$.cloud")
    points = []
    for _ in range(200 * count):
        x = lo + (hi - lo) * rng.random(len(names))
        if _filters_one_at_a_time(filters, names, cfg.parameters, x.tolist()):
            points.append(x)
            if len(points) == count:
                return np.array(points)
    raise ConfigError("$.cloud", "domain filters rejected too many samples")


def _cloud_config(tmp_path, count, filters, parameters=None):
    doc = {
        "version": 1,
        "phase_space": {"n": 2},
        "parameters": parameters or {},
        "structure": {"kind": "theta-f-field", "theta": {"1,2": "-q1/p2"}, "f": {"1,2": "-p2/q1"}},
        "cloud": {
            "count": count,
            "ranges": {"q1": [-0.5, 1.8], "p2": [-1.0, 1.8]},
            "filters": filters,
        },
    }
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_config(path)


@pytest.mark.parametrize(
    "count, filters",
    [
        (1, []),
        (100, []),
        (100, [{"expr": "q1", "min_abs": 0.2}, {"expr": "p2", "min_abs": 0.2}]),
        # about one draw in 40 is kept
        (60, [{"expr": "log(q1) + log(p2) + w", "min": 0.0}, {"expr": "q2", "min_abs": 1.2}]),
    ],
)
@pytest.mark.parametrize("seed", [0, 14, 2111])
def test_block_draws_give_the_cloud_and_stream_of_one_draw_per_attempt(
    tmp_path, count, filters, seed
):
    cfg = _cloud_config(tmp_path, count, filters, {"w": 0.5})
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = cli.sample_cloud(cfg, rng)
    want = _one_draw_per_attempt(cfg, reference_rng)
    assert got.shape == (count, 4)
    assert _bits(got.ravel().tolist()) == _bits(want.ravel().tolist())
    assert rng.random(3).tolist() == reference_rng.random(3).tolist()


@pytest.mark.parametrize("seed", [0, 3])
def test_the_attempt_bound_is_reached_with_the_same_draws(tmp_path, seed):
    # p2 >= 1.79 keeps about one draw in 280, so 200 * 5 attempts rarely fill
    # five points; both give up after exactly 1000 draws
    cfg = _cloud_config(tmp_path, 5, [{"expr": "p2 - 1.79", "min": 0.0}])
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    outcomes = []
    for sample, generator in ((cli.sample_cloud, rng), (_one_draw_per_attempt, reference_rng)):
        try:
            outcomes.append(_bits(sample(cfg, generator).ravel().tolist()))
        except ConfigError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    assert rng.random(3).tolist() == reference_rng.random(3).tolist()


# --- closed-form families --------------------------------------------------------

FAMILIES = {
    "linear": build_family("linear", {"alpha": 1.3}),
    "log": build_family("log", {"alpha": 0.9, "u0": 1.2}),
    "loglog": build_family("loglog", {"alpha": 1.1, "u0": 0.3, "v0": 0.2}, branch="-"),
    # u meets its domain error before v's
    "mixed": HodographFamily("mixed", {"c": 2.0}, parse("log(x) + c"), parse("1/y + sqrt(x*y)")),
}


def _tree_uv(family, x, y):
    env = {**family.parameters, "x": x, "y": y}
    return evaluate(family.u_expr, env), evaluate(family.v_expr, env)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=80, deadline=None)
@given(x=_coordinate, y=_coordinate)
def test_field_values_match_the_tree_walker(name, x, y):
    family = FAMILIES[name]
    assert _outcome(family.evaluate_uv, x, y) == _outcome(_tree_uv, family, x, y)


def _row_spy(monkeypatch):
    built = []
    generate = hodograph._generate_row

    def spy(structure, exprs, variables=()):
        built.append((tuple(structure.variable_names), len(exprs), tuple(variables)))
        return generate(structure, exprs, variables)

    monkeypatch.setattr(hodograph, "_generate_row", spy)
    return built


def _pass_spy(monkeypatch):
    """The results of each generated pass built."""
    built = []
    generate = hodograph._generate_pass

    def spy(gen, results, *args):
        built.append(tuple(results))
        return generate(gen, results, *args)

    monkeypatch.setattr(hodograph, "_generate_pass", spy)
    return built


FILTER_PASS = ("kept",)
CHECK_PASS = ("u", "ux", "uy", "v", "vx", "vy")
DEVIATION_PASS = ("u", "v")


def test_a_hodograph_run_builds_each_row_once(tmp_path, monkeypatch):
    # one filter pass for the grid, the check pass over the family's
    # partials and one deviation pass for the sweep, whose alphas enter as
    # arguments; no row, and nothing per point
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "version": 1,
        "hodograph": {
            "kind": "log",
            "parameters": {"alpha": 1.0},
            "grid": {"x": [0.5, 3.0, 21], "y": [-2.0, 2.0, 21]},
            "alphas": [1.0, 10.0, 100.0],
        },
    }), encoding="utf-8")
    built = _row_spy(monkeypatch)
    passes = _pass_spy(monkeypatch)
    reads = []
    evaluate_uv = HodographFamily.evaluate_uv

    def counted(*args):
        reads.append(args)
        return evaluate_uv(*args)

    monkeypatch.setattr(HodographFamily, "evaluate_uv", counted)
    run("hodograph", load_config(path), tmp_path / "out")
    assert built == []
    assert passes.count(FILTER_PASS) == 1
    assert passes.count(CHECK_PASS) == 1
    assert passes.count(DEVIATION_PASS) == 1
    assert len(passes) == 3
    assert reads == []


def test_a_cloud_builds_one_filter_row(tmp_path, monkeypatch):
    filters = [{"expr": "q1", "min_abs": 0.2}, {"expr": "p2", "min_abs": 0.2}]
    cfg = _cloud_config(tmp_path, 100, filters)
    rows = _row_spy(monkeypatch)
    built = []
    filter_pass = hodograph._filter_pass

    def spy(filters, names):
        built.append((tuple(names), len(filters)))
        return filter_pass(filters, names)

    monkeypatch.setattr(hodograph, "_filter_pass", spy)
    passes = _pass_spy(monkeypatch)
    cli.sample_cloud(cfg, np.random.default_rng(1))
    assert built == [(("q1", "q2", "p1", "p2"), 2)]
    assert passes == [FILTER_PASS] and rows == []


# --- generators ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(s=_coordinate)
def test_generator_rows_match_the_tree_walker(s):
    family = build_family(
        "custom-fg", {"a": 0.7}, f="a*s^3 + exp(s/2)", g="log(s^2 + 1) - sqrt(s*s)"
    )
    solver = _GeneratorSolver(family)
    for name in ("f_expr", "g_expr"):
        expr = getattr(family, name)
        env = {"a": 0.7, "s": s}
        assert _outcome(solver._gen, name, s) == _outcome(evaluate, expr, env)
        assert _outcome(solver._gen_prime, name, s) == _outcome(derivative, expr, "s", env)


def test_a_generator_value_survives_a_slope_without_value():
    solver = _GeneratorSolver(build_family("custom-fg", {}, f="sqrt(s)", g="s"))
    assert solver._gen("f_expr", 0.0) == 0.0
    with pytest.raises(DomainError, match=r"sqrt derivative at zero in 'sqrt\(s\)'"):
        solver._gen_prime("f_expr", 0.0)


def test_a_custom_fg_run_builds_one_row_per_generator(tmp_path, monkeypatch):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({
        "version": 1,
        "hodograph": {"kind": "custom-fg", "parameters": {"alpha": 1.0}, "f": "alpha*s",
                      "g": "-alpha*s", "grid": {"x": [0.4, 1.4, 4], "y": [-1.0, 1.0, 4]}},
    }), encoding="utf-8")
    built = _row_spy(monkeypatch)
    passes = _pass_spy(monkeypatch)
    run("hodograph", load_config(path), tmp_path / "out")
    assert built == [(("s",), 1, ("s",))] * 2
    # the solver is no generated code: its checks run point by point
    assert passes == [FILTER_PASS]
