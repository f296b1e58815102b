"""Generated forward-mode code against the tree walker it unrolls.

``compile(e, names)(env)`` must equal ``(evaluate(e, env), gradient(e,
names, env))`` bit for bit, signed zeros included, raise the tree walker's
error wherever the tree walker raises, and never fall back to the tree
walker where the tree walker succeeds."""

import math
import struct
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon import dynamics, expressions, reduction
from noncanon.cli import load_config, run
from noncanon.expressions import (
    EVALUATION_ERRORS,
    Binary,
    Const,
    DomainError,
    Name,
    Unary,
    UnboundNameError,
    compile,
    evaluate,
    gradient,
    parse,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

NAMES = ("q1", "q2", "p1")
_LEAVES = ["q1", "q2", "p1", "alpha"]
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e-200, -1e-200, 1e200, -1e200,
            math.inf, -math.inf, math.nan]


def _same(a: float, b: float) -> bool:
    # bit equality, signed zeros included; NaN payloads are not compared
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


def _no_tree_walk(*args):
    raise AssertionError("generated code fell back to the tree walker")


def _tree(e, env, names):
    """(value, partials) from the tree walker, or the error it raises."""
    try:
        return evaluate(e, env), tuple(gradient(e, names, env))
    except EVALUATION_ERRORS as err:
        return err


def assert_matches_tree(e, env, names=NAMES):
    expected = _tree(e, env, names)
    fn = compile(e, names)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            fn(env)
        assert str(raised.value) == str(expected)
        return
    with mock.patch.object(expressions, "_eval", _no_tree_walk):
        value, partials = fn(env)
    assert _same(value, expected[0]), (value, expected[0])
    assert len(partials) == len(expected[1])
    for got, want in zip(partials, expected[1]):
        assert _same(got, want), (partials, expected[1])


# --- property: random trees at random points -------------------------------

_numbers = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
_constants = st.one_of(st.sampled_from([*_SPECIAL, 3.0, -3.5, 1.5, 1e300]), _numbers)


@st.composite
def _trees(draw, depth=5):
    # the shape weights of test_expressions._random_tree
    if depth == 0 or draw(st.integers(0, 9)) < 3:
        if draw(st.integers(0, 2)) == 0:
            return Const(draw(_constants))
        return Name(draw(st.sampled_from(_LEAVES)))
    roll = draw(st.integers(0, 19))
    if roll < 3:
        return Unary("neg", draw(_trees(depth - 1)))
    if roll < 7:
        return Unary(draw(st.sampled_from(expressions.FUNCTIONS)), draw(_trees(depth - 1)))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    return Binary(op, draw(_trees(depth - 1)), draw(_trees(depth - 1)))


_points = st.fixed_dictionaries({name: _numbers for name in _LEAVES})


@settings(max_examples=600, deadline=None)
@given(_trees(), _points)
def test_generated_code_matches_tree_walker(e, env):
    assert_matches_tree(e, env)


@settings(max_examples=200, deadline=None)
@given(_trees(), _points)
def test_value_only_code_matches_tree_walker(e, env):
    assert_matches_tree(e, env, names=())


# --- edge cases ------------------------------------------------------------

EDGE_CASES = {
    # name: (source, point, names, DomainError message fragment or None)
    "zero_to_negative_power": ("q1^-1", {"q1": 0.0}, ("q1",), "zero raised to a negative power"),
    "negative_base_fractional_exponent": (
        "q1^0.5", {"q1": -2.0}, ("q1",), "negative base with non-integer exponent"),
    "variable_exponent_on_zero_base": (
        "q1^p1", {"q1": 0.0, "p1": 2.0}, ("q1", "p1"), "variable exponent requires positive base"),
    "sqrt_value_at_zero": ("sqrt(q1)", {"q1": 0.0}, (), None),
    "sqrt_derivative_at_zero": ("sqrt(q1)", {"q1": 0.0}, ("q1",), "sqrt derivative at zero"),
    "log_of_zero": ("log(q1)", {"q1": 0.0}, ("q1",), "log of non-positive value"),
    "division_by_zero": ("p1/q1", {"p1": 1.0, "q1": -0.0}, ("q1", "p1"), "division by zero"),
    "exp_overflow": ("exp(q1)", {"q1": 1000.0}, ("q1",), None),
    "pow_overflow_signed": ("q1^3", {"q1": -1e200}, ("q1",), None),
    "variable_pow_overflow": ("q1^p1", {"q1": 10.0, "p1": 400.0}, ("q1", "p1"), None),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case(case):
    source, point, names, message = EDGE_CASES[case]
    e = parse(source)
    expected = _tree(e, point, names)
    if message is None:
        assert not isinstance(expected, Exception)
    else:
        assert isinstance(expected, DomainError) and message in str(expected)
    assert_matches_tree(e, point, names)


def test_unbound_name_is_reported_as_by_the_tree_walker():
    e = parse("q1*beta + log(q1)")
    with pytest.raises(UnboundNameError, match="unbound name 'beta'"):
        compile(e, ("q1",))({"q1": 2.0})
    assert_matches_tree(e, {"q1": -1.0}, ("q1",))


def test_overflow_results_are_signed_infinities():
    value, (partial,) = compile(parse("q1^3"), ("q1",))({"q1": -1e200})
    assert value == -math.inf and partial == math.inf
    value, (partial,) = compile(parse("exp(q1)"), ("q1",))({"q1": 1000.0})
    assert value == math.inf and partial == math.inf


# --- flow fixtures with the generated code switched off ------------------------

# fixture: (command, whether it integrates a flow)
FLOW_FIXTURES = {
    "integrate_canonical_oscillator.json": ("integrate", True),
    "integrate_constant_identification.json": ("integrate", True),
    "integrate_singular_field.json": ("integrate", True),
    "reduce_constant.json": ("reduce", True),
    "reduce_singular_field.json": ("reduce", False),
    "sweep_epsilon.json": ("sweep", True),
}


def _artifacts(name, out_dir):
    run(FLOW_FIXTURES[name][0], load_config(FIXTURES / name), out_dir)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


@pytest.mark.parametrize("name", sorted(FLOW_FIXTURES))
def test_fixture_artifacts_match_tree_fallback(name, tmp_path, monkeypatch):
    generated = _artifacts(name, tmp_path / "generated")
    calls = []

    def raising_compile(e, variables=()):
        def disabled(env):
            calls.append(e)
            raise DomainError("generated code disabled", "")

        return disabled

    for module in (dynamics, reduction):
        monkeypatch.setattr(module, "compile", raising_compile)
    assert _artifacts(name, tmp_path / "tree") == generated
    assert bool(calls) == FLOW_FIXTURES[name][1]
