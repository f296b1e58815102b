"""Expression parsing, evaluation, and exact differentiation."""

import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from noncanon.expressions import (
    Binary,
    Const,
    DomainError,
    Dual,
    Name,
    ParseError,
    Unary,
    UnboundNameError,
    derivative,
    evaluate,
    free_names,
    gradient,
    is_constant_over,
    parse,
    substitute,
    to_source,
)


class TestParsing:
    def test_names_and_parameters(self):
        e = parse("q1 + theta*p2")
        assert free_names(e) == {"q1", "theta", "p2"}
        assert evaluate(e, {"q1": 1.0, "theta": 2.0, "p2": 3.0}) == 7.0

    def test_negated_quotient(self):
        e = parse("-(p2/q1)")
        assert isinstance(e, Unary) and e.op == "neg"
        assert evaluate(e, {"p2": 6.0, "q1": 2.0}) == -3.0

    def test_field_expression(self):
        # the exponential-generator solution field, evaluated against math
        e = parse("(y/alpha)*exp(x/alpha)/(1 - exp(x/alpha))")
        env = {"x": 0.7, "y": -1.3, "alpha": 2.0}
        expected = (-1.3 / 2.0) * math.exp(0.35) / (1.0 - math.exp(0.35))
        assert evaluate(e, env) == pytest.approx(expected, rel=1e-15)

    def test_power_is_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_unary_minus_binds_tighter_than_multiply(self):
        assert evaluate(parse("-2*3"), {}) == -6.0
        assert evaluate(parse("2^-1"), {}) == 0.5

    def test_numbers(self):
        assert evaluate(parse("1.5e-2"), {}) == 0.015
        assert evaluate(parse(".5 + 2."), {}) == 2.5

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("q1 +* p1")
        assert err.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'tan'"):
            parse("tan(q1)")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(q1 + p1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("q1 q2")


class TestEvaluation:
    def test_product(self):
        assert evaluate(parse("q1*p2"), {"q1": 2.0, "p2": 3.0}) == 6.0

    def test_signed_ratio(self):
        assert evaluate(parse("-p2/q1"), {"q1": 1.0, "p2": 1.0}) == -1.0

    def test_implicit_bracket_fixture(self):
        assert evaluate(parse("q1/(1-p2)"), {"q1": 1.0, "p2": 0.5}) == 2.0

    def test_unbound_name(self):
        with pytest.raises(UnboundNameError, match="theta"):
            evaluate(parse("theta*q1"), {"q1": 1.0})

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(DomainError) as err:
            evaluate(parse("1 + p2/q1"), {"p2": 1.0, "q1": 0.0})
        assert err.value.subexpression == "p2/q1"

    def test_log_domain(self):
        with pytest.raises(DomainError, match="log"):
            evaluate(parse("log(q1)"), {"q1": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(DomainError, match="sqrt"):
            evaluate(parse("sqrt(q1)"), {"q1": -4.0})

    def test_negative_base_integer_power(self):
        assert evaluate(parse("q1^2"), {"q1": -3.0}) == 9.0

    def test_negative_base_fractional_power(self):
        with pytest.raises(DomainError):
            evaluate(parse("q1^0.5"), {"q1": -3.0})

    def test_deterministic(self):
        e = parse("sin(q1)*exp(p1/3) - q1^3/7")
        env = {"q1": 0.7372915, "p1": -1.118033}
        values = {evaluate(e, env) for _ in range(100)}
        assert len(values) == 1


class TestDerivative:
    def test_square(self):
        assert derivative(parse("q1^2"), "q1", {"q1": 3.0}) == 6.0

    def test_quotient_analytic_oracle(self):
        # d/dp2 q1/(1-p2) = q1/(1-p2)^2 = 4 at (1, 0.5)
        assert derivative(parse("q1/(1-p2)"), "p2", {"q1": 1.0, "p2": 0.5}) == 4.0

    def test_sine_at_zero(self):
        assert derivative(parse("sin(q1)"), "q1", {"q1": 0.0}) == 1.0

    def test_absent_variable(self):
        assert derivative(parse("q1^2"), "p1", {"q1": 3.0, "p1": 1.0}) == 0.0

    def test_gradient_order(self):
        g = gradient(parse("q1*p1^2"), ("q1", "p1"), {"q1": 2.0, "p1": 3.0})
        assert g == [9.0, 12.0]

    def test_variable_exponent(self):
        env = {"q1": 2.0, "p1": 3.0}
        got = derivative(parse("q1^p1"), "q1", env)
        assert got == pytest.approx(3.0 * 2.0**2, rel=1e-15)
        got = derivative(parse("q1^p1"), "p1", env)
        assert got == pytest.approx(8.0 * math.log(2.0), rel=1e-15)


# --- randomized agreement with an independent finite-difference oracle ----

_LEAVES = ["q1", "q2", "p1", "p2", "alpha"]
_FUNCS = ["exp", "log", "sqrt", "sin", "cos"]


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.35:
            return Const(round(rng.uniform(-2.0, 2.0), 3))
        return Name(rng.choice(_LEAVES))
    roll = rng.random()
    if roll < 0.15:
        return Unary("neg", _random_tree(rng, depth - 1))
    if roll < 0.35:
        return Unary(rng.choice(_FUNCS), _random_tree(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    if op == "^":
        right = Const(rng.choice([2.0, 3.0, 0.5, -1.0]))
    return Binary(op, left, right)


def _central_difference(e, var, env, h=1e-6):
    lo = dict(env)
    hi = dict(env)
    lo[var] -= h
    hi[var] += h
    return (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * h)


def test_dual_derivative_matches_finite_differences():
    rng = random.Random(20240811)
    checked = 0
    while checked < 1000:
        e = _random_tree(rng, rng.randint(1, 6))
        env = {name: rng.uniform(-1.5, 1.5) for name in _LEAVES}
        var = rng.choice(_LEAVES)
        try:
            value = evaluate(e, env)
            exact = derivative(e, var, env)
            if abs(value) > 1e3 or abs(exact) > 1e3:
                continue
            approx = _central_difference(e, var, env)
        except DomainError:
            continue
        assert abs(exact - approx) <= 1e-5 * (1.0 + abs(value)), to_source(e)
        checked += 1


def test_derivative_is_linear():
    rng = random.Random(7)
    names = ("q1", "p1")
    for _ in range(200):
        e1 = _random_tree(rng, 3)
        e2 = _random_tree(rng, 3)
        a = rng.uniform(-3.0, 3.0)
        env = {"q1": rng.uniform(-1.0, 1.0), "p1": rng.uniform(-1.0, 1.0),
               "q2": 0.1, "p2": 0.2, "alpha": 0.9}
        combined = Const(a) * e1 + e2
        try:
            lhs = derivative(combined, "q1", env)
            rhs = a * derivative(e1, "q1", env) + derivative(e2, "q1", env)
        except DomainError:
            continue
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1.0 + abs(rhs)))


# --- round trips -----------------------------------------------------------

_expr_strategy = st.recursive(
    st.one_of(
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False).map(Const),
        st.sampled_from(_LEAVES).map(Name),
    ),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children).map(
            lambda t: Binary(*t)
        ),
        st.tuples(st.sampled_from(["neg"] + _FUNCS), children).map(
            lambda t: Unary(*t)
        ),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_expr_strategy)
def test_print_parse_round_trip(e):
    assert parse(to_source(e)) == e


def _same(a: float, b: float) -> bool:
    # bit equality, so -0.0 is not 0.0; NaN payloads are not compared
    if a != a and b != b:
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=200, deadline=None)
@given(_expr_strategy)
# inf - inf: a NaN, which == would call a mismatch
@example(parse("1.0/2.2250738585e-313 - 1.0/2.2250738585e-313"))
def test_round_trip_preserves_values(e):
    env = {"q1": 0.7, "q2": -0.4, "p1": 1.2, "p2": 0.3, "alpha": 1.5}
    try:
        expected = evaluate(e, env)
    except DomainError:
        return
    assert _same(evaluate(parse(to_source(e)), env), expected)


# --- misc ------------------------------------------------------------------

def test_substitute():
    e = parse("p1^2 + q1")
    out = substitute(e, {"p1": parse("(q2 - c2)/theta")})
    env = {"q1": 1.0, "q2": 3.0, "c2": 1.0, "theta": 2.0}
    assert evaluate(out, env) == 2.0

def test_is_constant_over():
    assert is_constant_over(parse("alpha*2"), ("q1", "p1"))
    assert not is_constant_over(parse("alpha*q1"), ("q1", "p1"))


def test_dual_arithmetic():
    x = Dual(3.0, 1.0)
    y = (x * x + 2.0) / x
    assert y.value == pytest.approx(11.0 / 3.0)
    assert y.deriv == pytest.approx(1.0 - 2.0 / 9.0)
