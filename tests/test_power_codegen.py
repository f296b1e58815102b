"""Fixed-exponent powers in generated code.

A power with a fixed integer exponent ``c >= 0`` is generated as a bare
``math.pow`` call, and the partial of ``x^2`` as ``2.0 * x`` times the dual
part, because ``math.pow(x, 1.0)`` is ``x`` bit for bit.  An overflowing
``math.pow`` is an evaluation error like any other: the call reruns on the
tree walker, whose overflow-safe ``pow`` returns the signed infinity, and
only there does the tree walker run.  On finite states of a quadratic
Hamiltonian neither that wrapper nor ``_pow_value`` is called."""

import math
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncanon import expressions
from noncanon.brackets import canonical
from noncanon.dynamics import _flow_step, _generate_step, _monitor_pass, _rk4_step, _Velocity
from noncanon.expressions import (
    DomainError,
    _generate_row,
    _reference_row,
    compile,
    evaluate,
    gradient,
    parse,
)


def _loop_step(loop, x, dt):
    """The state one step of a generated loop stores after ``x``."""
    states = np.zeros((2, len(x)))
    loop(list(x), dt, 0, 1, memoryview(states.reshape(-1)))
    return states[1].tolist()


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(
    st.integers(0, 2**64 - 1).map(lambda n: struct.unpack("<d", struct.pack("<Q", n))[0]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_pow_one_is_the_identity(x):
    assert _bits(math.pow(x, 1.0)) == _bits(x)


# --- generated code against the tree walker, which reruns only overflows ---------

_POINTS = sorted(
    {s * m * 10.0**k for s in (1.0, -1.0) for m in (1.0, 3.7) for k in range(50, 161, 10)}
    | {5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308}
    | {0.0, -0.0, math.inf, -math.inf},
) + [math.nan]
_SOURCES = ["q1^{c}", "-(q1*p1)^{c}/3", "p1 + (q1 - p1)^{c}"]
_NAMES = ("q1", "p1")


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or _bits(a) == _bits(b)


@pytest.fixture
def fallback_on_overflow(monkeypatch) -> list:
    """The arguments of each rerun of a ``compile`` function on the tree
    walker, its redo, which may run only where a ``math.pow`` of the call
    overflowed: the redo runs inside the generated function's ``except``,
    so the error being handled is the one that sent it there."""
    reruns = []
    build = expressions._redo

    def spy(*args):
        redo = build(*args)

        def guarded(*args):
            if not isinstance(sys.exc_info()[1], OverflowError):
                raise AssertionError("the tree walker ran")
            reruns.append(args)
            return redo(*args)

        return guarded

    monkeypatch.setattr(expressions, "_redo", spy)
    return reruns


@pytest.mark.parametrize("source", _SOURCES)
@pytest.mark.parametrize("c", range(7))
def test_fixed_exponents_match_the_tree_walker(fallback_on_overflow, source, c):
    e = parse(source.format(c=c))
    fn = compile(e, _NAMES)
    value_only = compile(e)
    for env in ({"q1": q1, "p1": p1} for q1 in _POINTS for p1 in (0.75, -q1 / 2.0)):
        value = evaluate(e, env)
        assert _same(value_only(env)[0], value)
        try:
            partials = gradient(e, _NAMES, env)
        except DomainError:  # the partial of x^0 at a zero base
            with pytest.raises(AssertionError, match="the tree walker ran"):
                fn(env)
            continue
        got_value, got_partials = fn(env)
        assert _same(got_value, value), (env, got_value, value)
        assert all(map(_same, got_partials, partials)), (env, got_partials, partials)


def test_overflow_gives_signed_infinities_on_the_tree_walker(fallback_on_overflow):
    value, (partial,) = compile(parse("q1^3"), ("q1",))({"q1": -1e200})
    assert value == -math.inf and partial == math.inf
    value, (partial,) = compile(parse("q1^2"), ("q1",))({"q1": -1e160})
    assert value == math.inf and _bits(partial) == _bits(2.0 * -1e160)
    assert len(fallback_on_overflow) == 2


def test_an_overflowing_row_reruns_once_on_the_tree_walker():
    row = _generate_row(canonical(1), [parse("q1^2")])
    with mock.patch.object(expressions, "_reference_row", wraps=_reference_row) as redo:
        assert list(row((1e200, 0.0))) == [math.inf]
    assert redo.call_count == 1


def _generated(fn):
    """The generated function behind ``fn``: ``fn`` itself, or the pass that
    a row or a ``compile`` function runs over its block of one."""
    cells = [cell.cell_contents for cell in fn.__closure__ or ()]
    return next((c for c in cells if getattr(c, "__name__", "") == "_compiled"), fn)


def test_generated_code_binds_bare_pow_and_no_overflow_variant():
    structure, h = canonical(1), parse("q1^4/4 + p1^2/2")
    for fn in (
        compile(h, ("q1", "p1")),
        _generate_row(structure, [h], ("q1",)),
        _generate_step(structure, h, "rk4"),
        _generate_step(structure, h, "midpoint"),
    ):
        fn = _generated(fn)
        assert fn.__globals__["_pow"] is math.pow
        assert "_ieee" not in fn.__globals__ and "_overflow" not in fn.__globals__


# --- no wrapper call on finite states ----------------------------------------------

_QUADRATIC = (canonical(1), parse("(p1^2 + q1^2)/2"))


def _count_wrapper_calls(monkeypatch) -> dict:
    """Counts of the overflow-safe pow, which generated code reaches only
    through ``_pow_value`` or a rerun on the tree walker, and of
    ``_pow_value`` in code generated from now on; a tree walk that must not
    count has to run first."""
    calls = {"ieee": 0, "pow_value": 0}
    ieee, pow_value = expressions._pow_ieee, expressions._pow_value

    def counted_ieee(lv, rv):
        calls["ieee"] += 1
        return ieee(lv, rv)

    def counted_pow_value(lv, rv, node):
        calls["pow_value"] += 1
        return pow_value(lv, rv, node)

    monkeypatch.setattr(expressions, "_pow_ieee", counted_ieee)
    monkeypatch.setitem(expressions._GENERATED_GLOBALS, "_pow_value", counted_pow_value)
    return calls


def test_quadratic_flow_makes_no_wrapper_call(monkeypatch):
    structure, h = _QUADRATIC
    reference = _Velocity(structure, h)
    states = np.random.default_rng(9).uniform(-10.0, 10.0, size=(200, 2))
    steps = [_rk4_step(reference, x, 0.01).tolist() for x in states]
    energies = [evaluate(h, {"q1": q, "p1": p}) for q, p in states.tolist()]
    calls = _count_wrapper_calls(monkeypatch)
    step = _generate_step(structure, h, "rk4")
    assert [_loop_step(step, x, 0.01) for x in states.tolist()] == steps
    monitors, _ = _monitor_pass(structure, {"H": h}, states)
    assert monitors["H"].tolist() == energies
    assert calls == {"ieee": 0, "pow_value": 0}


def test_overflow_reruns_with_the_wrapper(monkeypatch):
    # the counters themselves work: a monitor row whose square overflows,
    # and the quartic step from 1e80 whose third stage overflows, rerun on
    # the tree walker, which calls the overflow-safe pow
    structure, h = _QUADRATIC
    calls = _count_wrapper_calls(monkeypatch)
    monitors, _ = _monitor_pass(structure, {"H": h}, np.array([[1e200, 0.0]]))
    assert monitors["H"].tolist() == [math.inf]
    assert calls == {"ieee": 2, "pow_value": 0}  # q1^2 and p1^2, in the rerun
    loop = _generate_step(structure, parse("q1^4/4 + p1^2/2"), "rk4")
    with pytest.raises(OverflowError):
        _loop_step(loop, [1e80, 0.0], 0.1)
    assert calls == {"ieee": 2, "pow_value": 0}
    states = np.array([[1e80, 0.0], [1e80, 0.0]])
    _flow_step(structure, parse("q1^4/4 + p1^2/2"), "rk4")(states, 0.1)
    assert not all(map(math.isfinite, states[1].tolist()))
    assert calls["ieee"] > 2 and calls["pow_value"] == 0
