"""The partial of a variable's own power without its zero test.

For a fixed integer exponent c > 1, generated code writes the partial of
``x^c`` with respect to ``x`` as ``c * x^(c-1) + 0.0``, with no test
``x != 0.0``: at x = +-0 the product is +-0 and adding 0.0 gives the +0.0
that ``_pow_partial`` returns there, elsewhere IEEE addition commutes with
the tree walker's ``0.0 + ...``, and ``pow(+-0, c - 1)`` cannot raise.  A
chain-rule partial, whose dual part is not the literal 1.0, keeps its
tests.  Each partial must equal the tree walker's bit for bit, signed zeros
included, or raise the same error, and only the points whose ``math.pow``
overflows may be redone on the tree walker."""

import math
import re
import struct

import pytest

from noncanon import expressions
from noncanon.expressions import EVALUATION_ERRORS, compile, evaluate, gradient, parse
from test_lean_flows import _sources

_XS = [s * v for v in (0.0, 5e-324, 1e-300, 1.5, 1e154, 1e308, math.inf) for s in (1.0, -1.0)]
_XS.append(math.nan)


def _redone(monkeypatch) -> list[float]:
    """The q1 of every point redone on the tree walker from now on."""
    redone = []
    reference_row = expressions._reference_row

    def spy(structure, exprs, x, variables=()):
        redone.append(structure.parameters["q1"])
        return reference_row(structure, exprs, x, variables)

    monkeypatch.setattr(expressions, "_reference_row", spy)
    return redone


def _outcome(fn, *args):
    """The floats ``fn`` returns, as bits (NaN as one mark), or its error."""
    try:
        value, partials = fn(*args)
    except EVALUATION_ERRORS as err:
        return type(err), str(err)
    return [b"nan" if v != v else struct.pack("<d", v) for v in (value, *partials)]


def _reference(e, env):
    return evaluate(e, env), gradient(e, ("q1",), env)


def _overflows(x: float, c: int) -> bool:
    try:
        math.pow(x, c)
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_own_power_partial_has_no_zero_test_and_keeps_the_bits(monkeypatch, c):
    built = _sources(monkeypatch)
    e = parse(f"q1^{c}")
    fn = compile(e, ("q1",))
    (lines,) = built
    source = "\n".join(lines)
    assert "!= 0.0" not in source
    assert re.search(rf"^t\d+ = \({c}\.0\) \* .+ \+ 0\.0$", source, re.M), source
    redone = _redone(monkeypatch)
    for x in _XS:
        env = {"q1": x}
        assert _outcome(fn, env) == _outcome(_reference, e, env), x
    # the rest ran the generated lines, the fold included
    assert redone == [x for x in _XS if _overflows(x, c)]


@pytest.mark.parametrize("text", ["(2*q1)^3", "sin(q1)^2"])
def test_chain_rule_power_partial_keeps_its_zero_tests(monkeypatch, text):
    built = _sources(monkeypatch)
    e = parse(text)
    fn = compile(e, ("q1",))
    (lines,) = built
    source = "\n".join(lines)
    (partial,) = [line for line in source.splitlines() if "!= 0.0" in line]
    assert partial.startswith("t") and " != 0.0 and " in partial
    for x in _XS:
        env = {"q1": x}
        assert _outcome(fn, env) == _outcome(_reference, e, env), x
