"""The tree walker's power, exp and sqrt rules call the helpers that
generated code calls (``_pow_checked``, ``_pow_partial``, ``_exp``,
``_sqrt_partial``).  Each rule must give the result of its former inline
form bit for bit (kept below as the reference), or fail with the same
error type and message, for plain floats and ``Dual`` operands alike."""

import itertools
import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon.expressions import (
    Binary,
    DomainError,
    Dual,
    Name,
    Unary,
    _eval,
    _is_integer,
    _pow_value,
    _real,
    to_source,
)


def reference_pow(left, right, node):
    lv = _real(left)
    rv = _real(right)
    exponent_varies = isinstance(right, Dual) and right.deriv != 0.0
    if lv < 0.0:
        if exponent_varies or not _is_integer(rv):
            raise DomainError(
                "negative base with non-integer exponent", to_source(node)
            )
    if lv == 0.0 and rv < 0.0:
        raise DomainError("zero raised to a negative power", to_source(node))
    if not isinstance(left, Dual) and not isinstance(right, Dual):
        return _pow_value(lv, rv, node)
    value = _pow_value(lv, rv, node)
    deriv = 0.0
    if isinstance(left, Dual) and left.deriv != 0.0:
        if lv == 0.0:
            if rv == 1.0:
                deriv += left.deriv
            elif rv > 1.0:
                pass
            else:
                raise DomainError(
                    "derivative of power undefined at zero base", to_source(node)
                )
        else:
            deriv += rv * _pow_value(lv, rv - 1.0, node) * left.deriv
    if exponent_varies:
        if lv <= 0.0:
            raise DomainError(
                "variable exponent requires positive base", to_source(node)
            )
        deriv += value * math.log(lv) * right.deriv
    return Dual(value, deriv)


def reference_exp(v, e):
    rv = _real(v)
    try:
        ev = math.exp(rv)
    except OverflowError:
        ev = math.inf
    if isinstance(v, Dual):
        return Dual(ev, ev * v.deriv if v.deriv != 0.0 else 0.0)
    return ev


def reference_sqrt(v, e):
    rv = _real(v)
    if rv < 0.0:
        raise DomainError("sqrt of negative value", to_source(e))
    if isinstance(v, Dual):
        if rv == 0.0 and v.deriv != 0.0:
            raise DomainError("sqrt derivative at zero", to_source(e))
        root = math.sqrt(rv)
        return Dual(root, 0.0 if v.deriv == 0.0 else v.deriv / (2.0 * root))
    return math.sqrt(rv)


def _bits(x: float) -> str:
    # one token for every NaN: the interpreter, not the rule, picks a NaN's sign
    return "nan" if math.isnan(x) else struct.pack("<d", x).hex()


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as err:  # any error must match in type and message
        return type(err).__name__, str(err)
    if isinstance(out, Dual):
        return "dual", _bits(out.value), _bits(out.deriv)
    return type(out).__name__, _bits(out)


POWER = Binary("^", Name("a"), Name("b"))
UNARY = {
    "exp": (Unary("exp", Name("a")), reference_exp),
    "sqrt": (Unary("sqrt", Name("a")), reference_sqrt),
}

SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5, -0.5, 2.5, -2.5,
    1e-310, 1e300, -1e300, 710.0, math.inf, -math.inf, math.nan,
]
PARTS = [None, 0.0, -0.0, 1.0, -2.5, math.inf, math.nan]  # None: a plain float

values = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-12, 12).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)
parts = st.one_of(st.sampled_from(PARTS), st.floats(allow_nan=True, allow_infinity=True))


def _operand(value, part):
    return value if part is None else Dual(value, part)


operands = st.builds(_operand, values, parts)


def _assert_power(left, right):
    got = _outcome(_eval, POWER, {"a": left, "b": right})
    assert got == _outcome(reference_pow, left, right, POWER), (left, right)


def _assert_unary(op, arg):
    node, reference = UNARY[op]
    assert _outcome(_eval, node, {"a": arg}) == _outcome(reference, arg, node), (op, arg)


@settings(max_examples=1000, deadline=None)
@given(operands, operands)
def test_power_matches_inline_rule(left, right):
    _assert_power(left, right)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(UNARY)), operands)
def test_exp_and_sqrt_match_inline_rules(op, arg):
    _assert_unary(op, arg)


def test_every_special_operand_pair():
    grid = [_operand(v, d) for v, d in itertools.product(SPECIAL, PARTS)]
    for left, right in itertools.product(grid, grid):
        _assert_power(left, right)
    for op, arg in itertools.product(sorted(UNARY), grid):
        _assert_unary(op, arg)


def test_integer_exponent_that_varies_keeps_its_message():
    # the inline rule raised before computing the value; the helpers compute
    # it first, which cannot fail for a negative base and an integer exponent
    for left in (-2.0, Dual(-2.0, 1.0)):
        out = _outcome(_eval, POWER, {"a": left, "b": Dual(3.0, 1.0)})
        assert out == ("DomainError", "negative base with non-integer exponent in 'a^b'")
