"""Infix expression trees with exact forward-mode differentiation.

User-supplied phase-space functions (bracket entries, Hamiltonians,
hodograph generators) enter as infix text, are parsed once into immutable
trees, and are evaluated or differentiated pointwise.  Derivatives come
from dual-number propagation and are exact up to floating point; finite
differences appear only as an independent cross-check in the test suite.

Two evaluators apply the same dual-number rules.  The tree walker
(``evaluate``, ``derivative``, ``gradient``) allocates a ``Dual`` per node
and walks the tree once per variable; it is the reference and the error
reporter.  The emitter (``_Codegen``) unrolls those rules into generated
straight-line code that returns the value and every partial in one go,
bit for bit equal to the tree walker.  The library runs it on a whole
state tuple in one shape, the pass (:func:`_generate_pass`): one
generated function that loops over a block of points itself and runs the
same lines at each.  The passes evaluate a structure's entries, with
their partials for Jacobi checks (:func:`_row_pass`), the flows' monitors
and frozen combinations over the stored states, a grid's or a cloud's
domain filters, and a hodograph family's transport checks and limit
deviations.  A single point is a block of one: a row
(:func:`_generate_row`), a hodograph family's (u, v) at one (x, y) or a
custom generator's value and slope at one s, and ``compile``, one
expression over an empty state with its names read from the env dict it
is called with (no library module calls it).  Each flow's stepping loop
(``dynamics._generate_step``) is generated code of its own.

Where the generated code raises, the tree walker takes over: a pass point
takes its redo, :func:`_reference_row` on the same arguments, and the pass
goes on; so the result or the error is the tree walker's.  Four callers
keep a rule of their own: a flow step is redone by the tree walker on
numpy scalars (``dynamics._flow_step``), a raising filter point takes its
filters one at a time so that a reject before an error wins
(``hodograph._admitted``), a surface round's point that leaves the domain
is recorded as a reject and takes a NaN row (``reduction._surface_q``),
and a generator's value survives an error in its slope
(``hodograph._GeneratorSolver``).

Both evaluators call one set of helpers for the rules that branch on
runtime values (``_exp``, ``_sqrt_partial`` and the ``_pow_*`` helpers), so
generated code cannot drift from the tree walker, which stays the reference.

Powers in generated code: a fixed integer exponent ``c >= 0`` is a bare
``math.pow`` call, and the partial of ``x^2`` is ``2.0 * x`` times the dual
part, because ``math.pow(x, 1.0)`` is ``x`` bit for bit; negative and
variable exponents keep the checked helpers.  ``math.pow`` raises
``OverflowError`` where the tree walker yields a signed infinity
(:func:`_pow_ieee`); that is an evaluation error like any other, so the
pass point takes its redo and a flow step is redone on the tree walker,
and the result is the tree walker's signed infinity.

The emitter leaves out what IEEE arithmetic makes an exact no-op: a
factor spelled as the literal 1.0, the test ``1.0 != 0.0`` of a
variable's own dual part, the test ``x != 0.0`` of the partial of a
variable's own power ``x^c`` (see ``_Codegen._binary``), and a line whose
right-hand side the function has already emitted.  It folds nothing that
could move a bit: not ``0.0 + y`` (``-0.0`` would become ``+0.0``), not
``(2.0*x)/2.0`` (which differs from ``x`` on overflow), and no
reassociation.  The one exception is ``signless`` code, a stepping loop,
whose velocity erases the sign of every zero partial: there a power's
partial drops the ``+ 0.0`` or ``0.0 + `` that makes its zero +0.0 (see
``dynamics._step_source``).

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := base ('^' factor)?
    base   := NUMBER | NAME | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'exp' | 'log' | 'sqrt' | 'sin' | 'cos'

Names match ``[A-Za-z_][A-Za-z0-9_]*``.  The names ``q1..qn, p1..pn`` are
reserved for phase-space variables; any other name is a parameter.
"""

from __future__ import annotations

import builtins
import contextvars
import functools
import math
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, Mapping, Sequence, Union

__all__ = [
    "ExpressionError",
    "ParseError",
    "DomainError",
    "UnboundNameError",
    "Node",
    "Const",
    "Name",
    "Unary",
    "Binary",
    "Expression",
    "Dual",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "derivative",
    "gradient",
    "as_expression",
    "compile",
    "EVALUATION_ERRORS",
    "to_source",
    "free_names",
    "substitute",
    "is_constant_over",
]

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos")


class ExpressionError(Exception):
    """Base class for every error raised by this module."""


class ParseError(ExpressionError):
    def __init__(self, message: str, source: str, position: int):
        super().__init__(f"{message} at offset {position} in {source!r}")
        self.source = source
        self.position = position


class UnboundNameError(ExpressionError):
    """A name in the expression has no value in the bindings."""

    def __init__(self, name: str):
        super().__init__(f"unbound name '{name}'")
        self.name = name


class DomainError(ExpressionError):
    """Evaluation left the real domain; carries the offending subexpression."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


# ---------------------------------------------------------------------------
# Dual numbers


class Dual:
    """First-order dual number ``value + deriv * eps``.

    Mixes freely with floats, so a tree evaluated with one ``Dual`` binding
    propagates the partial derivative with respect to that binding.
    """

    __slots__ = ("value", "deriv")

    def __init__(self, value: float, deriv: float = 0.0):
        self.value = value
        self.deriv = deriv

    def __repr__(self):
        return f"Dual({self.value!r}, {self.deriv!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.deriv + other.deriv)
        return Dual(self.value + other, self.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.deriv - other.deriv)
        return Dual(self.value - other, self.deriv)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.deriv)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.value * other.deriv + self.deriv * other.value,
            )
        return Dual(self.value * other, self.deriv * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value / other.value,
                (self.deriv * other.value - self.value * other.deriv)
                / (other.value * other.value),
            )
        return Dual(self.value / other, self.deriv / other)

    def __rtruediv__(self, other):
        return Dual(
            other / self.value, -other * self.deriv / (self.value * self.value)
        )

    def __neg__(self):
        return Dual(-self.value, -self.deriv)


def _real(x) -> float:
    return x.value if isinstance(x, Dual) else x


# ---------------------------------------------------------------------------
# Syntax tree


class Node:
    """Base node; supports operator syntax for building trees in code."""

    __slots__ = ()

    def __add__(self, other):
        return Binary("+", self, _as_node(other))

    def __radd__(self, other):
        return Binary("+", _as_node(other), self)

    def __sub__(self, other):
        return Binary("-", self, _as_node(other))

    def __rsub__(self, other):
        return Binary("-", _as_node(other), self)

    def __mul__(self, other):
        return Binary("*", self, _as_node(other))

    def __rmul__(self, other):
        return Binary("*", _as_node(other), self)

    def __truediv__(self, other):
        return Binary("/", self, _as_node(other))

    def __rtruediv__(self, other):
        return Binary("/", _as_node(other), self)

    def __pow__(self, other):
        return Binary("^", self, _as_node(other))

    def __neg__(self):
        return Unary("neg", self)


@dataclass(frozen=True, slots=True)
class Const(Node):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True, slots=True)
class Name(Node):
    name: str


@dataclass(frozen=True, slots=True)
class Unary(Node):
    op: str  # 'neg' or a function name
    arg: "Expression"


@dataclass(frozen=True, slots=True)
class Binary(Node):
    op: str  # '+', '-', '*', '/', '^'
    left: "Expression"
    right: "Expression"


Expression = Union[Const, Name, Unary, Binary]


def _as_node(x) -> Expression:
    if isinstance(x, Node):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot treat {x!r} as an expression node")


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", source, pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.source, len(self.source))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok else len(self.source)
            raise ParseError(f"expected '{op}'", self.source, pos)
        self.i += 1

    def parse(self) -> Expression:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", self.source, tok[2])
        return node

    def expr(self) -> Expression:
        node = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.i += 1
                node = Binary(tok[1], node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.i += 1
                node = Binary(tok[1], node, self.factor())
            else:
                return node

    def factor(self) -> Expression:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.i += 1
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Expression:
        node = self.base()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.i += 1
            return Binary("^", node, self.factor())
        return node

    def base(self) -> Expression:
        kind, text, pos = self.next()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ParseError(f"number {text!r} overflows a float", self.source, pos)
            return Const(value)
        if kind == "name":
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", self.source, pos)
                self.i += 1
                arg = self.expr()
                self.expect_op(")")
                return Unary(text, arg)
            return Name(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}", self.source, pos)


def parse(source: str) -> Expression:
    """Parse infix text into an expression tree."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _render(e: Expression, parent_prec: int) -> str:
    if isinstance(e, Const):
        if e.value < 0 or (e.value == 0 and math.copysign(1.0, e.value) < 0):
            text = "-" + repr(-e.value)
            return f"({text})" if parent_prec > _PREC["neg"] else text
        return repr(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            text = "-" + _render(e.arg, _PREC["neg"])
            return f"({text})" if parent_prec > _PREC["neg"] else text
        return f"{e.op}({_render(e.arg, 0)})"
    prec = _PREC[e.op]
    if e.op == "^":
        left = _render(e.left, prec + 1)
        right = _render(e.right, prec)
    else:
        left = _render(e.left, prec)
        right = _render(e.right, prec + 1)
    text = f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
    return f"({text})" if prec < parent_prec else text


def to_source(e: Expression) -> str:
    """Render a tree back to parseable infix text."""
    return _render(e, 0)


# ---------------------------------------------------------------------------
# Evaluation

def _pow_ieee(lv: float, rv: float) -> float:
    # overflow follows IEEE and yields a signed infinity
    try:
        return math.pow(lv, rv)
    except OverflowError:
        negative = lv < 0.0 and int(rv) % 2 == 1
        return -math.inf if negative else math.inf


def _pow_value(lv: float, rv: float, node) -> float:
    # only genuine domain violations raise
    try:
        return _pow_ieee(lv, rv)
    except ValueError as err:
        raise DomainError(str(err), to_source(node)) from None


def _is_integer(x: float) -> bool:
    # round() raises on inf and nan, which are no integers either
    return math.isfinite(x) and x == round(x)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _sqrt_partial(x: float, root: float, dx: float, node: Unary) -> float:
    if x == 0.0 and dx != 0.0:
        raise DomainError("sqrt derivative at zero", to_source(node))
    return 0.0 if dx == 0.0 else dx / (2.0 * root)


def _pow_checked(lv: float, rv: float, node: Binary) -> float:
    # the checks a power needs in every pass, then its value
    if lv < 0.0 and not _is_integer(rv):
        raise DomainError("negative base with non-integer exponent", to_source(node))
    if lv == 0.0 and rv < 0.0:
        raise DomainError("zero raised to a negative power", to_source(node))
    return _pow_value(lv, rv, node)


def _pow_partial(lv: float, rv: float, value: float, ld: float, rd: float, node: Binary) -> float:
    # the dual part of a power for one variable; an operand that does not
    # depend on the variable enters with a zero dual part
    if lv < 0.0 and rd != 0.0:
        raise DomainError("negative base with non-integer exponent", to_source(node))
    deriv = 0.0
    if ld != 0.0:
        if lv == 0.0:
            if rv == 1.0:
                deriv += ld
            elif rv > 1.0:
                pass
            else:
                raise DomainError(
                    "derivative of power undefined at zero base", to_source(node)
                )
        else:
            deriv += rv * _pow_value(lv, rv - 1.0, node) * ld
    if rd != 0.0:
        if lv <= 0.0:
            raise DomainError(
                "variable exponent requires positive base", to_source(node)
            )
        deriv += value * math.log(lv) * rd
    return deriv


def _pow(left, right, node: Binary):
    lv, rv = _real(left), _real(right)
    value = _pow_checked(lv, rv, node)
    if not isinstance(left, Dual) and not isinstance(right, Dual):
        return value
    ld = left.deriv if isinstance(left, Dual) else 0.0
    rd = right.deriv if isinstance(right, Dual) else 0.0
    return Dual(value, _pow_partial(lv, rv, value, ld, rd, node))


def _eval(e: Expression, env: Mapping[str, object]):
    if isinstance(e, Binary):
        left = _eval(e.left, env)
        right = _eval(e.right, env)
        op = e.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if _real(right) == 0.0:
                raise DomainError("division by zero", to_source(e))
            return left / right
        return _pow(left, right, e)
    if isinstance(e, Name):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundNameError(e.name) from None
    if isinstance(e, Const):
        return e.value
    # Unary
    v = _eval(e.arg, env)
    op = e.op
    if op == "neg":
        return -v
    rv = _real(v)
    if op == "exp":
        ev = _exp(rv)
        if isinstance(v, Dual):
            return Dual(ev, ev * v.deriv if v.deriv != 0.0 else 0.0)
        return ev
    if op == "log":
        if rv <= 0.0:
            raise DomainError("log of non-positive value", to_source(e))
        if isinstance(v, Dual):
            return Dual(math.log(rv), v.deriv / rv)
        return math.log(rv)
    if op == "sqrt":
        if rv < 0.0:
            raise DomainError("sqrt of negative value", to_source(e))
        root = math.sqrt(rv)
        if isinstance(v, Dual):
            return Dual(root, _sqrt_partial(rv, root, v.deriv, e))
        return root
    if op in ("sin", "cos") and math.isinf(rv):
        # math.sin and math.cos raise a bare ValueError here; a NaN passes
        # through, as in generated code
        raise DomainError(f"{op} of infinite value", to_source(e))
    if op == "sin":
        if isinstance(v, Dual):
            return Dual(math.sin(rv), math.cos(rv) * v.deriv)
        return math.sin(rv)
    if op == "cos":
        if isinstance(v, Dual):
            return Dual(math.cos(rv), -math.sin(rv) * v.deriv)
        return math.cos(rv)
    raise ExpressionError(f"unknown unary operator '{op}'")


def evaluate(e: Expression, values: Mapping[str, float]) -> float:
    """Evaluate ``e`` with every name bound to a real value."""
    result = _eval(e, values)
    return result.value if isinstance(result, Dual) else result


def derivative(e: Expression, var: str, values: Mapping[str, float]) -> float:
    """Exact partial derivative of ``e`` with respect to ``var`` at ``values``."""
    if var not in values:
        raise UnboundNameError(var)
    env = dict(values)
    env[var] = Dual(float(values[var]), 1.0)
    result = _eval(e, env)
    return result.deriv if isinstance(result, Dual) else 0.0


def gradient(
    e: Expression, names: tuple[str, ...], values: Mapping[str, float]
) -> list[float]:
    """Partial derivatives of ``e`` with respect to each name, in order."""
    used = free_names(e)
    return [derivative(e, nm, values) if nm in used else 0.0 for nm in names]


def as_expression(src) -> Expression:
    """Parse text, wrap a number as a constant, pass a tree through."""
    if isinstance(src, str):
        return parse(src)
    if isinstance(src, (int, float)):
        return Const(float(src))
    return src


# ---------------------------------------------------------------------------
# Generated forward-mode code
#
# ``_Codegen`` unrolls the rules of ``_eval`` and ``Dual`` at generation
# time (source transformation in the sense of Griewank & Walther,
# *Evaluating Derivatives*).  Whether a node carries a dual part for
# variable v is fixed by ``v in free_names(node)``, so each node becomes one
# value line plus one line per variable it depends on, with the operand
# order of the ``Dual`` method the tree walker would call.  Names are read
# as floats, so every intermediate is a Python float, and float division,
# math.log and math.sqrt raise exactly where ``_eval`` checks for a zero
# divisor, a non-positive logarithm or a negative root.  The rules that
# branch on runtime values are the helpers above, which ``_eval`` calls too.

#: exceptions the tree walker (and so generated code) can raise
EVALUATION_ERRORS = (ExpressionError, ArithmeticError, LookupError, TypeError, ValueError)


_GENERATED_GLOBALS = {
    "_float": float,
    "_pow": math.pow,
    "_errors": EVALUATION_ERRORS,
    "_exp": _exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_sqrt_partial": _sqrt_partial,
    "_sin": math.sin,
    "_cos": math.cos,
    "_pow_value": _pow_value,
    "_pow_checked": _pow_checked,
    "_pow_partial": _pow_partial,
}


#: for one run, source text -> code object (see ``_Codegen.define``), and a
#: flow's key -> its emitted stepping loop (``dynamics._generate_step``)
_SOURCE_TABLE: contextvars.ContextVar[dict] = contextvars.ContextVar("noncanon_source_table")

_LOCAL_RE = re.compile(r"\bt\d+\b")
#: a text that names a value without computing it: a local, a bound global,
#: a bare literal or a parenthesized constant
_ATOM_RE = re.compile(r"[a-z]\d+|_g\d+|\d+\.\d*|\(-?\d[\d.e+-]*\)")
#: the spellings of the literal 1.0, a factor that drops out of a product
_ONES = ("1.0", "(1.0)")


def _product(a: str, b: str) -> str:
    """``a * b``, where a factor spelled as the literal 1.0 drops out:
    ``y * 1.0`` is ``y`` bit for bit, signed zeros and infinities included."""
    if a in _ONES:
        return b
    if b in _ONES:
        return a
    return f"{a} * {b}"


class _Codegen:
    """Straight-line source for one tree and one set of variables."""

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        self.lines: list[str] = []
        self.namespace: dict[str, object] = {}
        self.loads: dict[str, str] = {}
        self.count = 0
        self.pure: set[str] = set()  # locals whose line cannot raise
        self.defined: dict[str, str] = {}  # right-hand side -> its local
        # set where every partial reaches its result only through arithmetic
        # that erases the sign of a zero (``dynamics._step_source``): a
        # power's partial then leaves out the 0.0 that makes a zero +0.0
        self.signless = False

    def bind(self, obj) -> str:
        """A global name for an object the source cannot spell."""
        name = f"_g{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def assign(self, text: str, pure: bool = False) -> str:
        """A local holding ``text``; ``pure`` marks a line that cannot
        raise, which is dropped when nothing uses its value.

        An atom is returned as it is, and a text already assigned in this
        function returns that line's local.  Both are exact: the code is
        straight-line and every local is assigned once, so an identical
        right-hand side has the same value, and had it raised, the second
        copy would never be reached."""
        if _ATOM_RE.fullmatch(text):
            return text
        local = self.defined.get(text)
        if local is not None:
            if not pure:
                self.pure.discard(local)
            return local
        self.count += 1
        local = self.defined[text] = f"t{self.count}"
        self.lines.append(f"{local} = {text}")
        if pure:
            self.pure.add(local)
        return local

    def prune(self, result: str) -> None:
        """Drop the pure lines whose value ``result`` never uses, e.g. the
        value of a Hamiltonian when only its gradient is wanted."""
        live = set(_LOCAL_RE.findall(result))
        kept = []
        for line in reversed(self.lines):
            target, _, text = line.partition(" = ")
            if target in live or target not in self.pure:
                live.update(_LOCAL_RE.findall(text))
                kept.append(line)
        self.lines = kept[::-1]

    def define(self, source: str) -> Callable:
        """The function ``_compiled`` that ``source`` defines, over the globals
        of the emitted lines.

        While a table is set in :data:`_SOURCE_TABLE` (``cli.run`` sets one
        for each run and clears it after), each distinct source is compiled
        once and its code object taken from the table after that, so one run
        compiles each source once.  The code is still executed into a fresh
        namespace on every call: a function's globals, its bound names
        included, are its own.  With no table set, every call compiles."""
        table = _SOURCE_TABLE.get({})
        code = table.get(source)
        if code is None:
            code = table[source] = builtins.compile(
                source, "<noncanon.expressions.compile>", "exec"
            )
        namespace = dict(_GENERATED_GLOBALS, **self.namespace)
        exec(code, namespace)
        # popped, so the function and its globals form no cycle and are
        # freed by reference counting as soon as the caller drops it
        return namespace.pop("_compiled")

    def emit(self, e: Expression) -> tuple[str, dict[str, str]]:
        """Emit ``e``; return the atom holding its value and, per variable
        it depends on, the atom holding its dual part."""
        if isinstance(e, Const):
            if not math.isfinite(e.value):
                return self.bind(e.value), {}
            return f"({e.value!r})", {}
        if isinstance(e, Name):
            local = self.loads.get(e.name)
            if local is None:
                local = self.loads[e.name] = self.assign(f"_float(env[{e.name!r}])")
            return local, ({e.name: "1.0"} if e.name in self.variables else {})
        if isinstance(e, Unary):
            return self._unary(e)
        return self._binary(e)

    def _unary(self, e: Unary) -> tuple[str, dict[str, str]]:
        a, da = self.emit(e.arg)
        op = e.op
        if op == "neg":
            return self.assign(f"-{a}", True), {
                n: self.assign(f"-{d}", True) for n, d in da.items()
            }
        if op == "exp":
            v = self.assign(f"_exp({a})", True)  # overflow is caught inside
            return v, {
                n: self.assign(
                    v if d in _ONES else f"{v} * {d} if {d} != 0.0 else 0.0", True
                )
                for n, d in da.items()
            }
        if op in ("sin", "cos"):
            v = self.assign(f"_{op}({a})")
            if not da:
                return v, {}
            slope = self.assign(f"_cos({a})" if op == "sin" else f"-_sin({a})")
            return v, {n: self.assign(_product(slope, d), True) for n, d in da.items()}
        if op == "log":
            v = self.assign(f"_log({a})")
            return v, {n: self.assign(f"{d} / {a}") for n, d in da.items()}
        if op == "sqrt":
            v = self.assign(f"_sqrt({a})")
            node = self.bind(e)
            return v, {
                n: self.assign(f"_sqrt_partial({a}, {v}, {d}, {node})")
                for n, d in da.items()
            }
        raise ExpressionError(f"unknown unary operator '{op}'")

    def _binary(self, e: Binary) -> tuple[str, dict[str, str]]:
        l, dl = self.emit(e.left)
        r, dr = self.emit(e.right)
        op = e.op
        if op not in ("+", "-", "*", "/"):  # ``_eval`` treats the rest as '^'
            node = self.bind(e)
            c = e.right.value if isinstance(e.right, Const) else math.nan
            if _is_integer(c):
                # a fixed integer exponent settles _pow's exponent tests now;
                # math.pow raises a ValueError for a zero base when c < 0,
                # and otherwise only overflows, which is no error on the
                # tree walker, so dropping an unused line hides no error
                # and the line counts as pure
                if c >= 0.0:
                    v = self.assign(f"_pow({l}, {r})", True)
                else:
                    v = self.assign(f"_pow_value({l}, {r}, {node})")
                if c > 1.0:
                    # pow(x, 1.0) is x bit for bit.  A variable's own partial
                    # (dual part 1.0) drops the test x != 0.0: at x = +-0,
                    # c * pow(x, c - 1) is +-0 and plus 0.0 gives the +0.0
                    # of _pow_partial, elsewhere IEEE addition commutes, and
                    # pow(+-0, c - 1) cannot raise; a chain-rule partial
                    # keeps its tests, which guard 0 * inf.  Under
                    # ``signless`` the partial's zero sign is erased by its
                    # reader, so neither form adds 0.0
                    slope = _product(r, l if c == 2.0 else f"_pow({l}, ({c - 1.0!r}))")
                    plus, lead = ("", "") if self.signless else (" + 0.0", "0.0 + ")
                    return v, {
                        n: self.assign(
                            f"{slope}{plus}"
                            if d in _ONES
                            else f"{lead}{slope} * {d} if {d} != 0.0 and {l} != 0.0 else 0.0",
                            True,
                        )
                        for n, d in dl.items()
                    }
                return v, {
                    n: self.assign(f"_pow_partial({l}, {r}, {v}, {d}, 0.0, {node})")
                    for n, d in dl.items()
                }
            v = self.assign(f"_pow_checked({l}, {r}, {node})")
            return v, {
                n: self.assign(
                    f"_pow_partial({l}, {r}, {v}, {dl.get(n, '0.0')}, "
                    f"{dr.get(n, '0.0')}, {node})"
                )
                for n in self.variables
                if n in dl or n in dr
            }
        # only a division raises, and not by a nonzero constant
        pure = op != "/" or (isinstance(e.right, Const) and e.right.value != 0.0)
        v = self.assign(_product(l, r) if op == "*" else f"{l} {op} {r}", pure)
        derivs = {}
        for n in self.variables:
            # the formulas of the Dual method that handles this operand mix
            ld, rd = dl.get(n), dr.get(n)
            if ld is not None and rd is not None:
                text = {
                    "+": f"{ld} + {rd}",
                    "-": f"{ld} - {rd}",
                    "*": f"{_product(l, rd)} + {_product(ld, r)}",
                    "/": f"({_product(ld, r)} - {_product(l, rd)}) / ({_product(r, r)})",
                }[op]
            elif ld is not None:
                text = {"+": ld, "-": ld, "*": _product(ld, r), "/": f"{ld} / {r}"}[op]
            elif rd is not None:
                text = {
                    "+": rd,
                    "-": f"-{rd}",
                    "*": _product(rd, l),
                    "/": f"{_product(f'-{l}', rd)} / ({_product(r, r)})",
                }[op]
            else:
                continue
            derivs[n] = self.assign(text, pure)
        return v, derivs


def compile(e: Expression, variables: Sequence[str] = ()) -> Callable:
    """Generate one straight-line function for the value of ``e`` and its
    partials with respect to ``variables``.

    The result is ``fn(env) -> (value, partials)`` and equals
    ``(evaluate(e, env), tuple(gradient(e, variables, env)))`` bit for bit,
    signed zeros included (NaN payloads aside); with no variables it only
    evaluates.  It is a pass over a block of one empty state, whose every
    name is read from ``env`` as a float.  Whenever the generated code
    raises, ``fn`` redoes the call on the tree walker, so the error and its
    message are exactly the tree walker's.
    """
    variables = tuple(variables)
    one, redo = _point_pass((), [e], variables, lambda r: f"{r[0]}, {_tuple(r[1:])}")
    return lambda env: one(redo, env, ((),))


# ---------------------------------------------------------------------------
# Passes over the state tuple
#
# A "structure" here is anything with the ``variable_names`` and
# ``parameters`` of a Poisson structure: the flows' steps and monitor rows,
# a structure's entry values at a phase point, a grid's or a cloud's
# filters, a hodograph family's (u, v) at (x, y) and a generator at s all
# read the state as one tuple of Python floats, which the caller converts
# from numpy values.  A block of points is a pass, which loops over the
# block inside generated code; one point is a pass over a block of one.


def _state_codegen(names, exprs=(), variables: Sequence[str] = ()) -> tuple[_Codegen, list]:
    """A code generator for a function of the state tuple ``x`` over
    ``names`` and its partials with respect to ``variables``, whose first
    line unpacks ``x`` into one local per name (``gen.loads[name]``; the
    line is ``() = x`` for no names), with
    ``exprs`` emitted into it; and the atoms of their row: each
    expression's value and then its partials, the order of
    :func:`_reference_row`.  Each parameter loads from ``env`` where it is
    first used."""
    gen = _Codegen(tuple(dict.fromkeys(variables)))
    gen.lines.append(f"{''.join(f'x{i}, ' for i in range(len(names))) or '() '}= x")
    gen.loads.update((name, f"x{i}") for i, name in enumerate(names))
    emitted = [gen.emit(e) for e in exprs]
    return gen, [v for value, d in emitted for v in (value, *(d.get(n, "0.0") for n in variables))]


def _generate_row(structure, exprs, variables: Sequence[str] = ()) -> Callable:
    """``row(x)``: for every expression of ``exprs``, its value at the state
    tuple ``x`` and then its partials with respect to ``variables``, as a
    tuple; a pass over the block of one ``x`` (:func:`_point_pass`), so it
    equals :func:`_reference_row` bit for bit, or raises the tree walker's
    first error."""
    one, redo = _point_pass(structure.variable_names, exprs, variables, _tuple)
    env = structure.parameters
    return lambda x: one(redo, env, (x,))


def _redo(names, exprs, variables: Sequence[str] = ()) -> Callable:
    """``redo(env, x)``: :func:`_reference_row` over ``names`` at ``x``,
    with the parameters ``env``; every pass point's redo.  It holds names,
    not a structure, which caches its passes: a pass holding its structure
    would form a cycle (see :meth:`_Codegen.define`)."""
    exprs, variables = tuple(exprs), tuple(variables)
    return lambda env, x: _reference_row(
        SimpleNamespace(variable_names=names, parameters=env), exprs, x, variables
    )


def _reference_row(structure, exprs, x, variables: Sequence[str] = ()) -> list:
    """The row of :func:`_generate_row` at one state, by tree walking.  Each
    expression's value comes before its partials, so the first error raised
    is the tree walker's first."""
    env = {**structure.parameters, **dict(zip(structure.variable_names, x))}
    row = []
    for e in exprs:
        row += [_eval(e, env), *(gradient(e, variables, env) if variables else ())]
    return row


# One pass over a block of points: the ``for`` target unpacks each state
# tuple into the locals of the state, the lines of the point's row run under
# ``try``, then the row is folded into the pass's results.  A point whose
# lines raise takes its row from ``redo(env, x)``, which returns the tree
# walker's row or raises its error.  Unpacking in the target frees each
# tuple before the next is made, so ``zip`` and ``product`` reuse theirs.
# The ``for`` loop's back edge is an unconditional JUMP_BACKWARD, which
# CPython 3.11 specializes (see ``dynamics._LOOP``).
_PASS = """\
def _compiled(redo, env, points, out=None):
{start}\
    for {state} in points:
        try:
{lines}\
        except _errors:
            {results} = redo(env, [{values}])
{fold}\
    return {returns}
"""


def _block(lines, indent: int) -> str:
    """``lines`` as source, each indented by ``indent`` spaces."""
    return "".join(f"{' ' * indent}{line}\n" for line in lines)


def _tuple(atoms) -> str:
    """The source of the tuple of ``atoms``."""
    return f"({''.join(f'{a}, ' for a in atoms)})"


def _fold(acc: str, value: str, rule: str = ">") -> list[str]:
    """Lines of a pass that fold ``value`` into ``acc`` as ``acc = max(acc,
    value)`` (``rule`` ">") or ``min`` ("<") does, bit for bit: a NaN value
    never replaces ``acc``, and a NaN ``acc`` is never replaced."""
    return [f"r = {value}", f"if r {rule} {acc}: {acc} = r"]


def _generate_pass(gen: _Codegen, results, row, start, fold, returns: str) -> Callable:
    """``pass(redo, env, points, out=None) -> returns``, one generated
    function that loops over the state tuples of ``points``: at each ``x``,
    the lines emitted into ``gen`` (:func:`_state_codegen`) and then
    ``results = row``, or ``results = redo(env, x)`` where they raise, and
    then the ``fold`` lines.  ``redo`` returns a sequence of as many values
    as ``results``.  The ``start`` lines open the pass.  Parameters load
    from the argument ``env``, so one pass serves any parameters."""
    lines = [*gen.lines[1:], *map("{} = {}".format, results, row)] or ["pass"]
    state = gen.lines[0].split(" = ")[0]  # the targets of the unpack line
    source = _PASS.format(
        start=_block(start, 4),
        state=state,
        values=state.strip("()"),  # none for the empty state ``()``
        lines=_block(lines, 12),
        results=_tuple(results),
        fold=_block(fold, 8),
        returns=returns,
    )
    return gen.define(source)


def _point_pass(names, exprs, variables, returns: Callable) -> tuple[Callable, Callable]:
    """The pass ``one(redo, env, (x,))`` and its redo: the row of ``exprs``
    and their partials with respect to ``variables`` at the one state tuple
    ``x`` over ``names``, with the parameters ``env``, returned as the
    source ``returns(results)`` of the row's results.  The caller binds
    the arguments in its own closure, one call fewer per point than a
    ``functools.partial``."""
    gen, row = _state_codegen(names, exprs, variables)
    results = [f"r{j}" for j in range(len(row))]
    one = _generate_pass(gen, results, row, [], [], returns(results))
    return one, _redo(names, exprs, variables)


def _row_pass(structure, exprs, variables: Sequence[str] = ()) -> Callable:
    """``fill(points, out)``: the row of :func:`_generate_row` at every
    state tuple of ``points``, written in order into the flat memoryview
    ``out`` by one generated pass.  A point whose lines raise takes
    :func:`_reference_row`, so the rows, the errors and the first of them
    to be raised are the tree walker's."""
    gen, row = _state_codegen(structure.variable_names, exprs, variables)
    results = [f"r{j}" for j in range(len(row))]
    fold = [*(f"out[i + {j}] = {r}" for j, r in enumerate(results)), f"i += {len(row)}"]
    fill = _generate_pass(gen, results, row, ["i = 0"], fold, "i")
    redo = _redo(structure.variable_names, exprs, variables)
    return functools.partial(fill, redo, structure.parameters)


# ---------------------------------------------------------------------------
# Tree utilities


def _walk(e: Expression) -> Iterator[Expression]:
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Unary):
            stack.append(node.arg)
        elif isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)


def _depth(e: Expression) -> int:
    """Nodes on the longest path from ``e`` to a leaf, without recursion."""
    deepest = 0
    stack = [(e, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if isinstance(node, Unary):
            stack.append((node.arg, level + 1))
        elif isinstance(node, Binary):
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
    return deepest


def free_names(e: Expression) -> frozenset[str]:
    return frozenset(n.name for n in _walk(e) if isinstance(n, Name))


def is_constant_over(e: Expression, names) -> bool:
    """True when ``e`` references none of the given names."""
    return not (free_names(e) & frozenset(names))


def substitute(e: Expression, replacements: Mapping[str, Expression]) -> Expression:
    """Replace named leaves by subtrees, returning a new tree."""
    if isinstance(e, Name):
        return replacements.get(e.name, e)
    if isinstance(e, Unary):
        return Unary(e.op, substitute(e.arg, replacements))
    if isinstance(e, Binary):
        return Binary(
            e.op,
            substitute(e.left, replacements),
            substitute(e.right, replacements),
        )
    return e

