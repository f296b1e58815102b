"""Flows generated by non-canonical brackets.

The equations of motion are dx_a/dt = Theta_ab dH/dx_b.  Integration is
fixed-step (classical RK4 by default, implicit midpoint for long
horizons), with conserved-quantity monitors sampled every step: the
Hamiltonian, every named bracket entry, and the coordinate-momentum
combinations c_m = q_m + theta_mn p_n that freeze in the degenerate
limit.  No inversion of Theta is ever needed, so exactly singular
structures integrate like any other; a warning is attached when the
trajectory runs through a numerically degenerate region.

Each flow runs two pieces of code generated for it on Python floats: one
stepping loop (:func:`_generate_step`), which holds the state in locals,
takes every step (four RK4 stages and their combination, or the implicit
midpoint's fixed-point iteration over one velocity stage) and writes each
new state into the stored states, and one pass over each block of stored
states (``expressions._row_pass``), the pass that structures also
evaluate their entries over a block of points with.  A constant bracket
entry other than 1.0 is a local of the stepping loop, bound before it,
not a literal in its lines, so flows that differ only in such constants
(the flows of an epsilon sweep) generate one source, which a run emits
once, keyed by what the source depends on (:func:`_generate_step`), and
compiles once (``expressions._Codegen.define``).  The lines of a step that
read no state and cannot raise, ``0.5 * dt``, ``dt / 6.0`` and arithmetic
on constants, run once, before the loop.  Inside it, a power's partial
leaves out the ``+ 0.0`` that only signs its zero, since a stage's
velocity erases that sign, and each temporary that one later line reads is
written into that line (:func:`_step_source`).  For
:func:`integrate` the pass's row holds every monitor and every stored
bracket entry, and ``det Theta`` is taken over the structure's own
assembly of those entries; an epsilon sweep's row holds only the frozen
combinations it reports.  Both bind the state to locals.  The tree walker
stays the reference and is bit-identical where the generated code
succeeds.  A stored state whose lines raise is redone on it
(``expressions._reference_row``) and the pass goes on; a step whose
generated code raises is redone here, once, by ``_Velocity``, and the
loop then resumes after the redone step.  Every flow, the reduced flow of
:mod:`reduction` included (its constant bracket on q1..qn read like any
structure's, with no monitor row), is stepped by :func:`_flow_states`.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .brackets import (
    DELTA_KINDS,
    PoissonStructure,
    StructureError,
    d_operator_values,
    entry_label,
    planar_entries,
)
# ``parse`` stays bound here: perfbench/tracing.py wraps it under this name
from .expressions import (  # noqa: F401
    _SOURCE_TABLE,
    EVALUATION_ERRORS,
    Const,
    DomainError,
    Dual,
    Expression,
    Name,
    _block,
    _Codegen,
    _eval,
    _product,
    _row_pass,
    _state_codegen,
    as_expression,
    free_names,
    gradient,
    parse,
)

__all__ = [
    "FlowProblem",
    "Trajectory",
    "IntegrationError",
    "velocity",
    "integrate",
    "default_monitors",
    "constant_combination_expressions",
    "evolution_residuals",
    "EvolutionReport",
    "vanishing_combinations",
    "time_derivative_split",
    "d_dependence_fit",
    "zero_crossing_frequency",
]

DEGENERACY_WARNING_CUTOFF = 1e-8
_DET_BLOCK = 256
_UNCONVERGED = "implicit midpoint iteration did not converge"
#: a local of generated code: a state's, a bound constant's or a line's
_LOCALS = re.compile(r"\b[a-z]\d+\b")
#: a line's local, not a quoted parameter name such as 't1'
_TEMP = re.compile(r"(?<!')\b(t\d+)\b")
#: the deepest parenthesis nesting a fold may give a line of the loop
#: (``_fold``); CPython rejects more than 200 nested parentheses
_FOLD_NESTING = 16
# The generated stepping loop (see ``_generate_step``).  Its back edge is
# ``while True:``, an unconditional JUMP_BACKWARD: in CPython 3.11 the
# conditional back edge of ``while k < n:`` never warms the code up.
_LOOP = """\
def _compiled(x, dt, k, n, out):
    {unpack}
    try:
        i = k * {dim}
{hoisted}\
        while True:
{step}\
            k += 1
            i += {dim}
{store}\
            s = {total}
            if s - s != 0.0 or k == n:
                return k
{advance}\
    except _errors as err:
        err.steps = k
        raise
"""
# A step of the implicit midpoint: the fixed-point iteration of
# ``_midpoint_step``, whose first pass takes the velocity at the state.
_MIDPOINT = """\
{start}\
            tol = 1e-14 * ({largest} + 1.0)
            for j in range(101):
{body}\
                if j and {converged}:
                    break
{iterate}\
            else:
                raise _IntegrationError({message!r})
"""


class IntegrationError(RuntimeError):
    pass


class _Velocity:
    """Callable Theta(x) grad H(x) by tree walking, with a reused
    evaluation environment; the reference for :func:`_generate_step`."""

    def __init__(self, structure: PoissonStructure, hamiltonian: Expression):
        self.structure = structure
        self.names = structure.variable_names
        self.env = dict(structure.parameters)
        for name in self.names:
            self.env[name] = 0.0
        self.entries = [(a, b, e) for (a, b), e in structure.entries.items()]
        used = free_names(hamiltonian)
        self.grad_names = [
            (i, name) for i, name in enumerate(self.names) if name in used
        ]
        self.hamiltonian = hamiltonian

    def __call__(self, x: np.ndarray) -> np.ndarray:
        env = self.env
        names = self.names
        for name, xi in zip(names, x):
            env[name] = xi
        dim = len(names)
        grad = np.zeros(dim)
        h = self.hamiltonian
        for i, name in self.grad_names:
            saved = env[name]
            env[name] = Dual(saved, 1.0)
            result = _eval(h, env)
            env[name] = saved
            grad[i] = result.deriv if isinstance(result, Dual) else 0.0
        out = np.zeros(dim)
        eval_ = _eval
        for a, b, expr in self.entries:
            v = eval_(expr, env)
            out[a] += v * grad[b]
            out[b] -= v * grad[a]
        return out


def _generate_step(
    structure: PoissonStructure, hamiltonian: Expression, method: str
) -> Callable:
    """Generated code for the stepping loop of ``method`` on Python floats,
    ``loop(x, dt, k, n, out) -> k``.

    From ``x``, the stored state ``k``, the loop takes steps up to state
    ``n``, holding the state in locals, and writes each new state into
    ``out``, the flat memoryview of the ``(n + 1, dim)`` states, before it
    tests it.  It returns the index of the last state written: ``n``, or
    the first state whose sum is not finite, which the caller rechecks
    component by component (a finite sum needs every component finite, but
    finite components can overflow their sum).  A step that raises
    writes nothing, and its error leaves the call with ``steps`` set to the
    index of the last stored state; an overflowing ``_pow`` is such an
    error.  A midpoint iteration that does not converge raises
    :class:`IntegrationError`.

    An entry that is a constant other than 1.0 is read from a local
    (``c3`` for the fourth entry) assigned on the loop's first line from a
    bound name, so the source does not depend on its value; a local holds
    the constant's float, so the arithmetic is the literal's, bit for bit.
    A 1.0 entry stays a literal, which ``_product`` folds.

    While a run's table is set (``expressions._SOURCE_TABLE``), a flow
    whose source would be one already emitted in the run takes it from the
    table instead of emitting it again.  The key holds everything the
    source depends on: the variable names, the method, each entry's
    indices and then its tree, or a mark for a bound constant, and the
    Hamiltonian.  The trees are compared as trees and by their ``repr``:
    ``Const(-0.0) == Const(0.0)``, but the two emit different literals,
    and ``repr`` spells every NaN ``nan``, but a bound NaN keeps its bits
    (two NaN constants are equal only as one object).  The table keeps the
    source with its globals, which are the same for equal keys, except for
    ``env`` and the bound constants: each flow executes the code into a
    namespace of its own that holds its own.  Outside a run, every flow
    emits its source.
    """
    entries = list(structure.entries.items())
    bound = [j for j, (_, e) in enumerate(entries) if isinstance(e, Const) and e.value != 1.0]
    shape = tuple((ab, j in bound or e) for j, (ab, e) in enumerate(entries))
    key = (method, structure.variable_names, hamiltonian, shape, repr((hamiltonian, shape)))
    table = _SOURCE_TABLE.get({})
    known = table.get(key)
    if known is None:
        names = structure.variable_names
        gen, source, constants = _step_source(names, entries, bound, hamiltonian, method)
        # the emitted lines are not kept: about 30 kB for a sweep's loop
        table[key] = source, dict(gen.namespace), constants
    else:
        source, namespace, constants = known
        gen = _Codegen(())
        gen.namespace = dict(namespace)
    # equal keys emit equal globals, but for the parameters and the bound
    # constants, which are this flow's own
    gen.namespace["env"] = structure.parameters
    gen.namespace.update((g, entries[j][1].value) for j, g in zip(bound, constants))
    return gen.define(source)


def _step_source(names, entries, bound, hamiltonian: Expression, method: str):
    """``(gen, source, constants)`` of :func:`_generate_step`'s loop over
    the phase-space ``names`` and the structure's ``entries``: the code
    generator that holds the loop's globals but for ``env``, the source,
    and the global name that holds each entry numbered in ``bound``.

    An ``"rk4"`` step runs four velocity stages and their combination, a
    ``"midpoint"`` step the fixed-point iteration of :func:`_midpoint_step`
    over one velocity stage.  Each stage binds the phase-space names to its
    state's locals.  The float operations are those of :class:`_Velocity`
    (entries accumulated in ``entries`` order, ``0.0 + v*grad[b]`` then
    ``- v*grad[a]``) and of :func:`_rk4_step` or :func:`_midpoint_step`, in
    their order, less the exact no-ops that ``_Codegen`` folds (a factor
    1.0, a test ``1.0 != 0.0``, a line already computed), so a step that
    succeeds is bit-identical to the tree walker.  A line that reads no
    state and cannot raise, such as ``0.5 * dt``, ``dt / 6.0`` or
    arithmetic on constants, runs once, before the loop; a parameter load
    can raise and stays in it.  The code does not fall back: the caller
    redoes a raising step on the tree walker.

    H is emitted ``signless``: the own partial of ``x^c`` is
    ``c * x^(c-1)``, not ``c * x^(c-1) + 0.0``, and a chain-rule partial
    drops its leading ``0.0 + `` but keeps its ``!= 0.0`` tests, which
    guard ``0 * inf``.  No bit of a state moves.  ``a + 0.0`` differs from
    ``a`` only in the sign of a zero, and no zero sign of a partial reaches
    a stage's ``k``: each partial of H and each entry value enters it only
    as ``0.0 + v*g`` or ``0.0 - v*g``, and after that as ``acc + v*g`` or
    ``acc - v*g``; in IEEE arithmetic ``0.0 +- y`` is never -0.0, and
    ``acc +- y`` is -0.0 only where ``acc`` is.  A zero sign changes no
    magnitude and no NaN on its way there: ``+``, ``-`` and ``*`` keep
    both, a partial is never a divisor, and the helpers test partials only
    by ``!= 0.0``.  Row passes and ``compile`` keep the
    ``+ 0.0``, since there a partial is a result.

    After pruning and hoisting, each temporary of the loop body that
    exactly one later body line reads, and that is not one of ``new``, the
    step's outputs (the midpoint iteration's, which its convergence test
    reads), is written into that line in parentheses (:func:`_fold`).  The
    parentheses keep every IEEE operation and its order; a step that raises
    is redone on the tree walker, so which line raises first does not
    matter, but whether a step raises does: a line that can raise is not
    folded into a line with ``if``, which might skip it.  Hoisted lines
    are never folded, and no fold nests a line's parentheses deeper than
    ``_FOLD_NESTING`` (16): CPython rejects more than 200, which an
    expression ``MAX_DEPTH`` deep would reach.
    """
    gen, _ = _state_codegen(names)
    gen.signless = True  # H's partials reach the velocity only as v*g
    x = [gen.loads[name] for name in names]  # the state's locals
    gen.namespace.update(_IntegrationError=IntegrationError)
    constants = {j: (f"c{j}", gen.bind(entries[j][1].value)) for j in bound}

    def stage(state: list[str]) -> list[str]:
        gen.loads.update(zip(names, state))
        gen.variables = names
        grad = gen.emit(hamiltonian)[1]
        grad = [grad.get(name, "0.0") for name in names]
        gen.variables = ()
        out = ["0.0"] * len(names)
        for j, ((a, b), expr) in enumerate(entries):
            v = constants[j][0] if j in constants else gen.emit(expr)[0]
            out[a] = gen.assign(f"{out[a]} + {_product(v, grad[b])}", True)
            out[b] = gen.assign(f"{out[b]} - {_product(v, grad[a])}", True)
        return out

    if method == "midpoint":
        m = [f"m{i}" for i in range(len(names))]  # the midpoint's point
        new = [gen.assign(f"{a} + dt * {v}", True) for a, v in zip(x, stage(m))]
    else:
        half = gen.assign("0.5 * dt", True)
        k1 = stage(x)
        k2 = stage([gen.assign(f"{a} + {half} * {k}") for a, k in zip(x, k1)])
        k3 = stage([gen.assign(f"{a} + {half} * {k}") for a, k in zip(x, k2)])
        k4 = stage([gen.assign(f"{a} + dt * {k}") for a, k in zip(x, k3)])
        sixth = gen.assign("dt / 6.0", True)
        new = [
            gen.assign(f"{a} + {sixth} * ({p} + 2.0 * {q} + 2.0 * {r} + {t})", True)
            for a, p, q, r, t in zip(x, k1, k2, k3, k4)
        ]
    gen.prune(", ".join(new))

    unpack, *lines = gen.lines
    # a pure line cannot raise, unless it calls math.pow, which can overflow
    fixed = {c for c, _ in constants.values()}  # the locals that hold no state
    hoisted, body = [], []
    for line in lines:
        target, _, text = line.partition(" = ")
        once = (
            target in gen.pure and "_pow(" not in text and fixed.issuperset(_LOCALS.findall(text))
        )
        (hoisted if once else body).append(line)
        if once:
            fixed.add(target)
    body = _fold(body, set(new), gen.pure)
    if method == "midpoint":
        y = [f"y{i}" for i in range(len(names))]
        largest = ", ".join(f"abs({a})" for a in x)
        step = _MIDPOINT.format(
            start=_block(map("{} = {}".format, m, x), 12),
            largest=f"max({largest})" if len(x) > 1 else largest,
            body=_block(body, 16),
            converged=" and ".join(f"abs({z} - {a}) <= tol" for z, a in zip(new, y)),
            iterate=_block(
                [*map("{} = {}".format, y, new), *map("{} = 0.5 * ({} + {})".format, m, x, y)],
                16,
            ),
            message=_UNCONVERGED,
        )
    else:
        step = _block(body, 12)
    stores = [f"out[i + {j}] = {z}" if j else f"out[i] = {z}" for j, z in enumerate(new)]
    source = _LOOP.format(
        unpack="; ".join([unpack, *(f"{c} = {g}" for c, g in constants.values())]),
        dim=len(x),
        hoisted=_block(hoisted, 8),
        step=step,
        store=_block(stores, 12),
        total=" + ".join(new),
        advance=_block(map("{} = {}".format, x, new), 12),
    )
    return gen, source, [g for _, g in constants.values()]


def _nesting(text: str) -> int:
    """The deepest parenthesis nesting of a line of source."""
    depth = deepest = 0
    for char in text:
        if char == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif char == ")":
            depth -= 1
    return deepest


def _fold(lines: list[str], keep: set[str], pure: set[str]) -> list[str]:
    """The loop body ``lines`` with each local that exactly one later line
    reads, and that is not in ``keep``, written into that line in
    parentheses, which keep every IEEE operation and its order.

    A line that can raise (not in ``pure``, or holding such a fold) is
    folded only into a line without ``if``, which evaluates it at every
    step: a step raises wherever it raised before, and its redo makes the
    order of the lines' errors the tree walker's.  No fold nests a line's
    parentheses deeper than ``_FOLD_NESTING``."""
    split = [line.partition(" = ")[::2] for line in lines]
    reads = Counter(local for _, text in split for local in _TEMP.findall(text))
    texts: dict[str, str] = {}  # each line's folded text, by its local
    safe: dict[str, bool] = {}  # a local that may fold: whether its text cannot raise
    folded = set()
    for target, text in split:
        pieces = _TEMP.split(text)  # a local at every odd index
        branch = " if " in text
        raises = target not in pure
        for i in range(1, len(pieces), 2):
            local = pieces[i]
            if reads[local] != 1 or local not in safe or (branch and not safe[local]):
                continue
            wrapped = f"({texts[local]})"
            if _nesting("".join([*pieces[:i], wrapped, *pieces[i + 1 :]])) > _FOLD_NESTING:
                continue
            pieces[i] = wrapped
            folded.add(local)
            raises = raises or not safe[local]
        texts[target] = "".join(pieces)
        if target not in keep:
            safe[target] = not raises
    return [f"{target} = {texts[target]}" for target, _ in split if target not in folded]


def velocity(structure: PoissonStructure, hamiltonian, x) -> np.ndarray:
    """Phase-space velocity Theta_ab dH/dx_b at a point."""
    h = as_expression(hamiltonian)
    x = np.asarray(x, dtype=float)
    dim = len(structure.variable_names)
    if x.shape != (dim,):
        raise StructureError(f"phase point must have length {dim}")
    return _Velocity(structure, h)(x)


@dataclass(frozen=True, eq=False)
class FlowProblem:
    structure: PoissonStructure
    hamiltonian: Expression
    x0: Sequence[float]
    dt: float
    t_end: float
    method: str = "rk4"

    def __post_init__(self):
        object.__setattr__(self, "hamiltonian", as_expression(self.hamiltonian))
        # written so that NaN fails each test
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not self.dt < self.t_end < math.inf:
            raise ValueError("t_end must exceed dt and be finite")
        if self.method not in ("rk4", "midpoint"):
            raise ValueError(f"unknown method '{self.method}'")
        x0 = np.asarray(self.x0, dtype=float)
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
        allowed = set(self.structure.variable_names) | set(self.structure.parameters)
        unknown = free_names(self.hamiltonian) - allowed
        if unknown:
            raise ValueError(f"hamiltonian references undeclared names {sorted(unknown)}")
        dim = len(self.structure.variable_names)
        if x0.shape != (dim,):
            raise ValueError(f"x0 must have length {dim}")


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    monitors: dict[str, np.ndarray]
    truncated: bool = False
    warnings: tuple[str, ...] = ()

    def monitor_drift(self, name: str) -> tuple[float, float]:
        """(max drift, final drift) of a monitor from its initial value."""
        series = self.monitors[name]
        # a monitor that starts infinite drifts by inf - inf, a NaN, silently
        with np.errstate(invalid="ignore"):
            dev = np.abs(series - series[0])
        return float(dev.max()), float(dev[-1])


def _rk4_step(v: Callable, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = v(x)
    k2 = v(x + 0.5 * dt * k1)
    k3 = v(x + 0.5 * dt * k2)
    k4 = v(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_step(v: Callable, x: Sequence, dt: float) -> list:
    """Implicit midpoint by fixed-point iteration on the step map, element
    by element: the reference for the iteration that :func:`_generate_step`
    generates."""
    y = [a + dt * b for a, b in zip(x, v(x))]
    tol = 1e-14 * (max(map(abs, x)) + 1.0)
    for _ in range(100):
        mid = [0.5 * (a + b) for a, b in zip(x, y)]
        y_next = [a + dt * b for a, b in zip(x, v(mid))]
        # all() fails on a NaN difference, as a NaN maximum does
        if all(abs(a - b) <= tol for a, b in zip(y_next, y)):
            return y_next
        y = y_next
    raise IntegrationError(_UNCONVERGED)


def _flow_step(structure: PoissonStructure, hamiltonian: Expression, method: str) -> Callable:
    """``advance(states, dt) -> count`` for :func:`_flow_states`: fills
    ``states[1:]`` by steps of ``dt`` from ``states[0]`` and returns the
    number of states up to the first that is not finite.  ``structure`` is
    anything with the ``variable_names``, ``entries`` and ``parameters`` of
    a structure, such as a reduced system.

    The steps run in the loop generated for this flow
    (:func:`_generate_step`), which writes each state through a flat
    memoryview of ``states``.  A step whose generated code raises is redone
    from the stored state by the tree walker (:func:`_rk4_step` or
    :func:`_midpoint_step` over :class:`_Velocity`), which is bit-identical
    where the generated code succeeds, and the loop resumes after it; so
    values, errors and the error that wins are the tree walker's.  An error
    without the loop's ``steps`` counts as raised by the step after the
    state the call started from.  A step that leaves the domain on the tree
    walker too ends the flow: its :class:`DomainError` leaves the call with
    ``steps`` set to the index of the last stored state."""
    loop = _generate_step(structure, hamiltonian, method)
    redo = functools.partial(
        _rk4_step if method == "rk4" else _midpoint_step, _Velocity(structure, hamiltonian)
    )
    isfinite = math.isfinite

    def advance(states: np.ndarray, dt: float) -> int:
        n = len(states) - 1
        out = memoryview(states.reshape(-1))
        k = 0
        while True:
            try:
                k = loop(states[k].tolist(), dt, k, n, out)
            except EVALUATION_ERRORS as err:
                k = getattr(err, "steps", k)
                try:
                    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                        states[k + 1] = redo(states[k], dt)
                except DomainError as stop:
                    stop.steps = k  # the flow ends at the last stored state
                    raise
                k += 1
            # the loop stops at a sum that is not finite; finite components
            # whose sum overflows make a finite state, stored, and it goes on
            if not all(map(isfinite, states[k].tolist())):
                return k
            if k == n:
                return k + 1

    return advance


def constant_combination_expressions(structure: PoissonStructure) -> dict[str, Expression]:
    """Expressions c_m = q_m + sum_n theta_mn p_n for delta-kind structures."""
    if structure.kind not in DELTA_KINDS:
        return {}
    n = structure.n
    out = {}
    for m in range(n):
        expr: Expression = Name(f"q{m + 1}")
        for k in range(n):
            if k == m:
                continue
            theta_mk = structure.entry_expression(m, k)
            if theta_mk == Const(0.0):
                continue
            expr = expr + theta_mk * Name(f"p{k + 1}")
        out[f"c_{m + 1}"] = expr
    return out


def default_monitors(structure: PoissonStructure) -> dict[str, Expression]:
    """Named bracket entries plus the frozen combinations, per kind."""
    n = structure.n
    monitors = {
        entry_label(n, a, b): expr
        for (a, b), expr in sorted(structure.entries.items())
        if (a < n) == (b < n) or structure.kind == "general-planar"
    }
    monitors.update(constant_combination_expressions(structure))
    return monitors


def _row_blocks(structure: PoissonStructure, exprs, states: np.ndarray):
    """The rows of ``exprs`` at the stored states, as ``(start, rows)`` for
    each block of at most ``_DET_BLOCK`` states.

    Each block is one call of one generated pass over its states
    (``expressions._row_pass``).  A state whose generated code raises is
    redone by the tree walker, so errors are the tree walker's, in the order
    of ``exprs``.  Every block is written into one reused array, which keeps
    the extra memory to one block; read ``rows`` before the next block
    replaces it."""
    fill = _row_pass(structure, exprs)
    rows = np.empty((_DET_BLOCK, len(exprs)))
    out = memoryview(rows.reshape(-1))
    for start in range(0, len(states), _DET_BLOCK):
        block = states[start : start + _DET_BLOCK]
        fill(zip(*block.T.tolist()), out)
        yield start, rows[: len(block)]


def _monitor_pass(
    structure: PoissonStructure, monitor_exprs: Mapping[str, Expression], states: np.ndarray
) -> tuple[dict[str, np.ndarray], float]:
    """Monitor series over the stored states, and min |det Theta| along them.

    Each row holds the monitors and then the stored bracket entries
    (:func:`_row_blocks`), and ``det Theta`` is taken over each block's
    stack of matrices, assembled by the structure from those entries.
    """
    exprs = list(monitor_exprs.values())
    width = len(exprs)
    monitors = np.empty((width, len(states)))
    min_abs_det = np.inf
    for start, rows in _row_blocks(structure, [*exprs, *structure.entries.values()], states):
        monitors[:, start : start + len(rows)] = rows[:, :width].T
        # silent on overflow, as the same arithmetic on Python floats
        with np.errstate(over="ignore", invalid="ignore"):
            dets = np.abs(np.linalg.det(structure._antisymmetric(rows[:, width:])))
        # a NaN determinant never lowers the minimum, as in a running min()
        min_abs_det = np.fmin.reduce(dets, initial=min_abs_det)
    return dict(zip(monitor_exprs, monitors)), min_abs_det


def _max_drift(
    structure: PoissonStructure, exprs: Sequence[Expression], states: np.ndarray
) -> list[float]:
    """``max |c - c[0]|`` of each expression over the stored states, the
    first value of :meth:`Trajectory.monitor_drift`, bit for bit, read
    block by block (:func:`_row_blocks`) without a series of its own."""
    drift = np.zeros(len(exprs))  # every deviation is >= 0 or NaN
    first = None
    for _, rows in _row_blocks(structure, exprs, states):
        if first is None:
            first = rows[0].copy()
        # a combination that starts infinite drifts by inf - inf, a NaN,
        # silently; np.maximum and ndarray.max propagate it, as dev.max() does
        with np.errstate(invalid="ignore"):
            drift = np.maximum(drift, np.abs(rows - first).max(axis=0))
    return drift.tolist()


def _flow_states(
    problem: FlowProblem, stop_in_domain: bool = False
) -> tuple[np.ndarray, np.ndarray, object]:
    """``(times, states, truncated)`` of a fixed-step flow: the stored
    states up to the first one that is not finite, their times, and
    whether the flow stopped there.  Every flow steps here, in the loop
    that :func:`_flow_step` builds for it.

    A step that leaves the domain on the tree walker raises its
    :class:`DomainError`; with ``stop_in_domain`` the flow ends instead at
    the last stored state, and ``truncated`` is that error.

    The step is adjusted by at most half a step so that an integer number
    of equal steps lands exactly on t_end."""
    structure = problem.structure
    n_steps = max(1, int(round(problem.t_end / problem.dt)))
    dt = problem.t_end / n_steps

    dim = len(structure.variable_names)
    states = np.empty((n_steps + 1, dim))
    states[0] = problem.x0
    try:
        count = _flow_step(structure, problem.hamiltonian, problem.method)(states, dt)
    except DomainError as err:
        if not stop_in_domain:
            raise
        return dt * np.arange(err.steps + 1), states[: err.steps + 1], err
    return dt * np.arange(count), states[:count], count <= n_steps


def integrate(
    problem: FlowProblem,
    extra_monitors: Mapping[str, Expression] | None = None,
) -> Trajectory:
    """Fixed-step integration (:func:`_flow_states`) with per-step monitor
    sampling.  A flow that leaves the finite range or the domain is
    truncated before it, with a warning that says which."""
    structure = problem.structure
    times, states, stop = _flow_states(problem, stop_in_domain=True)

    monitor_exprs: dict[str, Expression] = {"H": problem.hamiltonian}
    monitor_exprs.update(default_monitors(structure))
    if extra_monitors:
        monitor_exprs.update(
            {name: as_expression(e) for name, e in extra_monitors.items()}
        )

    series, min_abs_det = _monitor_pass(structure, monitor_exprs, states)

    warnings = []
    if stop is True:
        warnings.append("trajectory truncated: state left the finite range")
    elif stop:
        warnings.append(f"trajectory truncated: step left the domain: {stop}")
    if min_abs_det < DEGENERACY_WARNING_CUTOFF:
        warnings.append(
            "bracket matrix numerically degenerate along the trajectory "
            f"(min |det| = {min_abs_det:.3e}); the reduced dynamics applies"
        )
    return Trajectory(
        times=times,
        states=states,
        monitors=series,
        truncated=bool(stop),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Residual reports along the flow


@dataclass(frozen=True, eq=False)
class EvolutionReport:
    """How strongly time evolution deforms each bracket relation.

    ``identities`` holds, per relation ({q_m,p_n}, {q_m,q_n}, {p_m,p_n}),
    the gradient-of-H weighted combination of brackets of the entry
    functions with coordinates and momenta; every value vanishes when the
    Jacobi residuals do.  ``bracket_term_max`` is the largest unweighted
    constituent bracket, a Hamiltonian-independent violation witness.
    """

    identities: dict[str, float]
    bracket_term_max: float

    @property
    def max_identity(self) -> float:
        return max(abs(v) for v in self.identities.values())


def evolution_residuals(structure: PoissonStructure, hamiltonian, x) -> EvolutionReport:
    if structure.kind not in DELTA_KINDS:
        raise StructureError(
            "evolution residuals are defined for structures with canonical "
            "mixed brackets"
        )
    h = as_expression(hamiltonian)
    n = structure.n
    grad_h = gradient(h, structure.variable_names, structure.env_at(x))
    hq = grad_h[:n]
    hp = grad_h[n:]
    theta, grads = structure._entry_gradients(x)

    term_max = 0.0

    def bk(entry_a: int, entry_b: int, coord: int) -> float:
        # {Theta_(entry_a,entry_b), x_coord} = dTheta_ab/dx_d Theta_(d,coord)
        nonlocal term_max
        value = float(grads[entry_a, entry_b] @ theta[:, coord])
        term_max = max(term_max, abs(value))
        return value

    identities: dict[str, float] = {}
    for m in range(n):
        for k in range(n):
            r = 0.0
            for s in range(n):
                # {F_ns, q_m} and {theta_ms, p_n} weighted by grad H
                r -= hp[s] * bk(n + k, n + s, m)
                r += hq[s] * bk(m, s, n + k)
            identities[f"qp_{m + 1}{k + 1}"] = r
    for m in range(n):
        for k in range(m + 1, n):
            r = 0.0
            for s in range(n):
                r -= hp[s] * bk(m, k, n + s)
                r -= hq[s] * (bk(k, s, m) + bk(s, m, k) + bk(m, k, s))
            identities[f"qq_{m + 1}{k + 1}"] = r
            r = 0.0
            for s in range(n):
                r -= hq[s] * bk(n + m, n + k, s)
                r += hp[s] * (
                    bk(n + m, n + k, n + s)
                    + bk(n + k, n + s, n + m)
                    + bk(n + s, n + m, n + k)
                )
            identities[f"pp_{m + 1}{k + 1}"] = r
    return EvolutionReport(identities=identities, bracket_term_max=term_max)


def vanishing_combinations(structure: PoissonStructure, hamiltonian, x) -> dict[str, float]:
    """Velocity combinations that vanish exactly on the degenerate locus.

    For delta-kind structures these are q'_m + theta_mn p'_n and
    p'_m - f_mn q'_n; for the general planar kind, the four combinations
    tied to the null-determinant condition.
    """
    h = as_expression(hamiltonian)
    xdot = velocity(structure, h, x)
    n = structure.n
    out: dict[str, float] = {}
    if structure.kind in DELTA_KINDS:
        theta = structure.theta_matrix(x)
        t = theta[:n, :n]
        f = theta[n:, n:]
        qdot = xdot[:n]
        pdot = xdot[n:]
        for m in range(n):
            out[f"qdot_plus_theta_pdot_{m + 1}"] = float(qdot[m] + t[m] @ pdot)
            out[f"pdot_minus_f_qdot_{m + 1}"] = float(pdot[m] - f[m] @ qdot)
        return out
    if structure.kind == "general-planar":
        theta, fv, g11, g12, g21, g22 = planar_entries(structure.theta_matrix(x))
        dq1, dq2, dp1, dp2 = xdot
        out["f_q1"] = fv * dq1 - g12 * dp1 + g11 * dp2
        out["f_q2"] = fv * dq2 - g22 * dp1 + g21 * dp2
        out["theta_p2"] = g22 * dq1 - g12 * dq2 + theta * dp2
        out["theta_p1"] = g21 * dq1 - g11 * dq2 + theta * dp1
        return out
    raise StructureError(f"no vanishing combinations defined for kind '{structure.kind}'")


def time_derivative_split(
    structure: PoissonStructure, hamiltonian, f_expr, x
) -> tuple[float, float]:
    """d f/dt along the flow, computed two ways for planar structures:
    directly as grad f . xdot, and through the D-operator combination
    H_q1 D1 f - H_q2 D2 f + H_p1 D3 f + H_p2 D4 f."""
    h = as_expression(hamiltonian)
    f_expr = as_expression(f_expr)
    env = structure.env_at(x)
    names = structure.variable_names
    direct = float(
        np.array(gradient(f_expr, names, env)) @ velocity(structure, h, x)
    )
    hq1, hq2, hp1, hp2 = gradient(h, names, env)
    d1, d2, d3, d4 = d_operator_values(structure, f_expr, x)
    return direct, float(hq1 * d1 - hq2 * d2 + hp1 * d3 + hp2 * d4)


def d_dependence_fit(
    structure: PoissonStructure, x, test_functions: Sequence
) -> tuple[float, float]:
    """Least-squares coefficient sigma in g11 D2 f - g12 D3 f + sigma D1 f = 0.

    The coefficient is solved per point over the supplied test functions,
    since no closed form for it is published; the returned residual is the
    largest leftover after the fit.
    """
    # the D operators first: they reject a structure that is not planar
    ds = [d_operator_values(structure, f_expr, x) for f_expr in test_functions]
    _, _, g11, g12, _, _ = planar_entries(structure.theta_matrix(x))
    a = np.array([d1 for d1, _, _, _ in ds])
    b = np.array([g11 * d2 - g12 * d3 for _, d2, d3, _ in ds])
    denom = float(a @ a)
    if denom == 0.0:
        return 0.0, float(np.max(np.abs(b)))
    sigma = -float(a @ b) / denom
    residual = float(np.max(np.abs(b + sigma * a)))
    return sigma, residual


def zero_crossing_frequency(times: np.ndarray, values: np.ndarray) -> float:
    """Angular frequency from linearly interpolated upward zero crossings."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    crossings = []
    for i in range(len(values) - 1):
        if values[i] < 0.0 <= values[i + 1]:
            frac = -values[i] / (values[i + 1] - values[i])
            crossings.append(times[i] + frac * (times[i + 1] - times[i]))
    if len(crossings) < 2:
        raise ValueError("need at least two upward zero crossings")
    periods = np.diff(crossings)
    return float(2.0 * np.pi / periods.mean())
