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
straight-line step (four RK4 stages and their combination, or the velocity
that the implicit midpoint iterates) and one row per stored state, from
the row generator that structures also evaluate their entries with
(``expressions._generate_row``).  For :func:`integrate` the row holds
every monitor and every stored bracket entry, and ``det Theta`` is taken
over the structure's own assembly of those entries; an epsilon sweep's
row holds only the frozen combinations it reports.  Both read the state
tuple, bound to locals, and load each parameter once per call.  The tree
walker (``_Velocity``, ``expressions._reference_row``) stays the
reference: it redoes any step or row whose generated code raises, once,
and is bit-identical where the generated code succeeds.  Every flow, the
reduced flow of :mod:`reduction` included (its constant bracket on q1..qn
read like any structure's, with no monitor row), is stepped by the one
loop of :func:`_flow_states`.
"""

from __future__ import annotations

import functools
import math
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
    EVALUATION_ERRORS,
    Const,
    Dual,
    Expression,
    Name,
    _eval,
    _generate_row,
    _product,
    _reference_row,
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
    """Generated code for one step of ``method`` on Python floats.

    For ``"rk4"`` the result is ``step(x, dt) -> tuple``, one straight-line
    function of four velocity stages and the RK4 combination; for
    ``"midpoint"`` it is one velocity stage, ``velocity(x) -> tuple``, which
    :func:`_midpoint_step` iterates.  Each stage binds the phase-space names
    to its state's locals, and parameters are loaded once per call.  The
    float operations are those of :class:`_Velocity` (entries accumulated
    in ``structure.entries`` order, ``0.0 + v*grad[b]`` then
    ``- v*grad[a]``) and of :func:`_rk4_step`, in their order, less the
    exact no-ops that ``_Codegen`` folds (a factor 1.0, a test
    ``1.0 != 0.0``, a line already computed), so a call that succeeds is
    bit-identical to the tree walker.  The code does not fall back: the
    caller redoes a raising step on the tree walker.
    """
    names = structure.variable_names
    entries = list(structure.entries.items())
    gen, x = _state_codegen(structure)

    def stage(state: list[str]) -> list[str]:
        gen.loads.update(zip(names, state))
        gen.variables = names
        grad = gen.emit(hamiltonian)[1]
        grad = [grad.get(name, "0.0") for name in names]
        gen.variables = ()
        out = ["0.0"] * len(names)
        for (a, b), expr in entries:
            v = gen.emit(expr)[0]
            out[a] = gen.assign(f"{out[a]} + {_product(v, grad[b])}")
            out[b] = gen.assign(f"{out[b]} - {_product(v, grad[a])}")
        return out

    if method == "midpoint":
        result = f"({', '.join(stage(x))},)"
        gen.prune(result)
        return gen.function("x", result)
    half = gen.assign("0.5 * dt")
    k1 = stage(x)
    k2 = stage([gen.assign(f"{a} + {half} * {k}") for a, k in zip(x, k1)])
    k3 = stage([gen.assign(f"{a} + {half} * {k}") for a, k in zip(x, k2)])
    k4 = stage([gen.assign(f"{a} + dt * {k}") for a, k in zip(x, k3)])
    sixth = gen.assign("dt / 6.0")
    combined = "".join(
        f"{a} + {sixth} * ({p} + 2.0 * {q} + 2.0 * {r} + {t}), "
        for a, p, q, r, t in zip(x, k1, k2, k3, k4)
    )
    result = f"({combined})"
    gen.prune(result)
    return gen.function("x, dt", result)


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
        if not np.isfinite(np.asarray(self.x0, dtype=float)).all():
            raise ValueError("x0 must be finite")
        allowed = set(self.structure.variable_names) | set(self.structure.parameters)
        unknown = free_names(self.hamiltonian) - allowed
        if unknown:
            raise ValueError(f"hamiltonian references undeclared names {sorted(unknown)}")


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
    """Implicit midpoint by fixed-point iteration on the step map.

    Runs element by element, so the same code serves generated velocities
    on Python floats and :class:`_Velocity` on an array (numpy scalars)."""
    y = [a + dt * b for a, b in zip(x, v(x))]
    tol = 1e-14 * (max(map(abs, x)) + 1.0)
    for _ in range(100):
        mid = [0.5 * (a + b) for a, b in zip(x, y)]
        y_next = [a + dt * b for a, b in zip(x, v(mid))]
        # all() fails on a NaN difference, as a NaN maximum does
        if all(abs(a - b) <= tol for a, b in zip(y_next, y)):
            return y_next
        y = y_next
    raise IntegrationError("implicit midpoint iteration did not converge")


def _flow_step(structure: PoissonStructure, hamiltonian: Expression, method: str) -> Callable:
    """``step(x, dt)`` for :func:`_flow_states`: the next state, as Python
    floats.  ``structure`` is anything with the ``variable_names``,
    ``entries`` and ``parameters`` of a structure, such as a reduced system.

    Each step runs the code generated for this flow (:func:`_generate_step`).
    A step whose generated code raises is redone from the same state by the
    tree walker (:func:`_rk4_step` or :func:`_midpoint_step` over
    :class:`_Velocity`), which is bit-identical where the generated code
    succeeds, so values, errors and the error that wins are the tree
    walker's."""
    generated = _generate_step(structure, hamiltonian, method)
    reference = _Velocity(structure, hamiltonian)
    if method == "rk4":
        fast, redo = generated, functools.partial(_rk4_step, reference)
    else:
        fast = functools.partial(_midpoint_step, generated)
        redo = functools.partial(_midpoint_step, reference)

    def step(x: Sequence[float], dt: float) -> Sequence[float]:
        try:
            return fast(x, dt)
        except EVALUATION_ERRORS:
            with np.errstate(over="ignore", invalid="ignore"):
                return list(map(float, redo(np.array(x), dt)))

    return step


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
    """The rows of :func:`_generate_row` over ``exprs`` at the stored
    states, as ``(start, rows)`` for each block of at most ``_DET_BLOCK``
    states.

    One generated function computes a state's row from the state tuple,
    with parameters loaded once per call.  A state whose row raises is
    redone once, by :func:`_reference_row`, so errors are the tree
    walker's, in the order of ``exprs``.  Every block is written into one
    reused array, which keeps the extra memory to one block; read ``rows``
    before the next block replaces it."""
    row = _generate_row(structure, exprs)
    rows = np.empty((_DET_BLOCK, len(exprs)))
    for start in range(0, len(states), _DET_BLOCK):
        block = states[start : start + _DET_BLOCK]
        values = []
        for j, x in enumerate(block.tolist()):
            try:
                values.append(row(x))
            except EVALUATION_ERRORS:
                values.append(_reference_row(structure, exprs, block[j]))
        rows[: len(block)] = values
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
        # np.maximum and ndarray.max propagate a NaN, as dev.max() does
        drift = np.maximum(drift, np.abs(rows - first).max(axis=0))
    return drift.tolist()


def _flow_states(problem: FlowProblem) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(times, states, truncated)`` of a fixed-step flow: the stored
    states up to the first one that is not finite, their times, and
    whether the flow stopped there.  The one stepping loop of every flow.

    The step is adjusted by at most half a step so that an integer number
    of equal steps lands exactly on t_end."""
    structure = problem.structure
    n_steps = max(1, int(round(problem.t_end / problem.dt)))
    dt = problem.t_end / n_steps

    dim = len(structure.variable_names)
    states = np.empty((n_steps + 1, dim))
    x = np.array(problem.x0, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"x0 must have length {dim}")
    states[0] = x
    x = x.tolist()
    step = _flow_step(structure, problem.hamiltonian, problem.method)
    isfinite = math.isfinite
    truncated = False
    count = n_steps + 1
    for k in range(1, n_steps + 1):
        x = step(x, dt)
        if not all(map(isfinite, x)):
            count = k
            truncated = True
            break
        states[k] = x
    return dt * np.arange(count), states[:count], truncated


def integrate(
    problem: FlowProblem,
    extra_monitors: Mapping[str, Expression] | None = None,
) -> Trajectory:
    """Fixed-step integration (:func:`_flow_states`) with per-step monitor
    sampling."""
    structure = problem.structure
    times, states, truncated = _flow_states(problem)

    monitor_exprs: dict[str, Expression] = {"H": problem.hamiltonian}
    monitor_exprs.update(default_monitors(structure))
    if extra_monitors:
        monitor_exprs.update(
            {name: as_expression(e) for name, e in extra_monitors.items()}
        )

    series, min_abs_det = _monitor_pass(structure, monitor_exprs, states)

    warnings = []
    if truncated:
        warnings.append("trajectory truncated: state left the finite range")
    if min_abs_det < DEGENERACY_WARNING_CUTOFF:
        warnings.append(
            "bracket matrix numerically degenerate along the trajectory "
            f"(min |det| = {min_abs_det:.3e}); the reduced dynamics applies"
        )
    return Trajectory(
        times=times,
        states=states,
        monitors=series,
        truncated=truncated,
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
