"""Degenerate-limit analysis: detecting the singular locus, sampling the
constraint surface, and verifying that the reduced brackets are constant.

When the coordinate-coordinate and momentum-momentum bracket matrices pair
into minus the identity (in the planar case, theta * f = 1), the flow
freezes the combinations c_m = q_m + theta_mn p_n.  The surface of fixed
(c_1..c_n) through a reference point carries a constant bracket value; the
checks here sample that surface, measure the spread of the bracket
functions on it, and probe the exchange relations dq_m/dp_s = -theta_ms
and dp_k/dq_n = f_kn by finite differences of the sampled surface map.
The surface total variations are the operator pair of the Jacobi transport
identities (``brackets._total_dq``, ``_total_dp``), read from one
entry-gradient pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .brackets import (
    DELTA_KINDS,
    PoissonStructure,
    StructureError,
    _total_dp,
    _total_dq,
    constant_theta_f,
    entry_label,
    planar_entries,
)
from .dynamics import (
    _DET_BLOCK,
    FlowProblem,
    IntegrationError,
    _flow_states,
    _max_drift,
    constant_combination_expressions,
    integrate,
    velocity,
)
# ``parse`` stays bound here: perfbench/tracing.py wraps it under this name
from .expressions import (  # noqa: F401
    Const,
    DomainError,
    Expression,
    Name,
    as_expression,
    derivative,
    evaluate,
    free_names,
    parse,
    substitute,
)
from .hodograph import _loglog_slope

__all__ = [
    "ReductionError",
    "FixedPointError",
    "ReductionReport",
    "ReducedSystem",
    "SurfaceSample",
    "SpectrumReport",
    "EpsilonSweep",
    "reduction_constants",
    "momentum_offsets",
    "surface_cloud",
    "leaf_cloud",
    "check_reduction",
    "total_variation_residual",
    "build_reduced",
    "reduced_velocity",
    "integrate_reduced",
    "spectrum_and_frequency",
    "implicit_theta",
    "implicit_theta_constraint_residuals",
    "epsilon_sweep",
]

DEFAULT_TOL = 1e-9
#: convergence test and iteration cap of the surface and implicit-bracket solves
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 200
#: central-difference step of the exchange-relation and implicit-bracket probes
_PROBE_STEP = 1e-6


class ReductionError(RuntimeError):
    pass


class FixedPointError(ReductionError):
    def __init__(self, message: str, last_iterate):
        super().__init__(f"{message}; last iterate {last_iterate!r}")
        self.last_iterate = last_iterate


def _require_delta_kind(structure: PoissonStructure, what: str):
    if structure.kind not in DELTA_KINDS:
        raise StructureError(f"{what} requires canonical mixed brackets")


def reduction_constants(structure: PoissonStructure, x) -> np.ndarray:
    """c_m = q_m + theta_mn(x) p_n, the combinations frozen by reduction."""
    _require_delta_kind(structure, "reduction constants")
    x = np.asarray(x, dtype=float)
    n = structure.n
    return x[:n] + structure.theta_block(x) @ x[n:]


def momentum_offsets(structure: PoissonStructure, x) -> np.ndarray:
    """d_m = p_m - f_mn(x) q_n, the dual frozen combinations."""
    _require_delta_kind(structure, "momentum offsets")
    x = np.asarray(x, dtype=float)
    n = structure.n
    return x[n:] - structure.f_block(x) @ x[:n]


# ---------------------------------------------------------------------------
# Constraint-surface sampling


@dataclass(eq=False)
class SurfaceSample:
    """Points on one constraint surface plus the map p -> q that built them."""

    reference: np.ndarray
    points: np.ndarray  # (k, 2n)
    solve_q: Callable[[np.ndarray], np.ndarray]
    rejected: int = 0


def _damped_fixed_point(targets, seeds, tol=_FIXED_POINT_TOL, max_iter=_FIXED_POINT_MAX_ITER):
    """Iterate x -> target(x) at each point of the (k, n) block ``seeds``
    until max |target - x| <= tol there, and keep that last target.

    Every point sees the iterates it would see alone.  A plain pass ends at
    a delta that is not finite or exceeds 10 * delta0 + 1, delta0 being the
    pass's first, or after ``max_iter`` steps; the point then restarts once
    from its seed with damping 0.5, and a second failure rejects it.

    Each round calls ``targets(running, x[running])`` once for the (m, n)
    targets of the m running points at their (m, n) iterates; an error it
    raises propagates.  A target equal to its iterate ends that point's
    solve at once, with that iterate.  The arithmetic is silent on
    overflow, as on Python floats.

    Returns ``(x, failed)``: ``x[i]`` is point i's last target, or its last
    iterate if it failed, and ``failed`` maps every point that did not
    converge to None."""
    seeds = np.asarray(seeds, dtype=float)
    x = seeds.copy()
    k = len(x)
    damping = np.ones(k)
    delta0 = np.zeros(k)
    steps = np.zeros(k, dtype=np.intp)
    failed: dict = {}
    running = np.arange(k)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(running):
            current = x[running]
            target = targets(running, current)
            delta = np.max(np.abs(target - current), axis=1)
            done = delta <= tol
            x[running[done]] = target[done]
            if done.all():
                break
            going = ~done
            running, target, current, delta = (
                a[going] for a in (running, target, current, delta)
            )
            first = steps[running] == 0
            delta0[running[first]] = delta[first]
            diverged = ~np.isfinite(delta) | (delta > 10.0 * delta0[running] + 1.0)
            go = ~diverged
            step = running[go]
            x[step] = current[go] + damping[step, None] * (target[go] - current[go])
            steps[running] += 1
            ended = diverged | (steps[running] >= max_iter)
            plain = damping[running] == 1.0
            restart = running[ended & plain]
            x[restart] = seeds[restart]
            damping[restart] = 0.5
            steps[restart] = 0
            for i in running[ended & ~plain].tolist():
                failed[i] = None
            running = running[~ended | plain]
    return x, failed


def _one_point(x, failed: dict, message: str):
    """The value that :func:`_damped_fixed_point` solved for a block of one
    point, or its failure raised: the :class:`DomainError` that rejected it
    (:func:`_surface_q`), or else a :class:`FixedPointError` with its last
    iterate."""
    if failed:
        raise failed[0] or FixedPointError(message, x[0])
    return x[0]


def _surface_q(structure, constants, theta_ref, p, *limits):
    """Solve q = c - theta(q, p) p at a (k, n) block of momenta ``p`` by
    :func:`_damped_fixed_point`, with its ``tol`` and ``max_iter``
    (``limits``) or its defaults, seeded with the reference bracket values
    so each iteration starts on the intended leaf.  Each round evaluates
    the structure's entries at the running points only, in one value pass
    over their (m, 2n) block (``_at_points``), every stored entry
    included, and takes the theta blocks' products as one stack.

    The pass's redo rejects a point whose row leaves the domain on the
    tree walker: it records the point's state and its
    :class:`DomainError` and gives it a NaN row, and any other error
    propagates.  A rejected point's target is its iterate, so its solve
    ends there with that iterate.  The pass takes the points in order and
    equal bits give equal outcomes, so the recorded states map back to
    the running points in order.  Returns :func:`_damped_fixed_point`'s
    ``(x, failed)``, ``failed`` also mapping every rejected point to its
    own DomainError."""
    n, walk = structure.n, structure._value_pass.args[0]
    rejects, rejected = [], {}

    def leaf(theta, momenta):
        return constants - (theta @ momenta[:, :, None])[:, :, 0]

    def redo(env, x):
        try:
            return walk(env, x)
        except DomainError as err:
            rejects.append((bytes(np.array(x)), err))
            return [np.nan] * len(structure.entries)

    def targets(running, q):
        momenta = p[running]
        block = np.concatenate([q, momenta], axis=1)
        _, rows = structure._at_points(block, redo=redo)
        target = leaf(structure._antisymmetric(rows[..., 0])[:, :n, :n], momenta)
        if rejects:
            states, j = list(map(bytes, block)), -1
            for state, err in rejects:
                j = states.index(state, j + 1)
                rejected[running[j].item()] = err
                target[j] = q[j]
            rejects.clear()
        return target

    with np.errstate(over="ignore", invalid="ignore"):
        seeds = leaf(theta_ref[None], p)
    x, failed = _damped_fixed_point(targets, seeds, *limits)
    return x, {**failed, **rejected}


def _solve_surface_q(structure, constants, theta_ref, p, *limits):
    """The surface solve of :func:`_surface_q` at one momentum point: its q,
    or its failure raised."""
    q, failed = _surface_q(structure, constants, theta_ref, np.asarray(p)[None], *limits)
    return _one_point(q, failed, "surface solve did not converge")


def surface_cloud(structure: PoissonStructure, reference, p_points) -> SurfaceSample:
    """Sample the constraint surface through ``reference``.

    Momenta are chosen freely (``p_points``: shape (k, n), one n-vector,
    or empty for an empty sample; any other width raises
    :class:`StructureError`); coordinates are solved from
    q_m = -theta_mn(q, p) p_n + c_m with the constants taken at the
    reference point, in blocks of at most ``_DET_BLOCK`` momenta.  Points
    whose solve fails to converge or leaves the expression domain are
    dropped and counted; the others keep their order."""
    _require_delta_kind(structure, "surface sampling")
    reference = np.asarray(reference, dtype=float)
    constants = reduction_constants(structure, reference)
    theta_ref = structure.theta_block(reference)
    p_points = np.asarray(p_points, dtype=float)
    if p_points.ndim > 2 or (p_points.size and p_points.shape[-1:] != (structure.n,)):
        raise StructureError(f"momenta must have {structure.n} columns, got {p_points.shape}")
    p_points = p_points.reshape(-1, structure.n)

    def solve_q(p):
        return _solve_surface_q(structure, constants, theta_ref, p)

    points = [np.empty((0, structure.dim))]
    for start in range(0, len(p_points), _DET_BLOCK):
        p = p_points[start : start + _DET_BLOCK]
        q, failed = _surface_q(structure, constants, theta_ref, p)
        points.append(np.delete(np.concatenate([q, p], axis=1), list(failed), axis=0))
    points = np.concatenate(points)
    return SurfaceSample(
        reference=reference,
        points=points,
        solve_q=solve_q,
        rejected=len(p_points) - len(points),
    )


def leaf_cloud(structure: PoissonStructure, reference, hamiltonians: Sequence) -> np.ndarray:
    """Sample the reachable set through ``reference`` by chaining short
    Hamiltonian flow segments (time 0.4 at dt 1e-3, about 20 points kept
    from each); every collected point lies on the same leaf of the bracket
    foliation up to integration error."""
    x = np.asarray(reference, dtype=float)
    collected = [x]
    for h in hamiltonians:
        problem = FlowProblem(structure, as_expression(h), x, 1e-3, 0.4)
        traj = integrate(problem)
        stride = max(1, len(traj.states) // 20)
        collected.extend(traj.states[stride::stride])
        x = traj.states[-1]
    return np.array(collected)


# ---------------------------------------------------------------------------
# Reduction report


@dataclass(eq=False)
class ReductionReport:
    reduced: bool
    condition_residuals: dict[str, float]
    admissible_count: int
    total_count: int
    constants: np.ndarray | None = None
    theta_red: float | None = None
    spread: float | None = None
    entry_spreads: dict[str, float] = field(default_factory=dict)
    dual_relation_residuals: dict[str, float] | None = None
    constancy_implied: bool | None = None
    notes: tuple[str, ...] = ()


def _point_condition(structure: PoissonStructure, report) -> tuple[str, float]:
    """The kind's degeneracy measure from a :class:`DegeneracyReport`, with
    the key it is reported under."""
    if structure.kind in DELTA_KINDS:
        return "inverse_pairing", report.inverse_pairing_residual
    if structure.kind == "general-planar":
        return "planar_determinant_condition", abs(report.planar_condition)
    return "determinant", abs(report.det)


def check_reduction(
    structure: PoissonStructure,
    cloud,
    tol: float = DEFAULT_TOL,
) -> ReductionReport:
    """Evaluate the degeneracy condition over a cloud and, on the admissible
    subset, the spread of every nonconstant bracket entry.

    ``cloud`` is either a plain (k, 2n) array or a :class:`SurfaceSample`;
    with a sample the exchange relations are also probed by finite
    differences of the surface map."""
    sample = cloud if isinstance(cloud, SurfaceSample) else None
    points = sample.points if sample is not None else np.atleast_2d(np.asarray(cloud, dtype=float))
    if points.size == 0:
        return ReductionReport(
            reduced=False,
            condition_residuals={},
            admissible_count=0,
            total_count=0,
            notes=("empty cloud: not reduced",),
        )

    condition_max = 0.0
    det_max = 0.0
    admissible = []
    # the bracket matrices at the admissible points, read by the checks below
    thetas = []
    for start in range(0, len(points), _DET_BLOCK):
        block = points[start : start + _DET_BLOCK]
        m = structure.theta_matrix(block)
        report = structure.degeneracy_of(m)
        key, c = _point_condition(structure, report)
        # both measures are never negative: np.fmax folds them as a running
        # max() does, and a NaN never wins
        condition_max = np.fmax.reduce(c, initial=condition_max)
        det_max = np.fmax.reduce(np.abs(report.det), initial=det_max)
        keep = c <= tol
        admissible.append(block[keep])
        thetas.append(m[keep])
    admissible = np.concatenate(admissible)
    thetas = np.concatenate(thetas)

    condition_residuals = {key: condition_max, "det_max": det_max}

    notes: list[str] = []
    constancy_implied: bool | None = None
    if structure.kind == "general-planar":
        nonconstant = structure.nonconstant_entry_names()
        constancy_implied = len(nonconstant) <= 3
        if not constancy_implied:
            notes.append(
                "constancy not implied: more than three bracket functions are "
                "nonconstant; only the product ratio theta*f/(g11*g22) is checked"
            )
            ratio_max = 0.0
            for m in thetas:
                theta, fv, g11, _, _, g22 = planar_entries(m)
                ratio_max = max(ratio_max, abs(theta * fv / (g11 * g22) - 1.0))
            condition_residuals["product_ratio_minus_one"] = ratio_max

    if not len(admissible):
        notes.append("no admissible points: not reduced")
        return ReductionReport(
            reduced=False,
            condition_residuals=condition_residuals,
            admissible_count=0,
            total_count=len(points),
            constancy_implied=constancy_implied,
            notes=tuple(notes),
        )

    reference = sample.reference if sample is not None else admissible[0]

    entry_spreads: dict[str, float] = {}
    names = set(structure.variable_names)

    theta_red = None
    spread = None
    check_spread = constancy_implied is not False
    if check_spread:
        for (a, b), expr in sorted(structure.entries.items()):
            varying = thetas if free_names(expr) & names else thetas[:1]
            values = varying[:, a, b].tolist()
            entry_spreads[entry_label(structure.n, a, b)] = max(values) - min(values)
        if structure.n >= 2 and (
            (0, 1) in structure.entries or structure.kind in DELTA_KINDS
        ):
            theta_red = float(structure.theta_matrix(reference)[0, 1])
            # a delta kind without a theta_12 entry has theta_12 = 0 throughout
            spread = entry_spreads.get("theta_12", 0.0)

    constants = None
    if structure.kind in DELTA_KINDS:
        constants = reduction_constants(structure, reference)

    dual_residuals = None
    if sample is not None and len(sample.points) > 0:
        dual_residuals = _exchange_relation_residuals(structure, sample)

    return ReductionReport(
        reduced=True,
        condition_residuals=condition_residuals,
        admissible_count=len(admissible),
        total_count=len(points),
        constants=constants,
        theta_red=theta_red,
        spread=spread,
        entry_spreads=entry_spreads,
        dual_relation_residuals=dual_residuals,
        constancy_implied=constancy_implied,
        notes=tuple(notes),
    )


def _central_difference(fn: Callable, x: np.ndarray, k: int):
    """The central difference of ``fn`` at ``x`` along coordinate ``k``,
    over ``_PROBE_STEP``; ``fn`` runs at the plus step first."""
    dx = np.zeros(len(x))
    dx[k] = _PROBE_STEP
    return (fn(x + dx) - fn(x - dx)) / (2.0 * _PROBE_STEP)


def _exchange_relation_residuals(
    structure: PoissonStructure, sample: SurfaceSample
) -> dict[str, float]:
    """Finite-difference dq/dp of the surface map against -theta, and its
    inverse against f, at every max(1, k // 5)-th of the k sampled points
    from the first: all of them when k < 10 (so 7 of 7), otherwise five
    to seven."""
    n = structure.n
    worst_theta = 0.0
    worst_f = 0.0
    count = 0
    for x in sample.points[:: max(1, len(sample.points) // 5)]:
        p = x[n:]
        jac = np.empty((n, n))
        try:
            for s in range(n):
                jac[:, s] = _central_difference(sample.solve_q, p, s)
        except (FixedPointError, DomainError):
            continue
        theta = structure.theta_matrix(x)
        worst_theta = max(worst_theta, float(np.max(np.abs(jac + theta[:n, :n]))))
        try:
            inv = np.linalg.inv(jac)
        except np.linalg.LinAlgError:
            continue
        worst_f = max(worst_f, float(np.max(np.abs(inv - theta[n:, n:]))))
        count += 1
    if count == 0:
        return {"dq_dp_plus_theta": np.nan, "dp_dq_minus_f": np.nan}
    return {"dq_dp_plus_theta": worst_theta, "dp_dq_minus_f": worst_f}


def total_variation_residual(structure: PoissonStructure, x) -> dict[str, float]:
    """On-surface total variations of the bracket entries.

    For each entry theta_mn and direction q_l the combination
    d theta_mn/d q_l + f_sl d theta_mn/d p_s, and dually for the momentum
    entries; all vanish at points where the transport constraints hold."""
    _require_delta_kind(structure, "total variation residuals")
    n = structure.n
    # the theta and f entries; the mixed ones are never differentiated
    keys = [(a, b) for a, b in sorted(structure.entries) if (a < n) == (b < n)]
    theta, grads = structure._entry_gradients(x)
    out: dict[str, float] = {}
    for a, b in keys:
        g = grads[a, b]
        for l in range(n):
            if a < n:
                out[f"theta_{a+1}{b+1}_dq{l+1}"] = abs(_total_dq(g, theta, n, l))
            else:
                out[f"f_{a-n+1}{b-n+1}_dp{l+1}"] = abs(_total_dp(g, theta, n, l))
    return out


# ---------------------------------------------------------------------------
# The reduced system


@dataclass(frozen=True, eq=False)
class ReducedSystem:
    """Half-dimensional system on the coordinates alone, with a constant
    bracket matrix and the momenta eliminated through the frozen
    combinations: a Poisson structure with constant entries on q1..qn, read
    by the flow engine of :mod:`dynamics` like any other."""

    theta_matrix: np.ndarray  # n x n constant coordinate bracket
    hamiltonian: Expression   # in q1..qn only
    parameters: Mapping[str, float]
    reference: np.ndarray     # q1..qn of the reference point

    @property
    def n(self) -> int:
        return len(self.theta_matrix)

    @property
    def theta_red(self) -> float:
        """The (1, 2) entry of the reduced bracket; 0.0 when n = 1."""
        return float(self.theta_matrix[0, 1]) if self.n >= 2 else 0.0

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(f"q{i + 1}" for i in range(self.n))

    @property
    def entries(self) -> dict[tuple[int, int], Expression]:
        """theta_ij for every i < j, zero entries included."""
        n, theta = self.n, self.theta_matrix
        return {(i, j): Const(float(theta[i, j])) for i in range(n) for j in range(i + 1, n)}


def build_reduced(
    structure: PoissonStructure,
    hamiltonian,
    constants=None,
    *,
    reference,
    tol: float = DEFAULT_TOL,
) -> ReducedSystem:
    """Eliminate the momenta via q_m = -theta_mn p_n + c_m.

    Requires a reference point where the degeneracy condition holds within
    ``tol``; the constant bracket matrix is read off there."""
    _require_delta_kind(structure, "building a reduced system")
    reference = np.asarray(reference, dtype=float)
    _, condition = _point_condition(structure, structure.degeneracy(reference))
    if condition > tol:
        raise ReductionError(
            f"degeneracy condition fails at the reference point "
            f"(residual {condition:.3e} > {tol:.1e})"
        )
    n = structure.n
    theta = structure.theta_block(reference)
    if constants is None:
        constants = reduction_constants(structure, reference)
    constants = np.asarray(constants, dtype=float)
    try:
        coeff = np.linalg.inv(theta)
    except np.linalg.LinAlgError:
        raise ReductionError(
            "coordinate-coordinate bracket matrix is singular; cannot "
            "eliminate the momenta"
        ) from None
    # p = theta^{-1} (c - q)
    replacements = {}
    h = as_expression(hamiltonian)
    for k in range(n):
        terms = []
        for m in range(n):
            a = float(coeff[k, m])
            if a == 0.0:
                continue
            terms.append(Const(a) * (Const(constants[m]) - Name(f"q{m + 1}")))
        expr: Expression = terms[0] if terms else Const(0.0)
        for t in terms[1:]:
            expr = expr + t
        replacements[f"p{k + 1}"] = expr
    reduced_h = substitute(h, replacements)
    return ReducedSystem(
        theta_matrix=theta,
        hamiltonian=reduced_h,
        parameters=dict(structure.parameters),
        reference=reference[:n].copy(),
    )


def reduced_velocity(system: ReducedSystem, q) -> np.ndarray:
    """dq_i/dt = theta_ij dh/dq_j with the constant reduced bracket, by the
    tree walker that redoes a raising step of every flow."""
    return velocity(system, system.hamiltonian, q)


def integrate_reduced(
    system: ReducedSystem, q0, dt: float, t_end: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 on the reduced coordinates: ``(times, qs)`` from the
    stepping loop of every flow (:func:`dynamics._flow_states`), with its
    step rule and its stop before the first state that is not finite.  No
    monitor row is computed."""
    times, qs, _ = _flow_states(FlowProblem(system, system.hamiltonian, q0, dt, t_end))
    return times, qs


# ---------------------------------------------------------------------------
# Rotationally invariant planar case: oscillator profile


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Level ladder and classical angular frequency of a rotationally
    invariant planar reduced system.

    The action variable is n_bar = (q1^2 + q2^2) / (2 theta), the value of
    a_bar a for a = (q1 + i q2) / sqrt(2 theta).  Levels are emitted under
    both published argument conventions, theta*(n + 1/2) and (n + 1/2),
    since the two normalizations disagree in print; the classical
    frequency is convention-free."""

    omega_red: float
    levels: dict[str, list[float]]


class NotRotationallyInvariantError(ReductionError):
    pass


def _radial_profile(system: ReducedSystem) -> Callable[[float], float]:
    if system.n != 2:
        raise ReductionError("spectrum analysis is planar only")
    env = dict(system.parameters)

    def h_at(q1, q2):
        env["q1"] = q1
        env["q2"] = q2
        return evaluate(system.hamiltonian, env)

    for r in (0.37, 0.83, 1.29):
        base = h_at(r, 0.0)
        for ang in (0.7, 1.9, 3.4, 5.1):
            v = h_at(r * np.cos(ang), r * np.sin(ang))
            if abs(v - base) > 1e-9 * (1.0 + abs(base)):
                raise NotRotationallyInvariantError(
                    "reduced Hamiltonian is not a function of q1^2 + q2^2"
                )

    def radial(s: float) -> float:
        return h_at(np.sqrt(s), 0.0)

    return radial


def spectrum_and_frequency(system: ReducedSystem, n_max: int) -> SpectrumReport:
    """Oscillator level ladder and the classical orbit frequency
    d h / d n_bar through the reference point."""
    radial = _radial_profile(system)
    theta = system.theta_red
    if theta == 0.0:
        raise ReductionError("reduced bracket is zero; no oscillator structure")
    ref = system.reference
    r0 = float(np.hypot(ref[0], ref[1]))
    if r0 == 0.0:
        raise ReductionError("reference orbit has zero radius")
    env = dict(system.parameters)
    env["q1"] = r0
    env["q2"] = 0.0
    dh_dq1 = derivative(system.hamiltonian, "q1", env)
    # h = h_rad(q1^2 + q2^2), so dh/dn_bar = 2 theta h_rad' = theta dh/dq1 / q1
    omega = theta * dh_dq1 / r0
    levels = {
        "argument_theta_times_n_plus_half": [
            radial(2.0 * theta * theta * (k + 0.5)) for k in range(n_max + 1)
        ],
        "argument_n_plus_half": [
            radial(2.0 * theta * (k + 0.5)) for k in range(n_max + 1)
        ],
    }
    return SpectrumReport(omega_red=float(omega), levels=levels)


# ---------------------------------------------------------------------------
# Implicit planar solutions theta = phi(q1 + theta p2, q2 - theta p1)


def implicit_theta(
    phi,
    x,
    parameters: Mapping[str, float] | None = None,
    theta0: float = 0.0,
) -> float:
    """Solve theta = phi(q1 + theta p2, q2 - theta p1) by fixed point.

    ``phi`` is an expression in the surface labels c1, c2.  The solve is a
    block of one point of the surface solve's loop,
    :func:`_damped_fixed_point`: divergence triggers a damped retry, and
    persistent failure raises with the last iterate attached.  Where
    ``phi`` leaves the domain, its :class:`DomainError` propagates."""
    phi = as_expression(phi)
    q1, q2, p1, p2 = (float(v) for v in np.asarray(x, dtype=float))
    env = dict(parameters or {})

    def targets(running, theta):
        (t,), = theta.tolist()
        env["c1"] = q1 + t * p2
        env["c2"] = q2 - t * p1
        return np.array([[evaluate(phi, env)]], dtype=float)

    theta, failed = _damped_fixed_point(targets, [[theta0]])
    return _one_point(theta[:, 0].tolist(), failed, "implicit bracket solve did not converge")


def implicit_theta_constraint_residuals(
    phi, x, parameters: Mapping[str, float] | None = None
) -> tuple[float, float]:
    """Residuals of the halved transport pair for the implicit solution,
    theta dtheta/dq1 - dtheta/dp2 and theta dtheta/dq2 + dtheta/dp1,
    with the partials taken by central differences (step ``_PROBE_STEP``)
    of the solved field; exact partials would make both vanish by algebra."""
    x = np.asarray(x, dtype=float)

    def solve(point):
        return implicit_theta(phi, point, parameters)

    theta = solve(x)
    tq1, tq2, tp1, tp2 = (_central_difference(solve, x, a) for a in range(4))
    return abs(theta * tq1 - tp2), abs(theta * tq2 + tp1)


# ---------------------------------------------------------------------------
# Near-degenerate sweep


@dataclass(eq=False)
class EpsilonSweep:
    rows: list[dict[str, float]]
    fitted_slope: float


def epsilon_sweep(
    theta: float,
    hamiltonian,
    x0,
    epsilons: Sequence[float],
    dt: float = 1e-3,
    t_end: float = 10.0,
    method: str = "rk4",
    parameters: Mapping[str, float] | None = None,
) -> EpsilonSweep:
    """Drift of the frozen combinations for the family f = (1 - eps)/theta.

    At eps = 0 the combinations are exact invariants; their drift over a
    fixed horizon is expected to scale linearly with eps, and the log-log
    slope of max drift against eps is reported, NaN by
    ``hodograph._loglog_slope``'s rule.  ``parameters`` are bound in every
    swept structure.

    Each flow is stepped as :func:`integrate` steps it, and its stored
    states are read for the combinations alone: the drifts are those of
    ``integrate(...).monitor_drift``, bit for bit, without the Hamiltonian,
    the entry monitors or ``det Theta`` that the sweep does not report.  A
    flow that leaves the finite range raises :class:`IntegrationError`:
    the fitted slope compares drifts over equal horizons."""
    h = as_expression(hamiltonian)
    rows = []
    for eps in epsilons:
        structure = constant_theta_f(theta, (1.0 - eps) / theta, parameters)
        _, states, truncated = _flow_states(FlowProblem(structure, h, x0, dt, t_end, method))
        if truncated:
            raise IntegrationError(
                f"sweep flow at epsilon {eps} left the finite range after "
                f"{len(states) - 1} steps"
            )
        combinations = constant_combination_expressions(structure)
        drifts = _max_drift(structure, list(combinations.values()), states)
        row: dict[str, float] = {"epsilon": float(eps)}
        for name, drift in zip(combinations, drifts):
            row[f"{name}_drift"] = drift
        # np.max propagates a NaN drift, where Python's max() may drop it
        row["max_drift"] = float(np.max(drifts))
        rows.append(row)
    slope = _loglog_slope([r["epsilon"] for r in rows], [r["max_drift"] for r in rows])
    return EpsilonSweep(rows=rows, fitted_slope=slope)
