"""Closed-form families for the quasilinear planar transport pair

    du/dx - v du/dy = 0,        dv/dx - u dv/dy = 0,

the equations obeyed by the momentum-momentum bracket u and the inverse
coordinate bracket v as functions of x = q1, y = p2.  Swapping dependent
and independent variables (the hodograph step) linearizes the pair; the
general solution with u != v is

    x(u, v) = f(u) + g(v),
    y(u, v) = -int u f'(u) du - int v g'(v) dv,

with free generator functions f and g.  Three stock choices are built in,
plus a numeric route for arbitrary generators: one Newton inversion per
point, with exact partials from the map's Jacobian there.  The common
degenerate limit u = v = -y/x connects back to the planar bracket fixture
f = 1/theta = -p2/q1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

# ``derivative`` stays bound here: perfbench/tracing.py wraps it under this
# name
from .expressions import (  # noqa: F401
    EVALUATION_ERRORS,
    DomainError,
    Expression,
    Name,
    _fold,
    _generate_pass,
    _generate_row,
    _redo,
    _reference_row,
    _state_codegen,
    as_expression,
    derivative,
    evaluate,
    parse,
    substitute,
)

__all__ = [
    "HodographError",
    "DomainFilter",
    "Grid2D",
    "HodographFamily",
    "FAMILY_KINDS",
    "build_family",
    "default_filters",
    "reduced_limit_family",
    "GridChecks",
    "grid_checks",
    "pde_residual",
    "jacobian_minimum",
    "limit_sweep",
    "adaptive_simpson",
    "inverse_map_from_generators",
]

FAMILY_KINDS = ("linear", "log", "loglog", "custom-fg")

# Grids, clouds, families and generators run the state-tuple code of
# structures and flows (``expressions._state_codegen``): one row per single
# point, one generated pass per block of points.  The passes
# (``expressions._generate_pass``) loop over the points themselves: the
# filter pass (:func:`_filter_pass`) over every grid point or every drawn
# cloud point, then, over the kept points of a closed-form family, the
# check pass of ``grid_checks`` and the deviation pass of ``limit_sweep``,
# one per sweep and run once per alpha, which fold their residuals as they
# go.  A custom-fg family's checks stay a Python loop, one solve per point.
# The rows serve single points: a closed-form family's (u, v) in
# ``evaluate_uv``, and each generator's value and slope over (s,).  A point
# or a row whose generated code raises is redone on the tree walker, so
# outcomes and errors are the tree walker's.  Two rules stay here: a filter
# point that raises is redone filter by filter, so a reject before an error
# wins, and a generator's value survives an error in its slope.

_XY = ("x", "y")
_S = ("s",)

# Newton stops once both residuals of the generator map are this small
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 60
_QUAD_TOL = 1e-10  # adaptive Simpson's error target per antiderivative


class HodographError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Grids with exclusion bands


@dataclass(frozen=True, eq=False)
class DomainFilter:
    """Keep a grid point only if |expr| >= min_abs (or expr >= minimum)."""

    expr: Expression
    min_abs: float | None = None
    minimum: float | None = None

    def keeps(self, v: float) -> bool:
        """Whether the value ``v`` of ``expr`` at a point keeps the point; a
        NaN, a value that cannot be compared, rejects it."""
        return not (
            v != v
            or (self.min_abs is not None and abs(v) < self.min_abs)
            or (self.minimum is not None and v < self.minimum)
        )

    def keeps_source(self, v: str, bind: Callable[[object], str]) -> str:
        """:meth:`keeps` as generated code, the test of the local ``v``;
        ``bind`` names each bound in the code's globals."""
        tests = [f"{v} != {v}"]
        if self.min_abs is not None:
            tests.append(f"abs({v}) < {bind(self.min_abs)}")
        if self.minimum is not None:
            tests.append(f"{v} < {bind(self.minimum)}")
        return f"not ({' or '.join(tests)})"

    def admits(self, env: Mapping[str, float]) -> bool:
        """The filter at the point ``env`` by the tree walker, where leaving
        the domain is a reject and any other error propagates."""
        try:
            return self.keeps(evaluate(self.expr, env))
        except DomainError:
            return False


def _admitted(filters: Sequence[DomainFilter], names, parameters, x) -> bool:
    """Whether every filter admits the point ``x`` on the tree walker, taken
    filter by filter, in order, by :meth:`DomainFilter.admits` up to the
    first reject, so a reject before an error wins."""
    env = {**parameters, **dict(zip(names, x))}
    return all(f.admits(env) for f in filters)


def _filter(src, min_abs=None, minimum=None) -> DomainFilter:
    return DomainFilter(parse(src), min_abs=min_abs, minimum=minimum)


@dataclass(frozen=True, eq=False)
class Grid2D:
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    filters: tuple[DomainFilter, ...] = ()

    @cached_property
    def _keep(self) -> Callable:
        """The filter pass of :meth:`points`, built on first use."""
        return _filter_pass(self.filters, _XY)

    def points(self, parameters: Mapping[str, float] | None = None) -> np.ndarray:
        """The ``(k, 2)`` grid points that every filter keeps, x-major.

        One generated pass (:func:`_filter_pass`) runs every filter's value
        and test at every point, with no Python call per point; a point
        whose filter lines raise is taken again filter by filter on the
        tree walker, and the pass goes on at the next point."""
        xs = np.linspace(self.x_range[0], self.x_range[1], self.nx).tolist()
        ys = np.linspace(self.y_range[0], self.y_range[1], self.ny).tolist()
        kept = np.empty((len(xs) * len(ys), 2))
        count = self._keep(dict(parameters or {}), product(xs, ys), memoryview(kept.reshape(-1)))
        return kept[:count].copy()


def default_filters(kind: str, band: float = 1e-3):
    """Exclusion bands around each family's coordinate singularities."""
    if kind in ("linear", "limit", "custom-fg"):
        return (_filter("x", min_abs=band),)
    if kind == "log":
        # the u = v locus of this family is the y = 0 line; keep clear of it
        # so the variable swap stays invertible on the admissible grid
        return (
            _filter("x", min_abs=band),
            _filter("y", min_abs=band),
            _filter("1 - exp(x/alpha)", min_abs=band),
        )
    if kind == "loglog":
        return (
            _filter("(y/alpha)^2 - 4*u0*v0*exp(x/alpha)", minimum=1e-6),
        )
    raise HodographError(f"unknown family kind '{kind}'")


# ---------------------------------------------------------------------------
# Generated filter pass


def _filter_pass(filters: Sequence[DomainFilter], names) -> Callable:
    """``keep(parameters, points, out) -> k``: the filter pass over the
    state tuples ``points`` over ``names``, a grid's or a cloud's, with the
    given ``parameters``, which writes the ``k`` kept points, in order,
    into the flat memoryview ``out``.  Every filter's value comes first,
    then every filter's test; a point whose lines raise is taken by
    :func:`_admitted`, so its outcome and its error are those of the
    filters taken one at a time."""
    gen, values = _state_codegen(names, [f.expr for f in filters])
    kept = " and ".join(f.keeps_source(v, gen.bind) for f, v in zip(filters, values))
    stores = [f"    out[i + {j}] = {gen.loads[name]}" for j, name in enumerate(names)]
    fold = ["if kept:", *stores, f"    i += {len(names)}"]
    keep = _generate_pass(gen, ["kept"], [kept or "True"], ["i = 0"], fold, f"i // {len(names)}")
    return functools.partial(keep, lambda env, x: (_admitted(filters, names, env, x),))


# ---------------------------------------------------------------------------
# Families


@dataclass(frozen=True, eq=False)
class HodographFamily:
    """An explicit or numerically inverted solution pair u(x,y), v(x,y)."""

    kind: str
    parameters: dict[str, float]
    u_expr: Expression | None = None
    v_expr: Expression | None = None
    f_expr: Expression | None = None  # generators, variable 's' (custom-fg)
    g_expr: Expression | None = None

    # the state tuple of the (u, v) rows; not a field
    variable_names = _XY

    @property
    def closed_form(self) -> bool:
        return self.u_expr is not None

    @cached_property
    def _value_row(self) -> Callable:
        """Generated code for (u, v) at a point (x, y)."""
        return _generate_row(self, (self.u_expr, self.v_expr))

    @cached_property
    def _dual_row(self) -> Callable:
        """Generated code for (u, u_x, u_y, v, v_x, v_y) at a point (x, y)."""
        return _generate_row(self, (self.u_expr, self.v_expr), _XY)

    @cached_property
    def _solver(self) -> _GeneratorSolver:
        """The numeric inversion of the generator map (custom-fg)."""
        return _GeneratorSolver(self)

    def evaluate_uv(self, x: float, y: float) -> tuple[float, float]:
        if self.closed_form:
            return tuple(self._value_row((float(x), float(y))))
        return self._solver(float(x), float(y))[:2]


_LINEAR_U = "-(y/x) + x/(2*alpha)"
_LINEAR_V = "-(y/x) - x/(2*alpha)"
_LOG_U = "((y/alpha)*exp(x/alpha))/(1 - exp(x/alpha))"
_LOG_V = "(y/alpha)/(1 - exp(x/alpha))"
_LOGLOG_ROOT_PLUS = "(-(y/alpha) + sqrt((y/alpha)^2 - 4*u0*v0*exp(x/alpha)))/2"
_LOGLOG_ROOT_MINUS = "(-(y/alpha) - sqrt((y/alpha)^2 - 4*u0*v0*exp(x/alpha)))/2"


def _require(params: Mapping[str, float], keys: Sequence[str], kind: str) -> dict:
    missing = [k for k in keys if k not in params]
    if missing:
        raise HodographError(f"family '{kind}' needs parameters {missing}")
    return {k: float(params[k]) for k in params}


def build_family(
    kind: str,
    parameters: Mapping[str, float] | None = None,
    branch: str = "+",
    f=None,
    g=None,
) -> HodographFamily:
    """Construct one solution family.

    linear:    generators f = alpha*s, g = -alpha*s
    log:       f = alpha*log(s/u0),    g = -alpha*log(s/u0)
    loglog:    f = alpha*log(s/u0),    g = +alpha*log(s/v0); two root
               assignments, picked by ``branch``
    custom-fg: arbitrary generator expressions in the variable s, with the
               antiderivatives evaluated by adaptive Simpson quadrature

    The log family's u0 drops out of the displayed fields; it is accepted
    and recorded anyway.
    """
    params = dict(parameters or {})
    if kind == "linear":
        params = _require(params, ("alpha",), kind)
        return HodographFamily(kind, params, parse(_LINEAR_U), parse(_LINEAR_V))
    if kind == "log":
        params = _require(params, ("alpha",), kind)
        params.setdefault("u0", 1.0)
        return HodographFamily(kind, params, parse(_LOG_U), parse(_LOG_V))
    if kind == "loglog":
        params = _require(params, ("alpha", "u0", "v0"), kind)
        if branch not in ("+", "-"):
            raise HodographError("branch must be '+' or '-'")
        first, second = (
            (_LOGLOG_ROOT_PLUS, _LOGLOG_ROOT_MINUS)
            if branch == "+"
            else (_LOGLOG_ROOT_MINUS, _LOGLOG_ROOT_PLUS)
        )
        return HodographFamily(kind, params, parse(first), parse(second))
    if kind == "custom-fg":
        if f is None or g is None:
            raise HodographError("custom-fg needs generator expressions f and g")
        return HodographFamily(kind, params, f_expr=as_expression(f), g_expr=as_expression(g))
    raise HodographError(f"unknown family kind '{kind}'")


def reduced_limit_family() -> HodographFamily:
    """The common degenerate limit u = v = -y/x."""
    return HodographFamily("limit", {}, parse("-(y/x)"), parse("-(y/x)"))


# ---------------------------------------------------------------------------
# Quadrature and the generator route


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson quadrature with interval bisection, to ``_QUAD_TOL``."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = fn(lmid)
        frmid = fn(rmid)
        left = simpson(lo, mid, flo, flmid, fmid)
        right = simpson(mid, hi, fmid, frmid, fhi)
        if depth <= 0:
            raise HodographError("quadrature did not converge")
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flmid, fmid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, fmid, frmid, fhi, right, eps / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, _QUAD_TOL, 48)


class _GeneratorSolver:
    """Numeric inversion of x = f(u) + g(v), y = -Y_f(u) - Y_g(v)."""

    # the state tuple of each generator's row
    variable_names = _S

    def __init__(self, family: HodographFamily):
        self.parameters = family.parameters
        # each generator, named by its family field ("f_expr" or "g_expr"),
        # and generated code for its value and slope at s
        self._exprs = {n: [getattr(family, n)] for n in ("f_expr", "g_expr")}
        self._rows = {n: _generate_row(self, e, _S) for n, e in self._exprs.items()}

    def _gen(self, name, s, slope=0):
        """The value (``slope`` 0) or the slope (1) of a generator at ``s``,
        a Python float.  The row raises the tree walker's error, which may
        be the slope's; the value is then taken on the tree walker alone,
        and the slope too when it is asked for."""
        try:
            return self._rows[name]((s,))[slope]
        except EVALUATION_ERRORS:
            return _reference_row(self, self._exprs[name], (s,), _S[:slope])[slope]

    def _gen_prime(self, name, s):
        return self._gen(name, s, 1)

    def _antiderivative(self, name, upper):
        # int_0^upper s * d(generator)/ds ds
        return adaptive_simpson(lambda s: s * self._gen_prime(name, s), 0.0, upper)

    def residual(self, u, v, x, y):
        rx = self._gen("f_expr", u) + self._gen("g_expr", v) - x
        ry = -self._antiderivative("f_expr", u) - self._antiderivative("g_expr", v) - y
        return rx, ry

    def __call__(self, x: float, y: float) -> tuple[float, float, float, float]:
        """(u, v, f'(u), g'(v)) at the solved point."""
        base = -y / x if x != 0.0 else 0.0
        for d in (0.1, 0.3, 1.0, 3.0):
            for u, v in ((base + d, base - d), (base - d, base + d)):
                try:
                    result = self._newton(u, v, x, y)
                except (HodographError, DomainError, ZeroDivisionError):
                    continue
                if result is not None:
                    return result
        raise HodographError(
            f"generator inversion failed at (x, y) = ({x}, {y})"
        )

    def _newton(self, u, v, x, y):
        for _ in range(_NEWTON_MAX_ITER):
            rx, ry = self.residual(u, v, x, y)
            fu = self._gen_prime("f_expr", u)
            gv = self._gen_prime("g_expr", v)
            if abs(rx) <= _NEWTON_TOL and abs(ry) <= _NEWTON_TOL:
                # the partials divide by these; at u == v, det can round to nonzero
                if fu * (u - v) == 0.0 or gv * (u - v) == 0.0:
                    return None
                return u, v, fu, gv
            # jacobian of (rx, ry) with respect to (u, v)
            j11, j12 = fu, gv
            j21, j22 = -u * fu, -v * gv
            det = j11 * j22 - j12 * j21
            if det == 0.0:
                return None
            du = (rx * j22 - ry * j12) / det
            dv = (ry * j11 - rx * j21) / det
            u -= du
            v -= dv
        return None


def inverse_map_from_generators(f, g, parameters=None):
    """The hodograph-plane map (u, v) -> (x, y) built from generators.

    Returns ``(x_expr, y_fn)``: the exact expression x = f(u) + g(v) over
    the names u, v, and a callable for y(u, v) evaluated by quadrature."""
    f_expr = as_expression(f)
    g_expr = as_expression(g)
    x_expr = substitute(f_expr, {"s": Name("u")}) + substitute(g_expr, {"s": Name("v")})
    family = HodographFamily("custom-fg", dict(parameters or {}), f_expr=f_expr, g_expr=g_expr)
    solver = family._solver

    def y_fn(u: float, v: float) -> float:
        u, v = float(u), float(v)
        return -solver._antiderivative("f_expr", u) - solver._antiderivative("g_expr", v)

    return x_expr, y_fn


# ---------------------------------------------------------------------------
# Residuals, Jacobian guard, limit sweep


def _field_partials(family: HodographFamily, x: float, y: float):
    """(u, v, u_x, u_y, v_x, v_y), exact for every family; for generators,
    the inverse of the map's Jacobian [[f', g'], [-u f', -v g']] in (u, v)
    at the solved point (the implicit function theorem)."""
    if family.closed_form:
        u, ux, uy, v, vx, vy = family._dual_row((float(x), float(y)))
        return u, v, ux, uy, vx, vy
    u, v, fu, gv = family._solver(float(x), float(y))
    fd = fu * (u - v)
    gd = gv * (u - v)
    return u, v, -v / fd, -1.0 / fd, u / gd, 1.0 / gd


@dataclass(frozen=True, eq=False)
class GridChecks:
    """The pointwise checks of one family over the admissible grid points."""

    points: np.ndarray
    values: np.ndarray  # (u, v) at each point
    pde: dict[str, float]  # largest residual of each transport equation
    jacobian_min: float  # min |u_x v_y - u_y v_x|


_CHECK_FOLD = [
    "out[i] = u",
    "out[i + 1] = v",
    "i += 2",
    *_fold("res_u", "abs(ux - v * uy)"),
    *_fold("res_v", "abs(vx - u * vy)"),
    *_fold("j_min", "abs(ux * vy - uy * vx)", "<"),
]


def _check_pass(family: HodographFamily) -> Callable:
    """``check(points, out) -> (res_u, res_v, j_min)``: the check pass over
    the (x, y) ``points``, which writes each point's (u, v) into the flat
    memoryview ``out``.  A closed-form family's pass is generated: it runs
    the lines of the family's partials row (``_dual_row``) and redoes a
    raising point on the tree walker.  A custom-fg family's solver is no
    generated code, so its pass is :func:`_solved_checks`."""
    if not family.closed_form:
        return functools.partial(_solved_checks, family)
    exprs = (family.u_expr, family.v_expr)
    gen, row = _state_codegen(_XY, exprs, _XY)
    start = ["i = 0", "res_u = res_v = 0.0", f"j_min = {gen.bind(math.inf)}"]
    results = ("u", "ux", "uy", "v", "vx", "vy")
    check = _generate_pass(gen, results, row, start, _CHECK_FOLD, "res_u, res_v, j_min")
    return functools.partial(check, _redo(_XY, exprs, _XY), family.parameters)


def _solved_checks(family: HodographFamily, points, out):
    """The check pass of a custom-fg family, point by point: one
    :func:`_field_partials` call per point, folded by Python's ``max`` and
    ``min``, the rule ``expressions._fold`` generates."""
    res_u = res_v = 0.0
    j_min = math.inf
    for i, (x, y) in enumerate(points):
        u, v, ux, uy, vx, vy = _field_partials(family, x, y)
        out[2 * i] = u
        out[2 * i + 1] = v
        res_u = max(res_u, abs(ux - v * uy))
        res_v = max(res_v, abs(vx - u * vy))
        j_min = min(j_min, abs(ux * vy - uy * vx))
    return res_u, res_v, j_min


def grid_checks(family: HodographFamily, grid: Grid2D) -> GridChecks:
    """Both transport residuals, the hodograph Jacobian minimum and the field
    values from one pass over the admissible grid points, each point
    evaluated once.

    The pass (:func:`_check_pass`) folds ``res_u``, ``res_v`` and
    ``j_min`` as Python's ``max`` and ``min`` do, so a NaN residual never
    wins.  On a closed-form family it is generated code that loops over the
    points and makes no Python call per point."""
    points = grid.points(family.parameters)
    if len(points) == 0:
        raise HodographError("grid has no admissible points")
    values = np.empty_like(points)
    check = _check_pass(family)
    res_u, res_v, j_min = check(zip(*points.T.tolist()), memoryview(values.reshape(-1)))
    return GridChecks(
        points=points,
        values=values,
        pde={"max_res_u": res_u, "max_res_v": res_v},
        jacobian_min=j_min,
    )


def pde_residual(family: HodographFamily, grid: Grid2D) -> dict[str, float]:
    """Largest residual of each transport equation over the grid."""
    return grid_checks(family, grid).pde


def jacobian_minimum(family: HodographFamily, grid: Grid2D) -> float:
    """min |u_x v_y - u_y v_x| over the grid; a vanishing value signals the
    u = v degeneracy where the variable swap loses invertibility."""
    return grid_checks(family, grid).jacobian_min


@dataclass(eq=False)
class SweepTable:
    rows: list[dict[str, float]]
    fitted_order: float


_DEVIATION_FOLD = [
    "limit = -x1 / x0",
    *_fold("dev_u", "abs(u - limit)"),
    *_fold("dev_v", "abs(v - limit)"),
    *_fold("dev_uv", "abs(u - v)"),
]


def _deviation_pass(family: HodographFamily) -> Callable:
    """``deviations(parameters, points) -> (dev_u, dev_v, dev_uv)``: the
    largest deviations of a closed-form family's u and v from -y/x, and of
    u from v, over the (x, y) ``points``.  It runs the lines of the
    family's value row (``_value_row``) with the given ``parameters``, so
    one pass serves every family with these u and v, and redoes a raising
    point on the tree walker."""
    exprs = (family.u_expr, family.v_expr)
    gen, row = _state_codegen(_XY, exprs)
    start = ["dev_u = dev_v = dev_uv = 0.0"]
    returns = "dev_u, dev_v, dev_uv"
    deviations = _generate_pass(gen, ("u", "v"), row, start, _DEVIATION_FOLD, returns)
    return functools.partial(deviations, _redo(_XY, exprs))


def limit_sweep(
    kind: str,
    parameters: Mapping[str, float],
    alphas: Sequence[float],
    grid: Grid2D,
) -> SweepTable:
    """Deviation of u and v from the degenerate limit -y/x as the scale
    parameter grows, with the decay order fitted in 1/alpha.

    Each alpha takes one filter pass over the grid and one run of the
    sweep's generated deviation pass over its kept points
    (:func:`_deviation_pass`), which folds the three largest deviations as
    Python's ``max`` would.  The order is NaN unless there are two distinct
    alphas, every alpha is positive and every deviation is positive."""
    if kind == "loglog":
        raise HodographError(
            "the loglog family never reaches u = v, so it has no "
            "degenerate-limit sweep"
        )
    if kind not in ("linear", "log"):
        raise HodographError(f"limit sweep supports linear and log, not '{kind}'")
    rows = []
    deviations = None
    for alpha in alphas:
        params = {**parameters, "alpha": float(alpha)}
        family = build_family(kind, params)
        points = grid.points(params)
        if len(points) == 0:
            raise HodographError(f"grid empty at alpha = {alpha}")
        deviations = deviations or _deviation_pass(family)
        dev_u, dev_v, dev_uv = deviations(family.parameters, zip(*points.T.tolist()))
        rows.append(
            {
                "alpha": float(alpha),
                "max_dev_u": dev_u,
                "max_dev_v": dev_v,
                "max_u_minus_v": dev_uv,
            }
        )
    devs = np.array([max(r["max_dev_u"], r["max_dev_v"]) for r in rows])
    alphas_arr = np.array([r["alpha"] for r in rows])
    # a fitted line needs two distinct alphas, and its logarithms positive
    # alphas and deviations, as in ``reduction.epsilon_sweep``
    if len(set(alphas_arr.tolist())) >= 2 and np.all(alphas_arr > 0.0) and np.all(devs > 0.0):
        order = float(np.polyfit(np.log(1.0 / alphas_arr), np.log(devs), 1)[0])
    else:
        order = float("nan")
    return SweepTable(rows=rows, fitted_order=order)
