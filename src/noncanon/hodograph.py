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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .expressions import (
    EVALUATION_ERRORS,
    DomainError,
    Expression,
    Name,
    as_expression,
    compile,
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

# Grid points, families and generators run generated code
# (``expressions.compile``), built once per filter or family on first use.
# Generated code falls back to the tree walker when it raises; where the
# tree walker would take values and partials in another order, the point
# is redone on the tree path, so errors, and which of them wins, are the
# tree walker's.

_XY = ("x", "y")
_S = ("s",)

# Newton stops once both residuals of the generator map are this small
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 60


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

    @cached_property
    def _value(self) -> Callable:
        """Generated value code for ``expr``."""
        return compile(self.expr)

    def admits(self, env: Mapping[str, float]) -> bool:
        try:
            v = self._value(env)[0]
        except DomainError:
            return False
        if self.min_abs is not None and abs(v) < self.min_abs:
            return False
        if self.minimum is not None and v < self.minimum:
            return False
        return True


def _filter(src, min_abs=None, minimum=None) -> DomainFilter:
    return DomainFilter(parse(src), min_abs=min_abs, minimum=minimum)


@dataclass(frozen=True, eq=False)
class Grid2D:
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    filters: tuple[DomainFilter, ...] = ()

    def points(self, parameters: Mapping[str, float] | None = None) -> np.ndarray:
        xs = np.linspace(self.x_range[0], self.x_range[1], self.nx)
        ys = np.linspace(self.y_range[0], self.y_range[1], self.ny)
        env = dict(parameters or {})
        kept = []
        for x in xs:
            env["x"] = float(x)
            for y in ys:
                env["y"] = float(y)
                if all(f.admits(env) for f in self.filters):
                    kept.append((float(x), float(y)))
        return np.array(kept) if kept else np.empty((0, 2))


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
# Families


@dataclass(eq=False)
class HodographFamily:
    """An explicit or numerically inverted solution pair u(x,y), v(x,y)."""

    kind: str
    parameters: dict[str, float]
    u_expr: Expression | None = None
    v_expr: Expression | None = None
    branch: str = "+"
    f_expr: Expression | None = None  # generators, variable 's' (custom-fg)
    g_expr: Expression | None = None
    _solver: Callable | None = field(default=None, repr=False)
    # (field name, variables) -> (the tree it was built from, generated code)
    _code: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def closed_form(self) -> bool:
        return self.u_expr is not None

    def _compiled(self, name: str, variables: tuple[str, ...] = ()) -> Callable:
        """Generated code for the expression in field ``name``, built on
        first use and rebuilt whenever the field is reassigned."""
        expr = getattr(self, name)
        built = self._code.get((name, variables))
        if built is None or built[0] is not expr:
            built = (expr, compile(expr, variables))
            self._code[(name, variables)] = built
        return built[1]

    def evaluate_uv(self, x: float, y: float) -> tuple[float, float]:
        if self.closed_form:
            env = dict(self.parameters)
            env["x"] = float(x)
            env["y"] = float(y)
            return self._compiled("u_expr")(env)[0], self._compiled("v_expr")(env)[0]
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
        return HodographFamily(kind, params, parse(first), parse(second), branch=branch)
    if kind == "custom-fg":
        if f is None or g is None:
            raise HodographError("custom-fg needs generator expressions f and g")
        family = HodographFamily(
            kind, params, f_expr=as_expression(f), g_expr=as_expression(g)
        )
        family._solver = _GeneratorSolver(family)
        return family
    raise HodographError(f"unknown family kind '{kind}'")


def reduced_limit_family() -> HodographFamily:
    """The common degenerate limit u = v = -y/x."""
    return HodographFamily("limit", {}, parse("-(y/x)"), parse("-(y/x)"))


# ---------------------------------------------------------------------------
# Quadrature and the generator route


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature with interval bisection."""

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
    return recurse(a, b, fa, fm, fb, whole, tol, 48)


class _GeneratorSolver:
    """Numeric inversion of x = f(u) + g(v), y = -Y_f(u) - Y_g(v)."""

    def __init__(self, family: HodographFamily):
        self.family = family
        self.env = dict(family.parameters)

    # generators are named by their family field, "f_expr" or "g_expr"

    def _gen(self, name, s):
        env = self.env
        env["s"] = s
        return self.family._compiled(name)(env)[0]

    def _gen_prime(self, name, s):
        env = self.env
        env["s"] = s
        try:
            return self.family._compiled(name, _S)(env)[1][0]
        except EVALUATION_ERRORS:
            # the generated code takes the value first; the tree walker
            # takes only the slope, and its error wins
            return derivative(getattr(self.family, name), "s", env)

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
    solver = _GeneratorSolver(family)

    def y_fn(u: float, v: float) -> float:
        return -solver._antiderivative("f_expr", u) - solver._antiderivative("g_expr", v)

    return x_expr, y_fn


# ---------------------------------------------------------------------------
# Residuals, Jacobian guard, limit sweep


def _field_partials(family: HodographFamily, x: float, y: float):
    """(u, v, u_x, u_y, v_x, v_y), exact for every family; for generators,
    the inverse of the map's Jacobian [[f', g'], [-u f', -v g']] in (u, v)
    at the solved point (the implicit function theorem)."""
    if family.closed_form:
        env = dict(family.parameters)
        env["x"] = x
        env["y"] = y
        try:
            u, (ux, uy) = family._compiled("u_expr", _XY)(env)
            v, (vx, vy) = family._compiled("v_expr", _XY)(env)
        except EVALUATION_ERRORS:
            # the tree walker takes both values before any partial
            u = evaluate(family.u_expr, env)
            v = evaluate(family.v_expr, env)
            ux = derivative(family.u_expr, "x", env)
            uy = derivative(family.u_expr, "y", env)
            vx = derivative(family.v_expr, "x", env)
            vy = derivative(family.v_expr, "y", env)
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


def grid_checks(family: HodographFamily, grid: Grid2D) -> GridChecks:
    """Both transport residuals, the hodograph Jacobian minimum and the field
    values from one pass over the grid, each point evaluated once."""
    points = grid.points(family.parameters)
    if len(points) == 0:
        raise HodographError("grid has no admissible points")
    res_u = 0.0
    res_v = 0.0
    j_min = np.inf
    values = []
    for x, y in points:
        u, v, ux, uy, vx, vy = _field_partials(family, x, y)
        values.append((u, v))
        res_u = max(res_u, abs(ux - v * uy))
        res_v = max(res_v, abs(vx - u * vy))
        j_min = min(j_min, abs(ux * vy - uy * vx))
    return GridChecks(
        points=points,
        values=np.array(values),
        pde={"max_res_u": float(res_u), "max_res_v": float(res_v)},
        jacobian_min=float(j_min),
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

    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "fitted_order": self.fitted_order}


def limit_sweep(
    kind: str,
    parameters: Mapping[str, float],
    alphas: Sequence[float],
    grid: Grid2D,
    branch: str = "+",
) -> SweepTable:
    """Deviation of u and v from the degenerate limit -y/x as the scale
    parameter grows, with the decay order fitted in 1/alpha."""
    if kind == "loglog":
        raise HodographError(
            "the loglog family never reaches u = v, so it has no "
            "degenerate-limit sweep"
        )
    if kind not in ("linear", "log"):
        raise HodographError(f"limit sweep supports linear and log, not '{kind}'")
    rows = []
    for alpha in alphas:
        params = dict(parameters)
        params["alpha"] = float(alpha)
        family = build_family(kind, params, branch=branch)
        points = grid.points(params)
        if len(points) == 0:
            raise HodographError(f"grid empty at alpha = {alpha}")
        dev_u = 0.0
        dev_v = 0.0
        dev_uv = 0.0
        for x, y in points:
            u, v = family.evaluate_uv(x, y)
            limit = -y / x
            dev_u = max(dev_u, abs(u - limit))
            dev_v = max(dev_v, abs(v - limit))
            dev_uv = max(dev_uv, abs(u - v))
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
    if len(rows) >= 2 and np.all(devs > 0.0):
        order = float(np.polyfit(np.log(1.0 / alphas_arr), np.log(devs), 1)[0])
    else:
        order = float("nan")
    return SweepTable(rows=rows, fitted_order=order)
