"""Solution families of the planar transport pair and their limits."""

import dataclasses
import math

import numpy as np
import pytest

from noncanon.expressions import Binary, derivative, parse
from noncanon.hodograph import (
    DomainFilter,
    Grid2D,
    HodographError,
    adaptive_simpson,
    build_family,
    default_filters,
    inverse_map_from_generators,
    jacobian_minimum,
    limit_sweep,
    pde_residual,
    reduced_limit_family,
)


def linear_grid(band=0.05):
    return Grid2D((-1.0, 1.0), (-1.0, 1.0), 41, 41, default_filters("linear", band))


def log_grid():
    return Grid2D((0.5, 3.0), (-2.0, 2.0), 31, 31, default_filters("log"))


def loglog_grid():
    return Grid2D((-1.0, 1.0), (1.0, 3.0), 21, 21, default_filters("loglog"))


class TestBuildFamily:
    def test_linear_fields(self):
        fam = build_family("linear", {"alpha": 1.0})
        u, v = fam.evaluate_uv(0.8, -0.6)
        assert u == pytest.approx(0.6 / 0.8 + 0.4, abs=1e-15)
        assert v == pytest.approx(0.6 / 0.8 - 0.4, abs=1e-15)

    def test_log_fields(self):
        fam = build_family("log", {"alpha": 1.0, "u0": 1.0})
        x, y = 1.2, 0.7
        e = math.exp(x)
        u, v = fam.evaluate_uv(x, y)
        assert u == pytest.approx(y * e / (1.0 - e), rel=1e-15)
        assert v == pytest.approx(y / (1.0 - e), rel=1e-15)

    def test_log_fields_independent_of_u0(self):
        # u0 cancels from the displayed fields; accepted for completeness
        a = build_family("log", {"alpha": 1.0, "u0": 1.0})
        b = build_family("log", {"alpha": 1.0, "u0": 7.3})
        assert a.evaluate_uv(1.2, 0.7) == b.evaluate_uv(1.2, 0.7)

    def test_missing_parameter(self):
        with pytest.raises(HodographError, match="alpha"):
            build_family("linear", {})

    def test_loglog_branches(self):
        params = {"alpha": 1.0, "u0": 0.3, "v0": 0.2}
        plus = build_family("loglog", params, branch="+")
        minus = build_family("loglog", params, branch="-")
        up, vp = plus.evaluate_uv(0.4, 2.0)
        um, vm = minus.evaluate_uv(0.4, 2.0)
        assert (up, vp) == (vm, um)
        assert up > vp

    def test_custom_reproduces_linear(self):
        fam = build_family("custom-fg", {"alpha": 1.0}, f="alpha*s", g="-alpha*s")
        ref = build_family("linear", {"alpha": 1.0})
        grid = Grid2D((0.4, 1.4), (-1.0, 1.0), 6, 6, default_filters("custom-fg"))
        for x, y in grid.points({"alpha": 1.0}):
            u, v = fam.evaluate_uv(x, y)
            ur, vr = ref.evaluate_uv(x, y)
            assert abs(u - ur) <= 1e-9
            assert abs(v - vr) <= 1e-9


class TestPdeResidual:
    def test_linear_family(self):
        out = pde_residual(build_family("linear", {"alpha": 1.0}), linear_grid())
        assert out["max_res_u"] <= 1e-10
        assert out["max_res_v"] <= 1e-10

    def test_log_family_against_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        x, y, alpha = sympy.symbols("x y alpha", positive=True)
        u = (y / alpha) * sympy.exp(x / alpha) / (1 - sympy.exp(x / alpha))
        v = (y / alpha) / (1 - sympy.exp(x / alpha))
        res_u = sympy.simplify(sympy.diff(u, x) - v * sympy.diff(u, y))
        res_v = sympy.simplify(sympy.diff(v, x) - u * sympy.diff(v, y))
        assert res_u == 0 and res_v == 0
        out = pde_residual(build_family("log", {"alpha": 1.0}), log_grid())
        assert out["max_res_u"] <= 1e-8
        assert out["max_res_v"] <= 1e-8

    def test_loglog_family(self):
        fam = build_family("loglog", {"alpha": 1.0, "u0": 0.3, "v0": 0.2})
        out = pde_residual(fam, loglog_grid())
        assert out["max_res_u"] <= 1e-8
        assert out["max_res_v"] <= 1e-8

    def test_corrupted_family_is_detected(self):
        fam = build_family("linear", {"alpha": 1.0})
        fam = dataclasses.replace(fam, u_expr=Binary("+", fam.u_expr, parse("0.1*x")))
        out = pde_residual(fam, linear_grid())
        assert out["max_res_u"] >= 0.05

    def test_limit_field_solves_both_equations(self):
        out = pde_residual(reduced_limit_family(), linear_grid())
        assert out["max_res_u"] <= 1e-12
        assert out["max_res_v"] <= 1e-12

    def test_empty_grid_rejected(self):
        grid = Grid2D((0.0, 0.0), (0.0, 0.0), 1, 1, default_filters("linear"))
        with pytest.raises(HodographError, match="no admissible"):
            pde_residual(build_family("linear", {"alpha": 1.0}), grid)


class TestJacobianGuard:
    def test_linear_family_invertible(self):
        assert jacobian_minimum(build_family("linear", {"alpha": 1.0}), linear_grid()) > 1e-12

    def test_log_family_invertible_off_axis(self):
        assert jacobian_minimum(build_family("log", {"alpha": 1.0}), log_grid()) > 1e-12

    def test_limit_family_degenerates(self):
        # u = v makes the variable swap lose rank everywhere
        assert jacobian_minimum(reduced_limit_family(), linear_grid()) <= 1e-12


class TestLimitSweep:
    def test_linear_exact_deviations(self):
        sweep = limit_sweep("linear", {}, [1.0, 10.0, 100.0], linear_grid())
        # closed form: max |u + y/x| = max |x| / (2 alpha) on |x| <= 1
        for row, expected in zip(sweep.rows, (0.5, 0.05, 0.005)):
            assert row["max_dev_u"] == pytest.approx(expected, abs=1e-12)
            assert row["max_dev_v"] == pytest.approx(expected, abs=1e-12)
        assert sweep.fitted_order == pytest.approx(1.0, abs=1e-9)

    def test_log_monotone_decay(self):
        sweep = limit_sweep("log", {"u0": 1.0}, [2.0, 20.0, 200.0], log_grid())
        devs = [r["max_dev_u"] for r in sweep.rows]
        assert devs[0] > devs[1] > devs[2]
        assert sweep.fitted_order == pytest.approx(1.0, abs=0.1)

    def test_loglog_rejected(self):
        with pytest.raises(HodographError, match="never reaches u = v"):
            limit_sweep("loglog", {"u0": 0.3, "v0": 0.2}, [1.0, 10.0], loglog_grid())

    def test_singleton_grid_matches_pointwise_value(self):
        grid = Grid2D((0.8, 0.8), (0.5, 0.5), 1, 1, default_filters("linear"))
        sweep = limit_sweep("linear", {}, [2.0], grid)
        assert sweep.rows[0]["max_dev_u"] == pytest.approx(0.8 / 4.0, abs=1e-15)


class TestInversion:
    def test_linear_generators_closed_form(self):
        # x = alpha (u - v), y = -alpha (u^2 - v^2)/2 satisfy the swapped pair
        x_expr, y_fn = inverse_map_from_generators(
            "alpha*s", "-alpha*s", {"alpha": 1.0}
        )
        h = 1e-6
        for u, v in [(0.7, -0.4), (1.3, 0.2), (-0.5, -1.1)]:
            env = {"u": u, "v": v, "alpha": 1.0}
            dy_du = (y_fn(u + h, v) - y_fn(u - h, v)) / (2 * h)
            dy_dv = (y_fn(u, v + h) - y_fn(u, v - h)) / (2 * h)
            assert abs(dy_du + u * derivative(x_expr, "u", env)) <= 1e-9
            assert abs(dy_dv + v * derivative(x_expr, "v", env)) <= 1e-9

    def test_loglog_product_identity(self):
        params = {"alpha": 1.0, "u0": 0.3, "v0": 0.2}
        fam = build_family("loglog", params)
        for x, y in loglog_grid().points(params):
            u, v = fam.evaluate_uv(x, y)
            assert abs(u * v - 0.3 * 0.2 * math.exp(x)) <= 1e-9

    def test_loglog_roots_never_merge(self):
        params = {"alpha": 1.0, "u0": 0.3, "v0": 0.2}
        fam = build_family("loglog", params)
        min_gap = min(
            abs(fam.evaluate_uv(x, y)[0] - fam.evaluate_uv(x, y)[1])
            for x, y in loglog_grid().points(params)
        )
        assert min_gap > 0.0
        assert min_gap >= math.sqrt(1e-6)


class TestQuadrature:
    def test_exponential(self):
        assert adaptive_simpson(math.exp, 0.0, 1.0) == pytest.approx(
            math.e - 1.0, abs=1e-12
        )

    def test_empty_interval(self):
        assert adaptive_simpson(math.sin, 2.0, 2.0) == 0.0

    def test_oscillatory(self):
        got = adaptive_simpson(lambda s: math.sin(10.0 * s), 0.0, math.pi)
        assert got == pytest.approx((1.0 - math.cos(10.0 * math.pi)) / 10.0, abs=1e-10)


class TestGrid:
    def test_filters_enforce_margin(self):
        grid = linear_grid(band=0.05)
        pts = grid.points({})
        assert len(pts) > 0
        assert np.min(np.abs(pts[:, 0])) >= 0.05

    def test_discriminant_filter(self):
        grid = loglog_grid()
        params = {"alpha": 1.0, "u0": 0.3, "v0": 0.2}
        for x, y in grid.points(params):
            disc = y * y - 4 * 0.3 * 0.2 * math.exp(x)
            assert disc >= 1e-6

    def test_domain_error_inside_filter_rejects(self):
        flt = DomainFilter(parse("1/x"), min_abs=0.1)
        assert not flt.admits({"x": 0.0})
