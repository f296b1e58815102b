"""Closed-form hodograph families induce Jacobi-consistent structures.

A solution pair (u, v) of the transport pair u_x - v u_y = 0,
v_x - u v_y = 0 gives the planar theta-f-field structure with
theta = {q1,q2} = 1/u and f = {p1,p2} = v, read at x = q1, y = p2.  Its
Jacobi identities are the transport pair again, so at every admissible
grid point (with q2 and p1 free) the generic cyclic residual and the four
transport identities vanish to rounding.  The halved pair
``reduced_transport_*`` holds only on theta*f = 1, so it is not checked
here.  The common degenerate limit u = v = -y/x gives a structure that
reduces on its constraint surfaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon.brackets import theta_f_field
from noncanon.expressions import Const, Name, substitute
from noncanon.hodograph import Grid2D, build_family, default_filters, reduced_limit_family
from noncanon.reduction import check_reduction, surface_cloud

_TRANSPORT = ("theta_transport_q1", "theta_transport_q2", "f_transport_p1", "f_transport_p2")
_GRIDS = {
    "linear": ((-1.0, 1.0), (-1.0, 1.0)),
    "log": ((0.5, 3.0), (-2.0, 2.0)),
    "loglog": ((-1.0, 1.0), (1.0, 3.0)),
}
# theta = 1/u; the linear family's u is 0 on y = x^2/(2 alpha), e.g. at (1, 1)
# for alpha 0.5, so points closer to u = 0 than this are skipped
_MIN_ABS_U = 1e-3


def structure_of(family):
    """theta = 1/u, f = v with x -> q1 and y -> p2."""
    to_phase = {"x": Name("q1"), "y": Name("p2")}
    u = substitute(family.u_expr, to_phase)
    v = substitute(family.v_expr, to_phase)
    return theta_f_field(2, {(1, 2): Const(1.0) / u}, {(1, 2): v}, family.parameters)


def worst_scaled_residual(kind, parameters, branch="+", size=21, seed=0):
    """The largest Jacobi residual over the family's admissible grid, each
    divided by max(1, max|Theta|)^2 at its point; and the points checked."""
    family = build_family(kind, parameters, branch=branch)
    structure = structure_of(family)
    xs, ys = _GRIDS[kind]
    points = Grid2D(xs, ys, size, size, default_filters(kind)).points(family.parameters)
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for x, y in points:
        u, _ = family.evaluate_uv(x, y)
        if abs(u) < _MIN_ABS_U:
            continue
        q2, p1 = rng.uniform(-1.0, 1.0, 2)
        report = structure.jacobi_report(np.array([x, q2, p1, y]))
        scale = max(1.0, float(np.max(np.abs(report.theta)))) ** 2
        residuals = [report.generic_max, *(report.identities[key] for key in _TRANSPORT)]
        worst = max(worst, max(residuals) / scale)
        checked += 1
    return worst, checked


@pytest.mark.parametrize(
    "kind, parameters, branch",
    [
        ("linear", {"alpha": 0.5}, "+"),
        ("log", {"alpha": 1.0, "u0": 1.0}, "+"),
        ("loglog", {"alpha": 1.0, "u0": 0.3, "v0": 0.2}, "+"),
        ("loglog", {"alpha": 1.0, "u0": 0.3, "v0": 0.2}, "-"),
    ],
)
def test_family_structure_is_consistent_on_its_grid(kind, parameters, branch):
    worst, checked = worst_scaled_residual(kind, parameters, branch)
    assert checked >= 100
    assert worst <= 1e-12


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(["linear", "log", "loglog"]),
    alpha=st.floats(0.25, 4.0),
    branch=st.sampled_from(["+", "-"]),
)
def test_family_structure_is_consistent_for_any_alpha(kind, alpha, branch):
    parameters = {"alpha": alpha, "u0": 0.3, "v0": 0.2}
    worst, checked = worst_scaled_residual(kind, parameters, branch, size=11, seed=1)
    assert checked > 0
    assert worst <= 1e-12


def test_limit_family_structure_reduces():
    structure = structure_of(reduced_limit_family())
    rng = np.random.default_rng(14)
    p_points = 0.8 + 0.8 * rng.random((200, 2))
    cloud = surface_cloud(structure, [1.0, 0.5, 0.3, 2.0], p_points)
    report = check_reduction(structure, cloud)
    assert report.reduced
    assert report.spread <= 1e-12
    assert report.theta_red == pytest.approx(-0.5, abs=1e-12)
    assert max(report.dual_relation_residuals.values()) <= 1e-6
