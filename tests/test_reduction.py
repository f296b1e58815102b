"""Degenerate-limit reduction: surfaces, constancy, the reduced oscillator."""

import dataclasses
import math

import numpy as np
import pytest

from noncanon.brackets import (
    StructureError,
    canonical,
    constant_theta_f,
    general_planar,
    theta_f_field,
)
from noncanon.dynamics import (
    FlowProblem,
    integrate,
    vanishing_combinations,
    zero_crossing_frequency,
)
from noncanon.expressions import evaluate
from noncanon.reduction import (
    FixedPointError,
    NotRotationallyInvariantError,
    ReductionError,
    build_reduced,
    check_reduction,
    epsilon_sweep,
    implicit_theta,
    implicit_theta_constraint_residuals,
    integrate_reduced,
    leaf_cloud,
    momentum_offsets,
    reduction_constants,
    spectrum_and_frequency,
    surface_cloud,
    total_variation_residual,
)

RNG = np.random.default_rng(31)

HARMONIC = "(p1^2 + p2^2 + q1^2 + q2^2)/2"

# the three state-dependent degenerate families, with admissible reference
# points for sampling their constraint surfaces
SINGULAR_FIXTURES = [
    ({(1, 2): "-q1/p2"}, {(1, 2): "-p2/q1"}, [1.0, 0.5, 0.3, 2.0]),
    ({(1, 2): "q2/p1"}, {(1, 2): "p1/q2"}, [0.4, 1.2, 0.9, 0.6]),
    (
        {(1, 2): "(q2-q1)/(p1+p2)"},
        {(1, 2): "(p1+p2)/(q2-q1)"},
        [0.3, 1.4, 0.8, 1.1],
    ),
]


def p_draws(count=200):
    return RNG.uniform(0.8, 1.6, size=(count, 2))


class TestConstants:
    def test_constant_structure(self):
        s = constant_theta_f(1.0, 1.0)
        assert np.allclose(
            reduction_constants(s, [1.0, 0.0, 0.0, -1.0]), [0.0, 0.0], atol=0.0
        )

    def test_canonical_gives_coordinates(self):
        s = canonical(2)
        assert np.array_equal(reduction_constants(s, [0.7, -0.3, 1.0, 2.0]), [0.7, -0.3])

    def test_field_fixture(self):
        s = theta_f_field(2, theta={(1, 2): "-q1/p2"}, f={(1, 2): "-p2/q1"})
        c = reduction_constants(s, [1.0, 0.0, 0.0, 2.0])
        assert c[0] == 0.0

    def test_momentum_offsets_dual(self):
        s = constant_theta_f(1.0, 1.0)
        x = [1.0, 0.5, 0.2, -0.7]
        d = momentum_offsets(s, x)
        # p1 - f*q2, p2 + f*q1
        assert np.allclose(d, [0.2 - 0.5, -0.7 + 1.0], atol=0.0)


class TestCheckReduction:
    def test_degenerate_constant(self):
        report = check_reduction(constant_theta_f(0.5, 2.0), RNG.uniform(-1, 1, (50, 4)))
        assert report.reduced
        assert report.condition_residuals["inverse_pairing"] <= 1e-12
        assert report.theta_red == 0.5
        assert report.spread == 0.0

    def test_non_degenerate_constant(self):
        report = check_reduction(constant_theta_f(0.5, 0.25), RNG.uniform(-1, 1, (50, 4)))
        assert not report.reduced
        assert report.condition_residuals["inverse_pairing"] == pytest.approx(0.875)
        assert report.theta_red is None

    def test_empty_cloud(self):
        report = check_reduction(constant_theta_f(0.5, 2.0), np.empty((0, 4)))
        assert not report.reduced

    @pytest.mark.parametrize("theta,f,reference", SINGULAR_FIXTURES)
    def test_surface_constancy(self, theta, f, reference):
        s = theta_f_field(2, theta=theta, f=f)
        sample = surface_cloud(s, reference, p_draws())
        assert len(sample.points) >= 190
        report = check_reduction(s, sample)
        assert report.reduced
        assert report.spread <= 1e-9
        # the constant equals the bracket value at the reference point
        env = s.env_at(reference)
        assert report.theta_red == pytest.approx(
            evaluate(s.entry_expression(0, 1), env), abs=1e-12
        )

    @pytest.mark.parametrize("theta,f,reference", SINGULAR_FIXTURES)
    def test_exchange_relations_on_surface(self, theta, f, reference):
        s = theta_f_field(2, theta=theta, f=f)
        sample = surface_cloud(s, reference, p_draws(40))
        report = check_reduction(s, sample)
        assert report.dual_relation_residuals["dq_dp_plus_theta"] <= 1e-6
        assert report.dual_relation_residuals["dp_dq_minus_f"] <= 1e-6

    def test_different_surfaces_can_carry_different_constants(self):
        s = theta_f_field(2, theta={(1, 2): "q1/(1-p2)"}, f={(1, 2): "(1-p2)/q1"})
        draws = RNG.uniform(0.1, 0.4, size=(50, 2))
        r1 = check_reduction(s, surface_cloud(s, [1.0, 0.2, 0.1, 0.3], draws))
        r2 = check_reduction(s, surface_cloud(s, [2.0, 0.2, 0.1, 0.3], draws))
        assert r1.reduced and r2.reduced
        assert r1.spread <= 1e-9 and r2.spread <= 1e-9
        assert abs(r1.theta_red - r2.theta_red) > 0.1

    @pytest.mark.parametrize("probe", ["raises", "singular"])
    def test_exchange_relations_without_a_usable_probe_are_nan(self, probe):
        theta, f, reference = SINGULAR_FIXTURES[0]
        s = theta_f_field(2, theta=theta, f=f)
        sample = surface_cloud(s, reference, [[0.9, 1.1], [1.2, 1.4]])

        def solve_q(p):
            if probe == "raises":
                raise FixedPointError("surface solve did not converge", p)
            return sample.points[0, :2]  # the same q for every p: dq/dp = 0

        report = check_reduction(s, dataclasses.replace(sample, solve_q=solve_q))
        assert report.reduced
        residuals = report.dual_relation_residuals
        assert math.isnan(residuals["dq_dp_plus_theta"])
        assert math.isnan(residuals["dp_dq_minus_f"])

    def test_unsolved_surface_points_are_dropped_and_counted(self):
        # strongly coupled: the damped solve fails at the larger momenta
        s = theta_f_field(2, {(1, 2): "1.6*q1 - 2.5*q2"})
        reference = [1.0, 0.5, 0.3, 2.0]
        sample = surface_cloud(s, reference, [[0.1, 0.1], [1.0, 1.0], [2.0, 2.0]])
        assert sample.rejected == 2
        assert sample.points[:, 2:].tolist() == [[0.1, 0.1]]
        assert reduction_constants(s, sample.points[0]) == pytest.approx(
            reduction_constants(s, reference), abs=1e-10
        )


class TestTotalVariation:
    @pytest.mark.parametrize("theta,f,reference", SINGULAR_FIXTURES)
    def test_vanishes_on_surface(self, theta, f, reference):
        s = theta_f_field(2, theta=theta, f=f)
        sample = surface_cloud(s, reference, p_draws(50))
        worst = 0.0
        for x in sample.points:
            worst = max(worst, max(total_variation_residual(s, x).values()))
        assert worst <= 1e-9

    def test_constant_brackets_have_zero_variation(self):
        s = constant_theta_f(0.3, 1 / 0.3)
        out = total_variation_residual(s, RNG.uniform(-1, 1, 4))
        assert max(out.values()) == 0.0


class TestDegeneracyEquivalence:
    """Pairing condition at a point <=> velocity combinations vanish there."""

    def test_equivalence_on_singular_fixture(self):
        s = theta_f_field(2, theta={(1, 2): "-q1/p2"}, f={(1, 2): "-p2/q1"})
        hams = [HARMONIC, "q1*p1", "p1^2/2", "q1^2 + p2^2", "q1*q2/4 + p1*p2/3"]
        for _ in range(10):
            x = RNG.uniform(0.5, 1.5, 4)
            assert s.degeneracy(x).inverse_pairing_residual <= 1e-12
            for h in hams:
                combos = vanishing_combinations(s, h, x)
                assert max(abs(v) for v in combos.values()) <= 1e-12

    def test_failure_without_degeneracy(self):
        s = canonical(2)
        x = RNG.uniform(0.5, 1.5, 4)
        assert s.degeneracy(x).inverse_pairing_residual == pytest.approx(1.0)
        combos = vanishing_combinations(s, "p1", x)
        assert max(abs(v) for v in combos.values()) >= 0.9

    def test_flow_direction_finite_difference_oracle(self):
        # independent check: finite differences of the integrated flow
        s = theta_f_field(2, theta={(1, 2): "-q1/p2"}, f={(1, 2): "-p2/q1"})
        x0 = [1.0, 0.4, 0.3, 2.0]
        traj = integrate(FlowProblem(s, HARMONIC, x0, 1e-4, 2e-3))
        xdot = (traj.states[2] - traj.states[0]) / (2e-4)
        t = s.theta_block(traj.states[1])
        qdot, pdot = xdot[:2], xdot[2:]
        assert np.max(np.abs(qdot + t @ pdot)) <= 1e-8


class TestBuildReduced:
    def test_harmonic_elimination(self):
        s = constant_theta_f(1.0, 1.0)
        rs = build_reduced(s, HARMONIC, reference=[1.0, 0.0, 0.0, -1.0])
        for q1, q2 in [(0.5, 0.1), (1.0, 0.0), (-0.7, 1.3)]:
            got = evaluate(rs.hamiltonian, {"q1": q1, "q2": q2})
            assert got == pytest.approx(q1 * q1 + q2 * q2, abs=1e-14)

    def test_rotational_invariance_is_inherited(self):
        s = constant_theta_f(1.0, 1.0)
        rs = build_reduced(s, "(p1^2 + p2^2)/4 + (q1^2 + q2^2)/8",
                           reference=[1.0, 0.0, 0.0, -1.0])
        r = 0.9
        vals = [
            evaluate(rs.hamiltonian, {"q1": r * np.cos(a), "q2": r * np.sin(a)})
            for a in np.linspace(0.0, 2 * np.pi, 7)
        ]
        assert max(vals) - min(vals) <= 1e-14

    def test_shifted_constants(self):
        s = constant_theta_f(1.0, 1.0)
        rs = build_reduced(
            s, "(p1^2 + p2^2)/2", constants=[5.0, 0.0], reference=[1.0, 0.0, 0.0, -1.0]
        )
        for q1, q2 in [(0.0, 0.0), (2.0, 1.0)]:
            got = evaluate(rs.hamiltonian, {"q1": q1, "q2": q2})
            assert got == pytest.approx((q2**2 + (q1 - 5.0) ** 2) / 2.0, abs=1e-13)

    def test_reduced_equations_of_motion(self):
        from noncanon.reduction import reduced_velocity

        s = constant_theta_f(2.0, 0.5)
        rs = build_reduced(s, HARMONIC, reference=[1.0, 0.0, 0.0, -0.5])
        env = dict(rs.parameters)
        for q in ([0.4, -1.1], [1.0, 0.2]):
            v = reduced_velocity(rs, q)
            env["q1"], env["q2"] = q
            from noncanon.expressions import derivative

            dh1 = derivative(rs.hamiltonian, "q1", env)
            dh2 = derivative(rs.hamiltonian, "q2", env)
            assert v[0] == pytest.approx(rs.theta_red * dh2, abs=1e-14)
            assert v[1] == pytest.approx(-rs.theta_red * dh1, abs=1e-14)

    @pytest.mark.parametrize("q", [[0.4], [0.4, -1.1, 0.0]])
    def test_reduced_velocity_checks_the_point_length(self, q):
        from noncanon.reduction import reduced_velocity

        rs = build_reduced(constant_theta_f(2.0, 0.5), HARMONIC, reference=[1.0, 0.0, 0.0, -0.5])
        with pytest.raises(StructureError, match="phase point must have length 2"):
            reduced_velocity(rs, q)

    def test_rejects_non_degenerate_reference(self):
        s = constant_theta_f(0.5, 0.25)
        with pytest.raises(ReductionError, match="condition fails"):
            build_reduced(s, HARMONIC, reference=[1.0, 0.0, 0.0, 0.0])

    def test_rejects_singular_coordinate_bracket(self):
        s = canonical(2)
        with pytest.raises(ReductionError):
            build_reduced(s, HARMONIC, reference=[1.0, 0.0, 0.0, 0.0], tol=2.0)


class TestSpectrum:
    def test_oscillator_frequency(self):
        s = constant_theta_f(1.0, 1.0)
        rs = build_reduced(s, HARMONIC, reference=[1.0, 0.0, 0.0, -1.0])
        rep = spectrum_and_frequency(rs, 4)
        assert rep.omega_red == pytest.approx(2.0, abs=1e-12)

    def test_frequency_scaling_with_theta(self):
        # the oscillator frequency is theta + 1/theta for the harmonic source
        for theta in (0.5, 1.0, 2.0):
            s = constant_theta_f(theta, 1.0 / theta)
            rs = build_reduced(
                s, HARMONIC, reference=[1.0, 0.0, 0.0, -1.0 / theta]
            )
            rep = spectrum_and_frequency(rs, 2)
            assert rep.omega_red == pytest.approx(theta + 1.0 / theta, rel=1e-12)

    def test_levels_affine_and_spaced_by_frequency(self):
        s = constant_theta_f(1.0, 1.0)
        rs = build_reduced(s, HARMONIC, reference=[1.0, 0.0, 0.0, -1.0])
        rep = spectrum_and_frequency(rs, 6)
        for label, factor in (
            ("argument_theta_times_n_plus_half", rs.theta_red),
            ("argument_n_plus_half", 1.0),
        ):
            levels = rep.levels[label]
            gaps = np.diff(levels)
            assert np.max(np.abs(gaps - gaps[0])) <= 1e-12
            assert gaps[0] == pytest.approx(rep.omega_red * factor, rel=1e-12)

    def test_constant_profile(self):
        s = constant_theta_f(1.0, 1.0)
        rs = build_reduced(s, "3.5", reference=[1.0, 0.0, 0.0, -1.0])
        rep = spectrum_and_frequency(rs, 3)
        assert rep.omega_red == 0.0
        assert set(rep.levels["argument_n_plus_half"]) == {3.5}

    def test_rejects_anisotropic(self):
        s = constant_theta_f(1.0, 1.0)
        rs = build_reduced(s, "q1^2", reference=[1.0, 0.0, 0.0, -1.0])
        with pytest.raises(NotRotationallyInvariantError):
            spectrum_and_frequency(rs, 3)

    def test_zero_crossing_agreement(self):
        s = constant_theta_f(1.0, 1.0)
        rs = build_reduced(s, HARMONIC, reference=[1.0, 0.0, 0.0, -1.0])
        times, qs = integrate_reduced(rs, [1.0, 0.0], 1e-3, 10.0)
        measured = zero_crossing_frequency(times, qs[:, 0])
        assert measured == pytest.approx(2.0, abs=1e-3)


class TestImplicitTheta:
    def test_first_label(self):
        # phi(a, b) = a  =>  theta = q1/(1 - p2)
        assert implicit_theta("c1", [1.0, 0.3, 0.7, 0.5]) == pytest.approx(2.0, abs=1e-12)

    def test_constant_phi(self):
        assert implicit_theta("1.7", RNG.uniform(-1, 1, 4)) == 1.7

    def test_second_label(self):
        # phi(a, b) = b  =>  theta = q2/(1 + p1)
        assert implicit_theta("c2", [0.2, 1.0, 1.0, 0.8]) == pytest.approx(0.5, abs=1e-12)

    def test_solution_satisfies_halved_constraints(self):
        for phi in ("c1", "c2", "(c1 + 2*c2)/3", "c1*c2/2"):
            r1, r2 = implicit_theta_constraint_residuals(
                phi, [0.9, 0.4, 0.2, 0.3]
            )
            assert r1 <= 1e-8 and r2 <= 1e-8

    def test_divergence_reports_last_iterate(self):
        # phi = 3*c1 at p2 = 1 has no attracting fixed point
        with pytest.raises(FixedPointError):
            implicit_theta("3*c1 + 10", [1.0, 0.0, 0.0, 1.0])


class TestLeafCloud:
    def test_general_planar_constancy_three_nonconstant(self):
        # three nonconstant brackets among theta, f, g12; built by pushing
        # the singular field through q1 -> q1 + a p1, which keeps Jacobi and
        # the null determinant
        a = 0.5
        s = general_planar(
            "-(q1 - a*p1)/p2",
            "-p2/(q1 - a*p1)",
            "1",
            "-a*p2/(q1 - a*p1)",
            "0",
            "1",
            parameters={"a": a},
        )
        x0 = np.array([1.3, 0.5, 0.4, 2.0])
        rep = s.jacobi_report(x0)
        assert rep.generic_max <= 1e-12
        assert abs(s.degeneracy(x0).planar_condition) <= 1e-12
        assert set(s.nonconstant_entry_names()) == {"theta_12", "f_12", "g_12"}
        cloud = leaf_cloud(s, x0, ["q1*p2/2 + q2^2/3", "p1*p2/4 + q1*q2/5"])
        report = check_reduction(s, cloud)
        assert report.reduced
        assert report.constancy_implied
        assert max(report.entry_spreads.values()) <= 1e-9

    def test_four_nonconstant_flags_not_implied(self):
        # theta, f, g11, g22 nonconstant with g12 = g21 = 0; the null
        # determinant is exact but constancy is not claimed, only the
        # product ratio is verified
        lam, mu = 0.3, 0.2
        theta = "-q1/(p2 - mu*q1)"
        s = general_planar(
            theta,
            f"-(p2 - mu*q1)/q1 - mu + lam - lam*mu*({theta})",
            f"1 + lam*({theta})",
            "0",
            "0",
            f"1 - mu*({theta})",
            parameters={"lam": lam, "mu": mu},
        )
        x0 = np.array([1.1, 0.4, 0.3, 2.0])
        assert s.jacobi_report(x0).generic_max <= 1e-12
        assert abs(s.degeneracy(x0).planar_condition) <= 1e-12
        assert len(s.nonconstant_entry_names()) == 4
        cloud = leaf_cloud(s, x0, ["q1*p2/2 + q2^2/3"])
        report = check_reduction(s, cloud)
        assert report.constancy_implied is False
        assert any("not implied" in note for note in report.notes)
        assert report.condition_residuals["product_ratio_minus_one"] <= 1e-9
        assert report.spread is None


class TestEpsilonSweep:
    def test_linear_scaling(self):
        sweep = epsilon_sweep(
            1.0,
            HARMONIC,
            [1.0, 0.3, -0.2, -0.8],
            [1e-1, 1e-2, 1e-3, 1e-4],
        )
        assert abs(sweep.fitted_slope - 1.0) <= 0.2
        drifts = [row["max_drift"] for row in sweep.rows]
        assert all(a > b for a, b in zip(drifts, drifts[1:]))

    def test_near_degenerate_frequency_matches_reduced(self):
        s = constant_theta_f(1.0, 1.0 - 1e-4)
        traj = integrate(FlowProblem(s, HARMONIC, [1.0, 0.0, 0.0, -1.0], 1e-3, 10.0))
        measured = zero_crossing_frequency(traj.times, traj.states[:, 0])
        rs = build_reduced(
            constant_theta_f(1.0, 1.0), HARMONIC, reference=[1.0, 0.0, 0.0, -1.0]
        )
        rep = spectrum_and_frequency(rs, 2)
        assert abs(measured - rep.omega_red) <= 5e-3
