"""The reduced flow on the one flow engine.

A reduced system is a Poisson structure with constant entries on q1..qn, so
``integrate_reduced`` must give, bit for bit, the states of RK4 over the
tree walker (``_rk4_step`` iterated over ``_Velocity``) from ``q0``, with
the step adjusted and the flow stopped before its first non-finite state as
for every flow, or raise the tree walker's error with its message; and its
states must not depend on whether the generated step ran."""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noncanon import dynamics
from noncanon.brackets import constant_theta_f, theta_f_field
from noncanon.dynamics import _rk4_step, _Velocity
from noncanon.expressions import EVALUATION_ERRORS, DomainError
from noncanon.reduction import build_reduced, integrate_reduced

_PLANAR_HAMILTONIANS = [
    "(p1^2 + p2^2 + q1^2 + q2^2)/2",
    "exp(q1/3) + q2^2/2 + p1^4/4 - alpha*p2",
    "log(q1^2 + 1) + p1*p2 - q2/(1 + p2^2)",
    "log(q1) + (p1^2 + p2^2)/2 + 1/q2",
    "q1^2.5 + p2^3 + exp(p1)/alpha",
]

# a constant theta block with one zero entry, and the f block -theta^{-1}
# that makes the structure degenerate
_THETA_4 = np.array(
    [
        [0.0, 0.7, -0.4, 0.0],
        [-0.7, 0.0, 1.1, 0.5],
        [0.4, -1.1, 0.0, -0.9],
        [0.0, -0.5, 0.9, 0.0],
    ]
)
_F_4 = -np.linalg.inv(_THETA_4)
_FIELD_4 = theta_f_field(
    4,
    {(i + 1, j + 1): repr(float(_THETA_4[i, j])) for i in range(4) for j in range(i + 1, 4)},
    {(i + 1, j + 1): repr(float(_F_4[i, j])) for i in range(4) for j in range(i + 1, 4)},
    {"alpha": 0.5},
)
_FIELD_4_HAMILTONIANS = [
    "(p1^2 + p2^2 + p3^2 + p4^2 + q1^2 + q2^2 + q3^2 + q4^2)/2",
    "exp(q1/3) + log(q2^2 + 1) + p3*p4 - q4/(1 + p1^2)",
    "q1^3/3 + p2^4/4 - alpha*q3*p4 + p1^2/2",
]

_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-3, -1e-3, 1e-170, 1e80, -1e80]
_coordinates = st.one_of(
    st.sampled_from(_SPECIAL), st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
)
_thetas = st.one_of(
    st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=-5.0, max_value=-0.2)
)


def _same(a: float, b: float) -> bool:
    # bit equality, signed zeros included; NaN payloads are not compared
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


def _tree_flow(system, q0, dt, t_end):
    """The adjusted step and the states of RK4 over the tree walker up to
    the first non-finite one, or the error it raises."""
    velocity = _Velocity(system, system.hamiltonian)
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps
    q = np.array(q0, dtype=float)
    states = [q]
    with np.errstate(all="ignore"):
        try:
            for _ in range(n_steps):
                q = _rk4_step(velocity, q, dt)
                if not np.all(np.isfinite(q)):
                    break
                states.append(q)
        except EVALUATION_ERRORS as err:
            return err
    return dt, np.array(states)


def assert_matches_tree_flow(system, q0, dt, t_end):
    want = _tree_flow(system, q0, dt, t_end)
    with np.errstate(all="ignore"):
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as raised:
                integrate_reduced(system, q0, dt, t_end)
            assert str(raised.value) == str(want)
            return
        times, qs = integrate_reduced(system, q0, dt, t_end)
    dt, want = want
    assert times.tobytes() == (dt * np.arange(len(want))).tobytes()
    assert qs.shape == want.shape
    assert all(_same(a, b) for a, b in zip(qs.ravel().tolist(), want.ravel().tolist()))


@st.composite
def planar_systems(draw):
    theta = draw(_thetas)
    structure = constant_theta_f(theta, 1.0 / theta, {"alpha": 0.5})
    reference = draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    h = draw(st.sampled_from(_PLANAR_HAMILTONIANS))
    return build_reduced(structure, h, reference=reference)


@st.composite
def field_systems(draw):
    reference = draw(st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8))
    h = draw(st.sampled_from(_FIELD_4_HAMILTONIANS))
    return build_reduced(_FIELD_4, h, reference=reference)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.one_of(planar_systems(), field_systems()),
    st.data(),
    st.sampled_from([1e-3, 0.1, 1.0]),
    st.integers(2, 12),
)
def test_reduced_flow_matches_tree_walker(system, data, dt, steps):
    q0 = data.draw(st.lists(_coordinates, min_size=system.n, max_size=system.n))
    assert_matches_tree_flow(system, q0, dt, steps * dt)


@pytest.mark.parametrize("h", _FIELD_4_HAMILTONIANS)
def test_four_dimensional_reduced_flow_matches_tree_walker(h):
    # numpy's theta @ grad does not sum left to right, so before the reduced
    # flow ran on the one engine these states differed in their low bits
    system = build_reduced(_FIELD_4, h, reference=[0.3, -0.2, 0.5, 0.1, 0.4, 0.2, -0.3, 0.6])
    assert system.n == 4 and (0, 3) in system.entries
    assert_matches_tree_flow(system, [0.4, -0.7, 0.9, 0.25], 1e-2, 2.0)


def test_domain_error_is_the_tree_walkers():
    structure = constant_theta_f(1.0, 1.0)
    system = build_reduced(structure, "log(q1) + (p1^2 + p2^2)/2", reference=[1.0, 0.0, 0.0, -1.0])
    with pytest.raises(DomainError, match=r"log of non-positive value"):
        integrate_reduced(system, [1e-3, 0.5], 0.1, 1.0)
    assert_matches_tree_flow(system, [1e-3, 0.5], 0.1, 1.0)


def test_states_do_not_depend_on_the_generated_step():
    structure = constant_theta_f(0.8, 1.25, {"alpha": 0.5})
    system = build_reduced(structure, _PLANAR_HAMILTONIANS[1], reference=[1.0, 0.0, 0.0, -1.0])
    calls = []

    def disabled_step(structure, hamiltonian, method):
        def disabled(*args):
            calls.append(method)
            raise DomainError("generated code disabled", "")

        return disabled

    times, qs = integrate_reduced(system, [0.6, -0.4], 1e-3, 0.2)
    with mock.patch.object(dynamics, "_generate_step", disabled_step):
        tree_times, tree_qs = integrate_reduced(system, [0.6, -0.4], 1e-3, 0.2)
    assert calls == ["rk4"] * 200
    assert tree_times.tobytes() == times.tobytes()
    assert tree_qs.tobytes() == qs.tobytes()


def test_reduced_flow_needs_more_than_one_step():
    # the gate of every flow: t_end must exceed dt
    structure = constant_theta_f(1.0, 1.0)
    system = build_reduced(structure, _PLANAR_HAMILTONIANS[0], reference=[1.0, 0.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="t_end must exceed dt"):
        integrate_reduced(system, [1.0, 0.0], 0.1, 0.1)
