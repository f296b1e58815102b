"""One stepping loop for every flow.

``integrate``, the epsilon sweep, the leaf cloud and the reduced flow all
step in ``dynamics._flow_states``: each builds its step once through
``dynamics._flow_step``, is gated by ``FlowProblem``, and stops before its
first non-finite state.  A sweep whose flow stops there fails, since its
fitted slope compares drifts over equal horizons."""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from noncanon import dynamics
from noncanon.brackets import constant_theta_f
from noncanon.cli import EXIT_RUNTIME, main
from noncanon.dynamics import FlowProblem, integrate
from noncanon.reduction import build_reduced, epsilon_sweep, integrate_reduced, leaf_cloud

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HARMONIC = "(p1^2 + p2^2 + q1^2 + q2^2)/2"
# leaves the finite range after 244 steps of 300 at either epsilon
DIVERGING = "q1*q1 + p2 + p1 + q2^3"


@pytest.fixture
def built_steps():
    methods = []
    flow_step = dynamics._flow_step

    def counting(structure, hamiltonian, method):
        methods.append(method)
        return flow_step(structure, hamiltonian, method)

    with mock.patch.object(dynamics, "_flow_step", counting):
        yield methods


def test_integrate_builds_one_step(built_steps):
    structure = constant_theta_f(1.0, 0.9)
    integrate(FlowProblem(structure, HARMONIC, [1.0, 0.3, -0.2, -0.8], 0.01, 1.0, "midpoint"))
    assert built_steps == ["midpoint"]


def test_sweep_builds_one_step_per_epsilon(built_steps):
    epsilon_sweep(1.0, HARMONIC, [1.0, 0.3, -0.2, -0.8], [0.1, 0.01, 0.001], dt=0.01, t_end=1.0)
    assert built_steps == ["rk4"] * 3


def test_leaf_cloud_builds_one_step_per_hamiltonian(built_steps):
    leaf_cloud(constant_theta_f(1.0, 1.0), [1.0, 0.0, 0.0, -1.0], ["q1*p2", "p1*p2 + q2^2"])
    assert built_steps == ["rk4"] * 2


def test_reduced_flow_builds_one_step(built_steps):
    system = build_reduced(constant_theta_f(1.0, 1.0), HARMONIC, reference=[1.0, 0.0, 0.0, -1.0])
    times, qs = integrate_reduced(system, [1.0, 0.0], 0.01, 1.0)
    assert built_steps == ["rk4"]
    assert len(times) == len(qs) == 101


def test_reduced_orbit_stops_before_its_first_non_finite_state():
    system = build_reduced(constant_theta_f(1.0, 1.0), HARMONIC, reference=[1.0, 0.0, 0.0, -1.0])
    with np.errstate(all="ignore"):
        times, qs = integrate_reduced(system, [1e308, 1e308], 0.1, 1.0)
    assert times.tolist() == [0.0]
    assert qs.tolist() == [[1e308, 1e308]]


@pytest.mark.parametrize(
    "dt, t_end, field",
    [
        (math.nan, 1.0, "dt"),
        (0.1, math.nan, "t_end"),
        (0.1, math.inf, "t_end"),
        (math.inf, 1.0, "dt"),
    ],
)
def test_flow_problem_rejects_non_finite_step_settings(dt, t_end, field):
    structure = constant_theta_f(1.0, 1.0)
    with pytest.raises(ValueError, match=f"^{field} must"):
        FlowProblem(structure, HARMONIC, [1.0, 0.0, 0.0, -1.0], dt, t_end)


@pytest.mark.parametrize(
    "method, message",
    [
        ("rk4", "sweep flow at epsilon 0.3 left the finite range after 244 steps"),
        ("midpoint", "implicit midpoint iteration did not converge"),
    ],
)
def test_diverging_sweep_exits_3(tmp_path, capsys, method, message):
    doc = json.loads((FIXTURES / "sweep_epsilon.json").read_text("utf-8"))
    doc["hamiltonian"] = DIVERGING
    doc["initial_state"] = [0.0] * 4
    doc["integrator"] = {"method": method, "dt": 0.01, "t_end": 3.0}
    doc["sweep"]["epsilons"] = [0.3, 0.1]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == f"runtime error: {message}\n"
