"""The surface solve and the implicit bracket solve share one damped
fixed-point loop.  Each must give the result of its former loop bit for
bit (kept below as the reference), or fail with the same message and the
same last iterate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon.brackets import StructureError, theta_f_field
from noncanon.expressions import DomainError, evaluate, parse
from noncanon.reduction import FixedPointError, _solve_surface_q, implicit_theta


def reference_surface_q(structure, constants, theta_ref, p, tol, max_iter):
    seed = constants - theta_ref @ p
    q = seed
    for damping in (1.0, 0.5):
        q = seed
        delta0 = None
        for _ in range(max_iter):
            x = np.concatenate([q, p])
            target = constants - structure.theta_block(x) @ p
            delta = np.max(np.abs(target - q))
            if delta <= tol:
                return target
            if delta0 is None:
                delta0 = delta
            if not np.isfinite(delta) or delta > 10.0 * delta0 + 1.0:
                break
            q = q + damping * (target - q)
    raise FixedPointError("surface solve did not converge", q)


def reference_implicit_theta(phi, x, theta0=0.0, tol=1e-12, max_iter=200):
    phi = parse(phi)
    q1, q2, p1, p2 = (float(v) for v in x)
    env = {}

    def step(theta):
        env["c1"] = q1 + theta * p2
        env["c2"] = q2 - theta * p1
        return evaluate(phi, env)

    theta = theta0
    for damping in (1.0, 0.5):
        theta = theta0
        delta0 = None
        for _ in range(max_iter):
            target = step(theta)
            delta = abs(target - theta)
            if delta <= tol:
                return target
            if delta0 is None:
                delta0 = delta
            if not np.isfinite(delta) or delta > 10.0 * delta0 + 1.0:
                break
            theta = theta + damping * (target - theta)
    raise FixedPointError("implicit bracket solve did not converge", theta)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (FixedPointError, DomainError, StructureError) as err:
        last = getattr(err, "last_iterate", None)
        return type(err).__name__, str(err), repr(last), type(last)
    return "value", repr(np.asarray(out).tolist()), type(out)


SURFACES = [
    theta_f_field(2, {(1, 2): "-q1/p2"}, {(1, 2): "-p2/q1"}),
    theta_f_field(2, {(1, 2): "0.3*q2 + 0.2*q1*q1"}),
    # strongly coupled: the plain iteration diverges, some damped ones too
    theta_f_field(2, {(1, 2): "1.6*q1 - 2.5*q2"}),
    theta_f_field(2, {(1, 2): "log(q1)"}),
]

finite = st.floats(-2.0, 2.0, allow_nan=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow near p2 = 0
@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(SURFACES) - 1), ref=st.tuples(finite, finite, finite, finite),
       p=st.tuples(finite, finite), max_iter=st.sampled_from([5, 200]))
def test_surface_solve_matches_the_former_loop(index, ref, p, max_iter):
    structure = SURFACES[index]
    ref = np.array(ref)
    p = np.array(p)
    try:
        theta_ref = structure.theta_block(ref)
    except DomainError:
        return
    constants = ref[:2] + theta_ref @ ref[2:]
    args = (structure, constants, theta_ref, p, 1e-12, max_iter)
    assert _outcome(_solve_surface_q, *args) == _outcome(reference_surface_q, *args)


PHIS = ["c1", "c2", "c1*c2/2", "1.7", "3*c1 + 10", "sqrt(c1)", "0.4*sin(c1) + 0.1*c2", "c1/c2"]


@settings(max_examples=80, deadline=None)
@given(phi=st.sampled_from(PHIS), x=st.tuples(finite, finite, finite, finite),
       theta0=st.sampled_from([0.0, 0.5, -1.0]))
def test_implicit_theta_matches_the_former_loop(phi, x, theta0):
    assert _outcome(implicit_theta, phi, list(x), None, theta0) == _outcome(
        reference_implicit_theta, phi, x, theta0
    )


def test_implicit_theta_failure_keeps_message_and_last_iterate():
    with pytest.raises(FixedPointError) as info:
        implicit_theta("3*c1 + 10", [1.0, 0.0, 0.0, 1.0])
    message = str(info.value)
    assert message.startswith("implicit bracket solve did not converge; last iterate ")
    assert isinstance(info.value.last_iterate, float)
    assert message.endswith(repr(info.value.last_iterate))
