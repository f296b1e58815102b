"""Generated flow code against the tree walker it replaces.

Each flow runs one generated stepping loop (RK4, or the implicit midpoint
iterating its velocity) and one generated monitor pass per block of stored
states, which runs the monitor row's lines.  Wherever the generated code
succeeds it must give the tree walker's numbers bit for bit (``_rk4_step``
and the array-based implicit midpoint over ``_Velocity``,
``_reference_row``); wherever it raises, the step or row is redone by the
tree walker, so results and errors, with their messages, are the tree
walker's.  Fixture artifacts must not depend on which of the two ran."""

import functools
import json
import math
import struct
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noncanon import dynamics, expressions
from noncanon.brackets import (
    canonical,
    constant_theta_f,
    custom,
    general_planar,
    theta_f_field,
)
from noncanon.cli import load_config, run
from noncanon.dynamics import (
    FlowProblem,
    IntegrationError,
    _flow_step,
    _generate_step,
    _midpoint_step,
    _monitor_pass,
    _rk4_step,
    _Velocity,
    default_monitors,
    integrate,
)
from noncanon.expressions import (
    EVALUATION_ERRORS,
    DomainError,
    _generate_row,
    _reference_row,
    parse,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_PLANAR_HAMILTONIANS = [
    "(p1^2 + p2^2 + q1^2 + q2^2)/2",
    "exp(q1/3) + sin(p2) + q2^2/2 + p1^4/4",
    "log(q1^2 + 1) + p1*p2 - q2/(1 + p2^2)",
    "log(q1) + (p1^2 + p2^2)/2 + 1/q2",
    "q1^2.5 + p2^3 - alpha*p1",
]

# name: (structure, Hamiltonians); every structure binds ``alpha``
FLOWS = {
    "canonical-1": (
        canonical(1, {"alpha": 0.5}),
        ["p1^2/2 + q1^4/4", "log(q1) + p1^2/2", "exp(q1) + sin(p1)", "p1^2/2 + alpha/q1"],
    ),
    "canonical-2": (canonical(2, {"alpha": 0.5}), _PLANAR_HAMILTONIANS),
    "constant-theta-f": (constant_theta_f(0.7, 1.3, {"alpha": 0.5}), _PLANAR_HAMILTONIANS),
    "theta-f-field": (
        theta_f_field(2, {(1, 2): "-q1/p2"}, {(1, 2): "-p2/q1"}, {"alpha": 0.5}),
        _PLANAR_HAMILTONIANS,
    ),
    "theta-f-field-3": (
        theta_f_field(
            3, {(1, 2): "0.8*q3", (1, 3): "log(q1)"}, {(2, 3): "0.4*sin(p1)"}, {"alpha": 0.5}
        ),
        [
            "(p1^2 + p2^2 + p3^2 + q1^2 + q2^2 + q3^2)/2",
            "exp(q3/2) + sin(p1)*p3 + q2^2/(1 + q1^2) + p2^2",
            "log(q1) + p3^2/2 - q2^3/3 + alpha/p1",
        ],
    ),
    "general-planar": (
        general_planar("1 + q1^2", "log(2 + p1^2)", "1", "q2/3", "0", "exp(-p2^2)", {"alpha": 0.5}),
        _PLANAR_HAMILTONIANS,
    ),
    "custom-1": (
        custom(1, {(1, 2): "-2*alpha"}, {"alpha": 0.5}),
        ["p1^2/2 + q1^2/2", "log(q1) + exp(p1)/alpha"],
    ),
    "custom": (
        custom(2, {(1, 2): "alpha*q2", (1, 3): "1", (2, 4): "exp(p1)", (3, 4): "q1/p2"},
               {"alpha": 0.5}),
        _PLANAR_HAMILTONIANS,
    ),
}

_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-3, -1e-3, 1e-170, -1e-170, 1e80, -1e80, 1e150, 1e200]
_coordinates = st.one_of(
    st.sampled_from(_SPECIAL), st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
)
_steps = st.sampled_from([1e-3, 0.1, 1.0, 2.0, 50.0])


@st.composite
def flows(draw):
    name = draw(st.sampled_from(sorted(FLOWS)))
    structure, hamiltonians = FLOWS[name]
    h = parse(draw(st.sampled_from(hamiltonians)))
    x = draw(st.lists(_coordinates, min_size=structure.dim, max_size=structure.dim))
    return structure, h, x


def _same(a: float, b: float) -> bool:
    # bit equality, signed zeros included; NaN payloads are not compared
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


def _outcome(fn, *args):
    """The floats ``fn`` returns, or the error it raises."""
    with np.errstate(all="ignore"):
        try:
            return [float(v) for v in fn(*args)]
        except (*EVALUATION_ERRORS, IntegrationError) as err:
            return err


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert not isinstance(got, Exception), (got, want)
    assert len(got) == len(want)
    assert all(_same(a, b) for a, b in zip(got, want)), (got, want)


def _loop_step(loop, x, dt):
    """The state one step of a generated loop stores after ``x``."""
    states = np.zeros((2, len(x)))
    loop(list(x), dt, 0, 1, memoryview(states.reshape(-1)))
    return states[1].tolist()


def _advance_step(advance, x, dt):
    """The state one step of :func:`_flow_step`'s stepper stores after ``x``."""
    states = np.array([x, x], dtype=float)
    advance(states, dt)
    return states[1].tolist()


def _array_midpoint_step(v, x, dt):
    # the implicit midpoint step on whole arrays, as it was written before
    # the step ran element by element
    y = x + dt * v(x)
    scale = np.max(np.abs(x)) + 1.0
    for _ in range(100):
        y_next = x + dt * v(0.5 * (x + y))
        if np.max(np.abs(y_next - y)) <= 1e-14 * scale:
            return y_next
        y = y_next
    raise IntegrationError("implicit midpoint iteration did not converge")


# --- properties: one step, one velocity, one monitor row ----------------------


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flows(), _steps)
def test_rk4_step_matches_tree_walker(flow, dt):
    structure, h, x = flow
    want = _outcome(_rk4_step, _Velocity(structure, h), np.array(x), dt)
    assert_same_outcome(_outcome(_advance_step, _flow_step(structure, h, "rk4"), x, dt), want)
    generated = _outcome(_loop_step, _generate_step(structure, h, "rk4"), x, dt)
    if not isinstance(generated, Exception):
        assert_same_outcome(generated, want)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flows(), _steps)
def test_midpoint_step_matches_array_midpoint(flow, dt):
    structure, h, x = flow
    reference = _Velocity(structure, h)
    want = _outcome(_array_midpoint_step, reference, np.array(x), dt)
    assert_same_outcome(_outcome(_midpoint_step, reference, np.array(x), dt), want)
    assert_same_outcome(_outcome(_advance_step, _flow_step(structure, h, "midpoint"), x, dt), want)
    generated = _outcome(_loop_step, _generate_step(structure, h, "midpoint"), x, dt)
    if not isinstance(generated, Exception):
        assert_same_outcome(generated, want)


def _row_exprs(structure, h):
    return list({"H": h, **default_monitors(structure), "extra": parse("q1/p1")}.values())


def _reference_outcome(structure, exprs, x):
    try:
        return _reference_row(structure, exprs, x)
    except EVALUATION_ERRORS as err:
        return err


def _named(exprs):
    return dict(zip(map(str, range(len(exprs))), exprs))


@settings(max_examples=300, deadline=None)
@given(flows())
def test_generated_row_matches_reference_row(flow):
    structure, h, x = flow
    exprs = _row_exprs(structure, h)
    want = _reference_outcome(structure, exprs, x)
    got = _outcome(_generate_row(structure, exprs), x)
    if not isinstance(got, Exception):
        assert_same_outcome(got, want)
        return
    # the row redoes itself on the tree walker, so the error that reaches
    # the caller of the pass is the tree walker's
    assert isinstance(want, Exception), (got, want)
    with np.errstate(all="ignore"), pytest.raises(type(want)) as raised:
        _monitor_pass(structure, _named(exprs), np.array([x]))
    assert str(raised.value) == str(want)


def _reference_rows(structure, exprs, states):
    """The tree walker's row at each state in order, up to the first error,
    which ends the list."""
    rows = []
    for x in states:
        try:
            rows.append(_reference_row(structure, exprs, x))
        except EVALUATION_ERRORS as err:
            return [*rows, err]
    return rows


def _block_rows(structure, exprs, states):
    """The rows :func:`dynamics._row_blocks` gives at each state, read
    before each next block replaces them, and the error ending them."""
    rows = []
    try:
        for _, block in dynamics._row_blocks(structure, exprs, np.array(states)):
            rows += block.tolist()
    except EVALUATION_ERRORS as err:
        return [*rows, err]
    return rows


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flows(), st.integers(1, 600), st.integers(0, 2**32 - 1), st.integers(0, 599))
def test_row_blocks_equal_the_reference_rows_state_by_state(flow, count, seed, at):
    # the drawn state sits among random ones, in blocks of up to 256; at
    # q1 = 2, q1^1100 overflows in generated code, where the tree walker
    # gives inf, and q1/p1 raises in both at p1 = 0
    structure, h, x = flow
    exprs = [*_row_exprs(structure, h), parse("q1^1100")]
    states = np.random.default_rng(seed).uniform(-2.0, 2.0, (count, structure.dim)).tolist()
    states[at % count] = x
    states[-1][0] = 2.0
    want = _reference_rows(structure, exprs, states)
    got = _block_rows(structure, exprs, states)
    if want and isinstance(want[-1], Exception):
        # the blocks before the first error are given out whole
        complete = (len(want) - 1) // dynamics._DET_BLOCK * dynamics._DET_BLOCK
        want = [*want[:complete], want[-1]]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


def test_a_row_of_one_value_takes_the_redone_value():
    # one expression is a pass result of one atom; at q1 = 2, q1^1100
    # overflows in generated code and the tree walker's row is [inf]
    structure, exprs = canonical(1), [parse("q1^1100")]
    states = [[1.0, 0.5], [2.0, 0.5], [-2.0, 0.0]]
    got = _block_rows(structure, exprs, states)
    assert got == _reference_rows(structure, exprs, states) == [[1.0], [math.inf], [math.inf]]


def test_raising_row_is_redone_once_by_the_tree_walker():
    # ``q1/p1`` divides by zero at p1 == 0, in the generated row and in the
    # tree walker alike: the state goes to ``_reference_row`` once
    structure, h = canonical(1), parse("p1^2/2 + q1^2/2")
    exprs = _row_exprs(structure, h)
    states = np.array([[0.5, 0.25], [0.5, 0.0], [0.25, 0.0]])
    with (
        mock.patch.object(expressions, "_reference_row", wraps=_reference_row) as redo,
        pytest.raises(DomainError, match="division by zero"),
    ):
        _monitor_pass(structure, _named(exprs), states)
    assert redo.call_count == 1


def test_a_redone_row_overflows_silently():
    # ``1/p1`` divides by zero, so the state is redone by the tree walker,
    # whose first entry overflows on the state's Python floats, silently, as
    # it would in generated code, before the division raises
    structure = canonical(1)
    exprs = [parse("q1*q1*1e300"), parse("1/p1")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="division by zero"):
            _monitor_pass(structure, _named(exprs), np.array([[1e10, 0.0]]))


def _reference_pass(structure, exprs, states):
    rows = [_reference_row(structure, exprs, x) for x in states]
    monitors = np.array(rows).reshape(len(states), len(exprs)).T
    dets = [abs(np.linalg.det(structure.theta_matrix(x))) for x in states]
    return monitors, float(np.fmin.reduce(dets, initial=np.inf))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(FLOWS)), st.integers(1, 600), st.integers(0, 2**32 - 1))
def test_monitor_pass_matches_reference_rows(name, count, seed):
    # a few hundred states span more than one stacked block of det Theta
    structure, hamiltonians = FLOWS[name]
    h = parse(hamiltonians[0])
    states = np.random.default_rng(seed).uniform(-2.0, 2.0, (count, structure.dim))
    exprs = _row_exprs(structure, h)
    monitor_exprs = _named(exprs)
    try:
        want = _reference_pass(structure, exprs, states)
    except EVALUATION_ERRORS as err:
        with pytest.raises(type(err)) as raised:
            _monitor_pass(structure, monitor_exprs, states)
        assert str(raised.value) == str(err)
        return
    series, min_abs_det = _monitor_pass(structure, monitor_exprs, states)
    got = np.array(list(series.values()))
    assert got.tobytes() == want[0].tobytes()
    assert _same(min_abs_det, want[1])


# --- designed points -------------------------------------------------------------

_LOG_FLOW = (canonical(1), parse("log(q1) + p1^2/2"))


@pytest.mark.parametrize("x, dt, stage", [([1.0, -4.0], 1.0, 2), ([1.0, 0.0], 2.0, 3)])
def test_domain_error_inside_the_step(x, dt, stage):
    structure, h = _LOG_FLOW
    reference = _Velocity(structure, h)
    # the states of RK4 stages 2 and 3; stage 1 is in the domain
    second = np.array(x) + 0.5 * dt * reference(np.array(x))
    if stage == 2:
        assert second[0] <= 0.0
    else:
        third = np.array(x) + 0.5 * dt * reference(second)
        assert second[0] > 0.0 >= third[0]
    with pytest.raises(ValueError):
        _loop_step(_generate_step(structure, h, "rk4"), x, dt)
    with pytest.raises(DomainError, match=r"log of non-positive value in 'log\(q1\)'"):
        _advance_step(_flow_step(structure, h, "rk4"), x, dt)
    assert_same_outcome(
        _outcome(_advance_step, _flow_step(structure, h, "rk4"), x, dt),
        _outcome(_rk4_step, reference, np.array(x), dt),
    )


def test_overflow_inside_the_step_runs_generated_code():
    structure, h = canonical(1), parse("q1^4/4 + p1^2/2")
    x, dt = [1e80, 0.0], 0.1
    reference = _Velocity(structure, h)
    second = np.array(x) + 0.5 * dt * reference(np.array(x))
    third = np.array(x) + 0.5 * dt * reference(second)
    assert math.isfinite(third[0]) and abs(third[0]) > 1e103  # its cube overflows
    # the overflow leaves the generated loop, and the step is redone on the
    # tree walker
    with pytest.raises(OverflowError):
        _loop_step(_generate_step(structure, h, "rk4"), x, dt)
    got = _advance_step(_flow_step(structure, h, "rk4"), x, dt)
    assert not all(map(math.isfinite, got))
    assert_same_outcome([float(v) for v in got], _outcome(_rk4_step, reference, np.array(x), dt))


def test_unused_value_that_raises_still_raises():
    # the Hamiltonian's value is not part of the velocity, but the tree
    # walker computes it and reports its division by zero
    structure, h = canonical(1, {"alpha": 0.5}), parse("p1^2/2 + 1/(alpha - 0.5)")
    x, dt = [0.3, 0.2], 1e-3
    with pytest.raises(ZeroDivisionError):
        _loop_step(_generate_step(structure, h, "rk4"), x, dt)
    with pytest.raises(DomainError, match="division by zero"):
        _advance_step(_flow_step(structure, h, "rk4"), x, dt)
    with pytest.raises(ZeroDivisionError):
        _loop_step(_generate_step(structure, h, "midpoint"), x, dt)


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("name", sorted(FLOWS))
def test_signed_zeros(name, method):
    # a zero velocity component must come out as +0.0, as ``0.0 + v*g`` gives
    structure, hamiltonians = FLOWS[name]
    h = parse(hamiltonians[0])
    x = [-0.0] * structure.dim
    reference = functools.partial(_rk4_step if method == "rk4" else _midpoint_step,
                                  _Velocity(structure, h))
    want = _outcome(reference, np.array(x), 1e-3)
    assert_same_outcome(_outcome(_advance_step, _flow_step(structure, h, method), x, 1e-3), want)


def test_step_redone_by_tree_walker_where_only_python_floats_raise():
    # d/dp1 of q1/p1 divides by p1*p1, which underflows to zero: Python floats
    # raise, the tree walker's numpy scalars give an infinity
    structure, h = canonical(1), parse("q1/p1")
    x, dt = [1.0, 1e-170], 1e-3
    with pytest.raises(ZeroDivisionError):
        _loop_step(_generate_step(structure, h, "rk4"), x, dt)
    got = _outcome(_advance_step, _flow_step(structure, h, "rk4"), x, dt)
    assert not isinstance(got, Exception) and not all(map(math.isfinite, got))
    assert_same_outcome(got, _outcome(_rk4_step, _Velocity(structure, h), np.array(x), dt))


# --- whole flows and fixtures with the generated flow code switched off ------------


class _Disabled:
    """Stand-ins for the step and row generators in ``dynamics`` whose code
    always raises, so every step and row takes the tree walker."""

    def __init__(self):
        self.calls = []

    def generate_step(self, structure, hamiltonian, method):
        def disabled(*args):
            self.calls.append(method)
            raise DomainError("generated code disabled", "")

        return disabled

    def row_pass(self, structure, exprs):
        def disabled(points, out):
            rows = [_reference_row(structure, exprs, x) for x in points]
            self.calls += ["row"] * len(rows)
            for j, value in enumerate(v for row in rows for v in row):
                out[j] = value

        return disabled

    def patches(self):
        return (
            mock.patch.object(dynamics, "_generate_step", self.generate_step),
            mock.patch.object(dynamics, "_row_pass", self.row_pass),
        )


def _trajectory(problem):
    try:
        traj = integrate(problem, extra_monitors={"ratio": "q1/p1"})
    except (*EVALUATION_ERRORS, IntegrationError) as err:
        return type(err), str(err)
    monitors = {k: v.tobytes() for k, v in traj.monitors.items()}
    return traj.times.tobytes(), traj.states.tobytes(), monitors, traj.truncated, traj.warnings


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flows(), st.sampled_from([1e-3, 0.1, 1.0]), st.sampled_from(["rk4", "midpoint"]))
def test_short_flows_match_tree_walker(flow, dt, method):
    structure, h, x = flow
    problem = FlowProblem(structure, h, x, dt, 6 * dt, method)
    with np.errstate(all="ignore"):
        generated = _trajectory(problem)
        disabled = _Disabled()
        first, second = disabled.patches()
        with first, second:
            tree = _trajectory(problem)
    assert disabled.calls
    assert generated == tree


MIDPOINT = {
    "version": 1,
    "phase_space": {"n": 2},
    "structure": {"kind": "constant-theta-f", "theta": 0.8, "f": -0.4},
    "hamiltonian": "(1.2*q1^2 + 0.7*q2^2 + p1^2 + 0.9*p2^2)/2",
    "initial_state": [0.4, -0.3, 0.2, 0.6],
    "integrator": {"method": "midpoint", "dt": 0.001, "t_end": 1.0},
}

LEAF_CLOUD = {
    "version": 1,
    "phase_space": {"n": 2},
    "structure": {
        "kind": "general-planar",
        "theta": "1", "f": "1", "g11": "1", "g12": "0", "g21": "0", "g22": "1",
    },
    "reduction": {"reference_point": [0.3, 0.2, 0.1, 0.4]},
}

# config: (command, the disabled stand-ins its flows call); the reduced flow
# of ``reduce_constant`` steps on the same RK4 step but has no monitor row
FLOW_CONFIGS = {
    "integrate_canonical_oscillator.json": ("integrate", {"rk4", "row"}),
    "integrate_constant_identification.json": ("integrate", {"rk4", "row"}),
    "integrate_singular_field.json": ("integrate", {"rk4", "row"}),
    "reduce_constant.json": ("reduce", {"rk4"}),
    "reduce_singular_field.json": ("reduce", set()),
    "sweep_epsilon.json": ("sweep", {"rk4", "row"}),
    "midpoint": ("integrate", {"midpoint", "row"}),
    "leaf_cloud": ("reduce", {"rk4", "row"}),
}
_INLINE = {"midpoint": MIDPOINT, "leaf_cloud": LEAF_CLOUD}


def _artifacts(name, tmp_path, label):
    if name in _INLINE:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_INLINE[name]), encoding="utf-8")
    else:
        path = FIXTURES / name
    out_dir = tmp_path / label
    run(FLOW_CONFIGS[name][0], load_config(path), out_dir)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


@pytest.mark.parametrize("name", sorted(FLOW_CONFIGS))
def test_artifacts_match_with_generated_flow_code_disabled(name, tmp_path):
    generated = _artifacts(name, tmp_path, "generated")
    disabled = _Disabled()
    first, second = disabled.patches()
    with first, second:
        tree = _artifacts(name, tmp_path, "tree")
    assert tree == generated
    assert set(disabled.calls) == FLOW_CONFIGS[name][1]
