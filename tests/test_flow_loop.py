"""Stopping and resuming the generated stepping loop.

Each flow takes its steps in one generated loop (``dynamics._generate_step``)
that stores every state itself and returns only at the end or at the first
state whose sum is not finite; a step that raises leaves the loop, and
``dynamics._flow_step`` redoes it on the tree walker before it re-enters
the loop.  Every case here must give, bit for bit, the states, the stored
count, ``truncated`` and the error text of the tree-walker reference loop
(``_rk4_step`` or ``_midpoint_step`` over ``_Velocity``, one step at a
time)."""

import dis
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from noncanon import dynamics, expressions
from noncanon.brackets import canonical, constant_theta_f
from noncanon.cli import EXIT_OK, EXIT_RUNTIME, main
from noncanon.dynamics import (
    FlowProblem,
    IntegrationError,
    _flow_states,
    _generate_step,
    _midpoint_step,
    _rk4_step,
    _Velocity,
)
from noncanon.expressions import EVALUATION_ERRORS, parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# leaves the finite range, or stops converging, within 300 steps from zero
DIVERGING = "q1*q1 + p2 + p1 + q2^3"


def _reference(problem: FlowProblem):
    """``(states, truncated)`` of the tree walker stepped one step at a
    time, or ``(error, step)`` for the error raised at that step."""
    velocity = _Velocity(problem.structure, problem.hamiltonian)
    step = _rk4_step if problem.method == "rk4" else _midpoint_step
    n = max(1, int(round(problem.t_end / problem.dt)))
    dt = problem.t_end / n
    x = np.array(problem.x0, dtype=float)
    states = [x]
    with np.errstate(all="ignore"):
        for k in range(1, n + 1):
            try:
                x = np.array(step(velocity, x, dt), dtype=float)
            except (*EVALUATION_ERRORS, IntegrationError) as err:
                return err, k
            if not np.isfinite(x).all():
                return np.array(states), True
            states.append(x)
    return np.array(states), False


def assert_matches_reference(problem: FlowProblem):
    want = _reference(problem)
    if isinstance(want[0], Exception):
        with pytest.raises(type(want[0])) as raised:
            _flow_states(problem)
        assert str(raised.value) == str(want[0])
        return want
    _, states, truncated = _flow_states(problem)
    assert states.shape == want[0].shape
    assert states.tobytes() == want[0].tobytes()
    assert truncated is want[1]
    return states, truncated


def _counting_redo(monkeypatch) -> list:
    """The start states of the steps the tree walker redoes from now on."""
    starts = []

    def redo(v, x, dt):
        starts.append(np.array(x))
        return _rk4_step(v, x, dt)

    monkeypatch.setattr(dynamics, "_rk4_step", redo)
    return starts


def _sin_raising_once(monkeypatch) -> None:
    """Generated code built from now on raises at its 30th sin, in a step
    after the first; the tree walker calls ``math.sin`` itself."""
    calls = []

    def sin(v):
        calls.append(v)
        if len(calls) == 30:
            raise ZeroDivisionError("generated code raised")
        return math.sin(v)

    monkeypatch.setitem(expressions._GENERATED_GLOBALS, "_sin", sin)


def test_step_whose_generated_code_raises_is_redone_and_the_flow_goes_on(monkeypatch):
    _sin_raising_once(monkeypatch)
    problem = FlowProblem(canonical(1), "p1^2/2 - cos(q1)", [0.3, 0.1], 0.01, 1.0)
    redone = _counting_redo(monkeypatch)
    states, truncated = assert_matches_reference(problem)
    assert not truncated and len(states) == 101
    (start,) = redone
    (k,) = np.flatnonzero((states == start).all(axis=1))
    assert k >= 2  # the step from state k is step k + 1


def test_raising_step_leaves_its_row_untouched(monkeypatch):
    _sin_raising_once(monkeypatch)
    loop = _generate_step(canonical(1), parse("p1^2/2 - cos(q1)"), "rk4")
    states = np.full((11, 2), 7.0)
    states[0] = [0.3, 0.1]
    with pytest.raises(ZeroDivisionError) as raised:
        loop(states[0].tolist(), 0.01, 0, 10, memoryview(states.reshape(-1)))
    k = raised.value.steps
    assert k >= 2
    assert np.isfinite(states[: k + 1]).all() and (states[k + 1 :] == 7.0).all()


def test_pow_overflow_at_a_later_step_is_redone_on_the_tree_walker(monkeypatch):
    # q1^4 overflows once q1 passes about 1.3e77, while q1^3 and 1/q1^4 stay
    # finite: exactly the steps in which a pow overflows are redone on the
    # tree walker, whose overflow-safe pow stores finite states
    overflowed = []
    ieee = expressions._pow_ieee

    def spied(lv, rv):
        try:
            math.pow(lv, rv)
        except OverflowError:
            overflowed.append(lv)
        return ieee(lv, rv)

    monkeypatch.setattr(expressions, "_pow_ieee", spied)
    problem = FlowProblem(canonical(1), "p1^2/2 + 1/q1^4", [1e76, 1e78], 0.1, 2.0)
    redone = _counting_redo(monkeypatch)
    states, truncated = assert_matches_reference(problem)
    assert not truncated and len(states) == 21
    assert abs(states[1, 0]) < 1.3e77 < abs(states[-1, 0])
    velocity = _Velocity(problem.structure, problem.hamiltonian)
    overflowing = []
    for x in states[:-1]:
        overflowed.clear()
        with np.errstate(all="ignore"):
            _rk4_step(velocity, x, 0.1)
        if overflowed:
            overflowing.append(x.tolist())
    assert overflowing and [x.tolist() for x in redone] == overflowing


def test_finite_state_whose_sum_overflows_is_stored():
    problem = FlowProblem(canonical(1), "q1 + p1", [1.5e308, 1.5e308], 0.1, 1.0)
    states, truncated = assert_matches_reference(problem)
    assert not truncated and len(states) == 11
    assert math.isinf(states[-1].tolist()[0] + states[-1].tolist()[1])


def test_non_finite_state_truncates_there():
    # an implicit midpoint step never stores a non-finite state: its
    # iteration cannot converge on one, as the next test shows
    problem = FlowProblem(constant_theta_f(1.0, 0.7), DIVERGING, [0.0] * 4, 0.01, 3.0)
    states, truncated = assert_matches_reference(problem)
    assert truncated and 1 < len(states) < 301


def test_step_redone_where_a_division_overflows_prints_nothing(tmp_path, capsys):
    # the partial of 1/q1 divides by q1*q1, which underflows to zero: the
    # generated step raises, and its redo on numpy scalars divides by zero
    doc = {
        "version": 1,
        "phase_space": {"n": 1},
        "structure": {"kind": "canonical"},
        "hamiltonian": "1/q1 + p1^2/2",
        "initial_state": [1e-170, 0.0],
        "integrator": {"method": "rk4", "dt": 0.1, "t_end": 0.5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["integrate", "--config", str(path), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads((out / "integrate_report.json").read_text("utf-8"))
    assert report["results"]["truncated"] is True


def test_midpoint_that_does_not_converge_exits_3(tmp_path, capsys):
    doc = json.loads((FIXTURES / "integrate_constant_identification.json").read_text("utf-8"))
    doc["hamiltonian"] = DIVERGING
    doc["initial_state"] = [0.0] * 4
    doc["integrator"] = {"method": "midpoint", "dt": 0.01, "t_end": 3.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["integrate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == "runtime error: implicit midpoint iteration did not converge\n"
    problem = FlowProblem(constant_theta_f(1.0, 1.0), DIVERGING, [0.0] * 4, 0.01, 3.0, "midpoint")
    _, step = assert_matches_reference(problem)
    assert step == 239


# --- the loop's back edges ----------------------------------------------------


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
def test_every_back_edge_is_an_unconditional_jump(method):
    # CPython 3.11 compiles the back edge of ``while k < n:`` to
    # POP_JUMP_BACKWARD_IF_TRUE, which never warms the code up: a loop of
    # 10,000 steps run in one call stayed unspecialized (``dis(...,
    # adaptive=True)`` showed no specialized instruction after it ran), and
    # the sweep workload ran 4.5-8% slower than with one step per call.
    # ``while True:`` with a return inside compiles to JUMP_BACKWARD, which
    # counts toward specialization.
    loop = _generate_step(constant_theta_f(0.8, 1.25), parse(DIVERGING), method)
    backward = {i.opname for i in dis.get_instructions(loop) if "BACKWARD" in i.opname}
    assert backward == {"JUMP_BACKWARD"}


# --- the lines that run once --------------------------------------------------


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
def test_lines_that_read_no_state_run_before_the_loop(monkeypatch, method):
    # 0.5 * dt, dt / 6.0 and constant-only arithmetic read no state and
    # cannot raise; a parameter load can raise and stays in the loop
    sources = []
    define = expressions._Codegen.define

    def spy(self, source):
        sources.append(source)
        return define(self, source)

    monkeypatch.setattr(expressions._Codegen, "define", spy)
    structure = canonical(1, {"a": 2.0})
    problem = FlowProblem(structure, "a*q1^2/2 + 3*2*q1 + p1^2/2", [0.3, 0.1], 0.01, 1.0, method)
    assert_matches_reference(problem)
    (source,) = sources
    before, loop = source.split("while True:")
    assert "= (3.0) * (2.0)\n" in before and "(3.0) * (2.0)" not in loop
    assert "env['a']" in loop and "env" not in before
    if method == "rk4":
        assert "= 0.5 * dt\n" in before and "= dt / 6.0\n" in before
        assert "0.5 * dt" not in loop and "dt / 6.0" not in loop
