"""Leaving the real domain is a ``DomainError`` in both evaluators, never a
bare ``ValueError`` or ``OverflowError`` from ``math``: ``sin``/``cos`` of
an infinite argument, and a negative base raised to an infinite or NaN
exponent.  A NaN argument of ``sin``/``cos`` still passes through, in the
tree walker and in generated code alike.  An ``integrate`` flow whose step
meets such a point is truncated before that step, with a warning that
quotes the tree walker's error; a sweep's flow ends as a runtime error,
exit code 3, with that error's message and no traceback."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from noncanon.brackets import canonical
from noncanon.cli import EXIT_OK, EXIT_RUNTIME, main
from noncanon.dynamics import _rk4_step, _Velocity
from noncanon.expressions import (
    DomainError,
    _generate_row,
    _reference_row,
    compile,
    derivative,
    evaluate,
    parse,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INF = math.inf


def _tree_and_generated(src, x):
    expr = parse(src)
    env = {"x": x}
    return [
        lambda: evaluate(expr, env),
        lambda: derivative(expr, "x", env),
        lambda: compile(expr)(env)[0],
        lambda: compile(expr, ("x",))(env),
    ]


@pytest.mark.parametrize("src, x, message", [
    ("sin(x)", INF, "sin of infinite value in 'sin(x)'"),
    ("cos(x)", -INF, "cos of infinite value in 'cos(x)'"),
    ("2*sin(3*x)", INF, "sin of infinite value in 'sin(3.0*x)'"),
    ("(-1)^x", INF, "negative base with non-integer exponent"),
    ("(-2)^x", -INF, "negative base with non-integer exponent"),
    ("(-1)^x", math.nan, "negative base with non-integer exponent"),
    ("(-1)^exp(x)", 1000.0, "negative base with non-integer exponent"),
])
def test_leaving_the_domain_is_a_domain_error(src, x, message):
    for run in _tree_and_generated(src, x):
        with pytest.raises(DomainError, match=re.escape(message)):
            run()


def test_a_row_called_directly_raises_the_tree_walkers_error():
    # math.log raises a bare ValueError; the row's fallback raises the tree
    # walker's DomainError instead
    row = _generate_row(canonical(1), [parse("log(q1)")])
    with pytest.raises(DomainError, match=re.escape("log of non-positive value in 'log(q1)'")):
        row((-1.0, 0.0))


@pytest.mark.parametrize("p1, message", [
    (1.0, "sqrt derivative at zero in 'sqrt(q1)'"),
    # the generated body meets sqrt's partial before log's value; the tree
    # walker takes the whole value first
    (-1.0, "log of non-positive value in 'log(p1)'"),
])
def test_a_dual_row_raises_a_partials_error_only_after_every_value(p1, message):
    structure, exprs = canonical(1), [parse("sqrt(q1) + log(p1)")]
    for run in (
        _generate_row(structure, exprs, structure.variable_names),
        lambda x: _reference_row(structure, exprs, x, structure.variable_names),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            run((0.0, p1))
    # where only the partial fails, the value row succeeds
    if p1 > 0.0:
        assert _generate_row(structure, exprs)((0.0, p1)) == (0.0,)


@pytest.mark.parametrize("src", ["sin(x)", "cos(x)"])
def test_nan_argument_passes_through(src):
    value, slope, generated, (dual_value, (dual_slope,)) = (
        run() for run in _tree_and_generated(src, math.nan)
    )
    assert all(math.isnan(v) for v in (value, slope, generated, dual_value, dual_slope))


@pytest.mark.parametrize("hamiltonian", ["p1^4 + sin(q1)", "p1^4 + cos(q1)"])
def test_flow_through_an_overflowed_stage_is_truncated(tmp_path, capsys, hamiltonian):
    # the first RK4 stage sends q1 to -inf, where the second stage's sin or
    # cos leaves the domain: the trajectory ends at its initial state
    doc = {
        "version": 1,
        "phase_space": {"n": 1},
        "structure": {"kind": "canonical"},
        "hamiltonian": hamiltonian,
        "initial_state": [0.0, 1e103],
        "integrator": {"dt": 0.1, "t_end": 1.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["integrate", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_OK, err
    assert err == ""
    report = json.loads((tmp_path / "out" / "integrate_report.json").read_text("utf-8"))
    results = report["results"]
    assert results["truncated"] is True and results["steps"] == 0
    op = hamiltonian[-7:-4]
    assert f"trajectory truncated: step left the domain: {op} of infinite value in '{op}(q1)'" in (
        results["warnings"]
    )


def _tree_walker_flow(structure, h, x0, dt: float, n: int):
    """The states that RK4 steps on the tree walker store from ``x0``, and
    the error of the step that raised, if one did."""
    velocity = _Velocity(structure, h)
    states = [np.array(x0, dtype=float)]
    with np.errstate(all="ignore"):
        for _ in range(n):
            try:
                states.append(_rk4_step(velocity, states[-1], dt))
            except DomainError as err:
                return np.array(states), err
    return np.array(states), None


def _config(tmp_path, fixture: str, edit) -> str:
    doc = json.loads((FIXTURES / fixture).read_text("utf-8"))
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_integrate_that_leaves_the_domain_is_truncated_with_a_warning(tmp_path, capsys):
    # q1 falls at unit rate from 1.0, so a stage near t = 1 takes the root
    # of a negative q1; the energy assertion does not hold that close to
    # the singular slope at q1 = 0, and is dropped
    def edit(doc):
        doc["hamiltonian"] = "sqrt(q1) - p1"
        doc["integrator"]["t_end"] = 2.0
        doc["assertions"] = []

    config = _config(tmp_path, "integrate_canonical_oscillator.json", edit)
    out = tmp_path / "out"
    code = main(["integrate", "--config", config, "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    results = json.loads((out / "integrate_report.json").read_text("utf-8"))["results"]
    message = "sqrt of negative value in 'sqrt(q1)'"
    assert results["truncated"] is True
    assert results["warnings"] == [f"trajectory truncated: step left the domain: {message}"]
    # the states up to the step the tree walker cannot take, bit for bit
    states, error = _tree_walker_flow(canonical(1), parse("sqrt(q1) - p1"), [1.0, 0.0], 0.001, 2000)
    assert str(error) == message
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == len(states) == results["steps"] + 1 < 2001
    assert rows[:, 1:3].tobytes() == states.tobytes()


def test_sweep_that_leaves_the_domain_exits_3(tmp_path, capsys):
    def edit(doc):
        doc["hamiltonian"] = "sqrt(q1) - p1"

    config = _config(tmp_path, "sweep_epsilon.json", edit)
    out = tmp_path / "out"
    code = main(["sweep", "--config", config, "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: sqrt of negative value in 'sqrt(q1)'\n"
    assert not out.exists() or not any(out.iterdir())
