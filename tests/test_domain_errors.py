"""Leaving the real domain is a ``DomainError`` in both evaluators, never a
bare ``ValueError`` or ``OverflowError`` from ``math``: ``sin``/``cos`` of
an infinite argument, and a negative base raised to an infinite or NaN
exponent.  A NaN argument of ``sin``/``cos`` still passes through, in the
tree walker and in generated code alike.  A flow that meets such a point
ends as a runtime error, exit code 3, with no traceback."""

import json
import math
import re

import pytest

from noncanon.cli import EXIT_RUNTIME, main
from noncanon.expressions import DomainError, compile, derivative, evaluate, parse

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


@pytest.mark.parametrize("src", ["sin(x)", "cos(x)"])
def test_nan_argument_passes_through(src):
    value, slope, generated, (dual_value, (dual_slope,)) = (
        run() for run in _tree_and_generated(src, math.nan)
    )
    assert all(math.isnan(v) for v in (value, slope, generated, dual_value, dual_slope))


@pytest.mark.parametrize("hamiltonian", ["p1^4 + sin(q1)", "p1^4 + cos(q1)"])
def test_flow_through_an_overflowed_stage_is_a_runtime_error(tmp_path, capsys, hamiltonian):
    # the first RK4 stage sends q1 to -inf
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
    assert code == EXIT_RUNTIME
    assert "of infinite value in" in err
    assert "Traceback" not in err
