"""A phase-space point given by a config must be finite.

JSON numbers such as ``1e309`` and ``1e400`` parse to infinity, so strict
JSON does not catch them.  An ``initial_state`` or a
``reduction.reference_point`` that is not finite is a config error (exit 2)
at the number's JSON path, raised before any work; a flow built in code
rejects a non-finite start with ``ValueError``."""

import json
import math
from pathlib import Path

import pytest

from noncanon.brackets import canonical, constant_theta_f
from noncanon.cli import EXIT_CONFIG, main
from noncanon.dynamics import FlowProblem
from noncanon.reduction import build_reduced, integrate_reduced

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HARMONIC = "(p1^2 + p2^2 + q1^2 + q2^2)/2"


def _config_text(name, *keys, index, literal):
    """Fixture ``name`` as JSON text with element ``index`` of the list at
    the key path ``keys`` written as the number ``literal``."""
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    node = doc
    for key in keys:
        node = node[key]
    node[index] = "@number@"
    return json.dumps(doc).replace('"@number@"', literal)


# name: (command, fixture, key path, index, number as written in the config)
CASES = {
    "integrate_overflowing_state": (
        "integrate", "integrate_canonical_oscillator.json", ("initial_state",), 0, "1e309"
    ),
    "integrate_nan_state": (
        "integrate", "integrate_canonical_oscillator.json", ("initial_state",), 1, "NaN"
    ),
    "sweep_overflowing_state": ("sweep", "sweep_epsilon.json", ("initial_state",), 2, "1e309"),
    "sweep_negative_infinity": ("sweep", "sweep_epsilon.json", ("initial_state",), 0, "-1e999"),
    "reduce_overflowing_reference": (
        "reduce", "reduce_constant.json", ("reduction", "reference_point"), 3, "1e400"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_point_is_a_config_error(tmp_path, capsys, case):
    command, name, keys, index, literal = CASES[case]
    path = tmp_path / "config.json"
    path.write_text(_config_text(name, *keys, index=index, literal=literal), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    json_path = "$." + ".".join(keys) + f"[{index}]"
    assert err == f"config error: {json_path}: expected a finite number\n"
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("x0", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, math.nan]])
def test_flow_problem_rejects_a_non_finite_start(x0):
    with pytest.raises(ValueError, match="x0 must be finite"):
        FlowProblem(canonical(1), "(p1^2 + q1^2)/2", x0, 0.1, 1.0)


def test_flow_problem_rejects_a_start_of_the_wrong_length():
    with pytest.raises(ValueError, match="x0 must have length 2"):
        FlowProblem(canonical(1), "p1^2/2", [0.0] * 3, 0.1, 1.0)


def test_reduced_flow_rejects_a_non_finite_start():
    system = build_reduced(constant_theta_f(2.0, 0.5), HARMONIC, reference=[1.0, 0.0, 0.0, -0.5])
    with pytest.raises(ValueError, match="x0 must be finite"):
        integrate_reduced(system, [math.nan, 0.0], 0.1, 1.0)
