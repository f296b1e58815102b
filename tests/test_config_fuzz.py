"""Fuzz of the config JSON: one value of a small config per command is
replaced from a fixed pool of wrong types, bad numbers, broken expressions
and short lists, or its key is dropped.  Whatever the input, ``main``
returns a documented exit code (0-3) and prints no traceback."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon.cli import main

CONFIGS = [
    ("check-jacobi", {
        "version": 1,
        "phase_space": {"n": 2},
        "parameters": {"k": 1.0},
        "structure": {"kind": "theta-f-field", "theta": {"1,2": "-k*q1/p2"}, "f": {"1,2": "-p2/q1"}},
        "cloud": {"count": 5, "ranges": {"q1": [0.3, 1.8], "p2": [0.3, 1.8]},
                  "filters": [{"expr": "q1", "min_abs": 0.2}]},
        "seed": 3,
        "tolerance": 1e-9,
        "assertions": [{"name": "a", "value": "generic_max", "op": "<=", "threshold": 1e-9}],
    }),
    ("integrate", {
        "version": 1,
        "phase_space": {"n": 1},
        "structure": {"kind": "canonical"},
        "hamiltonian": "(p1^2 + q1^2)/2",
        "initial_state": [1.0, 0.0],
        "integrator": {"method": "rk4", "dt": 0.01, "t_end": 0.1},
        "monitors": {"m": "q1*p1"},
        "assertions": [{"name": "a", "value": "monitors.H.max_drift", "op": "<=", "threshold": 1e-7}],
    }),
    ("reduce", {
        "version": 1,
        "phase_space": {"n": 2},
        "structure": {"kind": "constant-theta-f", "theta": 1.0, "f": 1.0},
        "hamiltonian": "(p1^2 + p2^2 + q1^2 + q2^2)/2",
        "seed": 4,
        "reduction": {"reference_point": [1.0, 0.0, 0.0, -1.0], "surface_points": 5,
                      "surface_parameter_ranges": {"p1": [0.8, 1.6]},
                      "spectrum": True, "n_max": 3, "dt": 0.02, "t_end": 8.0,
                      "constants": [0.0, 0.0]},
        "assertions": [{"name": "a", "value": "reduction.spread", "op": "<=", "threshold": 1e-9}],
    }),
    ("reduce", {
        "version": 1,
        "phase_space": {"n": 2},
        "parameters": {"a": 0.5},
        "structure": {"kind": "custom", "entries": {"1,2": "a", "1,3": "1", "2,4": "1", "3,4": "2"}},
        "reduction": {"reference_point": [0.3, 0.2, 0.1, 0.4], "leaf_hamiltonians": ["q1*p2", "a*p1"]},
    }),
    ("sweep", {
        "version": 1,
        "parameters": {"k": 1.0},
        "hamiltonian": "(k*p1^2 + p2^2 + q1^2 + q2^2)/2",
        "initial_state": [1.0, 0.3, -0.2, -0.8],
        "integrator": {"method": "rk4", "dt": 0.01, "t_end": 0.1},
        "sweep": {"theta": 1.0, "epsilons": [0.1, 0.01]},
        "assertions": [{"name": "a", "value": "slope_error_from_unity", "op": "<=", "threshold": 0.2}],
    }),
    ("hodograph", {
        "version": 1,
        "hodograph": {"kind": "linear", "parameters": {"alpha": 1.0},
                      "grid": {"x": [-1.0, 1.0, 5], "y": [-1.0, 1.0, 5], "band": 0.05,
                               "filters": [{"expr": "y", "min": -0.5}]},
                      "alphas": [1.0, 10.0]},
        "assertions": [{"name": "a", "value": "pde.max_res", "op": "<=", "threshold": 1e-8}],
    }),
    ("hodograph", {
        "version": 1,
        "hodograph": {"kind": "loglog", "parameters": {"alpha": 1.0, "u0": 0.3, "v0": 0.2},
                      "branch": "-", "grid": {"x": [-1.0, 1.0, 4], "y": [1.0, 3.0, 4]}},
    }),
    ("hodograph", {
        "version": 1,
        "hodograph": {"kind": "custom-fg", "parameters": {"alpha": 1.0},
                      "f": "alpha*s", "g": "-alpha*s",
                      "grid": {"x": [0.4, 1.4, 3], "y": [-1.0, 1.0, 3]}},
    }),
]

POOL = [
    None, True, False, "x", "0.5", "q1 +* p1", -1, 0, 2.5, 1e12, 1e308, 10**30, 5e-324,
    math.nan, math.inf, -math.inf, [], {}, [1.0], [0.5, "x"], [-1, 1, 3], [True, 0],
]
DROP = object()


def _paths(node, prefix=()):
    """The key path of every value below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


CASES = [(command, doc, path) for command, doc in CONFIGS for path in _paths(doc)]


def mutated(doc, path, value):
    """``doc`` with the value at ``path`` replaced by ``value``, or dropped
    for :data:`DROP`."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return doc


def run_main(command, doc):
    """The exit code and stderr of ``main`` on the config ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


def test_unchanged_configs_run():
    for command, doc in CONFIGS:
        code, err = run_main(command, doc)
        assert code == 0, (command, err)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES), value=st.sampled_from([*POOL, DROP]))
def test_any_config_value_gives_a_documented_exit_code(case, value):
    command, doc, path = case
    code, err = run_main(command, mutated(doc, path, value))
    assert code in (0, 1, 2, 3), (path, value, err)
    assert "Traceback" not in err
