"""One compile per distinct generated source in a run, and flows that share
their source.

While ``cli.run`` runs a command, ``expressions._Codegen.define`` keeps a
table from source text to code object (``expressions._SOURCE_TABLE``), so a
source is compiled once per run and executed into a fresh namespace at
every call.  Outside a run there is no table and every call compiles.  A
flow's constant bracket entries other than 1.0 are locals bound before its
stepping loop, so the flows of an epsilon sweep, which differ only in f,
share one source; each flow must still equal the tree walker step for step,
bit for bit.  The sweep's drift maximum and its fitted slope propagate a
NaN drift instead of dropping it."""

import builtins
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from noncanon import reduction
from noncanon.brackets import constant_theta_f
from noncanon.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from noncanon.dynamics import FlowProblem
from noncanon.expressions import _SOURCE_TABLE, parse
from noncanon.reduction import ReducedSystem, epsilon_sweep, integrate_reduced
from test_flow_loop import DIVERGING, _reference, assert_matches_reference

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HARMONIC = "(p1^2 + p2^2 + q1^2 + q2^2)/2"
# the file name ``_Codegen.define`` compiles every generated source under
GENERATED = "<noncanon.expressions.compile>"


def _table_set() -> bool:
    return _SOURCE_TABLE.get(None) is not None


def _compiles(monkeypatch) -> list[tuple[str, bool]]:
    """Every generated source compiled from now on, with whether a table
    was set when it was compiled."""
    compiled = []
    original = builtins.compile

    def counted(source, filename, *args, **kwargs):
        if filename == GENERATED:
            compiled.append((source, _table_set()))
        return original(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    return compiled


def _sweep(tmp_path, name: str, **changes) -> list[str]:
    doc = json.loads((FIXTURES / "sweep_epsilon.json").read_text("utf-8"))
    doc.update(changes)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["sweep", "--config", str(path), "--out", str(tmp_path / name)]


# --- the table ------------------------------------------------------------------


def test_a_run_compiles_each_source_once_and_the_next_run_again(tmp_path, monkeypatch):
    compiled = _compiles(monkeypatch)
    argv = ["sweep", "--config", str(FIXTURES / "sweep_epsilon.json")]
    assert main([*argv, "--out", str(tmp_path / "first")]) == EXIT_OK
    first = list(compiled)
    sources = [source for source, _ in first]
    assert all(table for _, table in first)
    assert len(sources) == len(set(sources))
    # the fixture's 4 flows share one stepping loop, and their drifts one
    # pass over the stored states
    assert sum("while True:" in source for source in sources) == 1
    assert len(sources) == 2
    # a second run has a table of its own
    compiled.clear()
    assert main([*argv, "--out", str(tmp_path / "second")]) == EXIT_OK
    assert compiled == first
    assert not _table_set()


@pytest.mark.parametrize("theta", [1.0, 1.37])
def test_outside_a_run_every_flow_compiles_one_shared_source(monkeypatch, theta):
    # theta = 1.0 binds f alone, theta = 1.37 binds theta and f
    compiled = _compiles(monkeypatch)
    assert not _table_set()
    x0 = [1.0, 0.3, -0.2, -0.8]
    epsilon_sweep(theta, HARMONIC, x0, [0.1, 0.01, 1e-3], dt=0.01, t_end=0.5)
    assert not any(table for _, table in compiled)
    loops = [source for source, _ in compiled if "while True:" in source]
    assert len(loops) == 3 and len(set(loops)) == 1


@pytest.mark.parametrize(
    "code, changes",
    [
        (EXIT_CONFIG, {"sweep": {"theta": 1.0, "epsilons": [1.5, 0.1]}}),
        (
            EXIT_RUNTIME,
            {
                "hamiltonian": DIVERGING,
                "initial_state": [0.0] * 4,
                "integrator": {"method": "rk4", "dt": 0.01, "t_end": 3.0},
                "sweep": {"theta": 1.0, "epsilons": [0.3, 0.1]},
            },
        ),
    ],
)
def test_a_failed_run_leaves_no_table(tmp_path, monkeypatch, capsys, code, changes):
    compiled = _compiles(monkeypatch)
    assert main(_sweep(tmp_path, "failed", **changes)) == code
    assert capsys.readouterr().err
    assert all(table for _, table in compiled)
    assert not _table_set()


def test_each_call_gets_its_own_namespace(monkeypatch):
    # one code object, two functions with their own bound constants
    table = _SOURCE_TABLE.set({})
    try:
        compiled = _compiles(monkeypatch)
        x0 = [1.0, 0.3, -0.2, -0.8]
        sweep = epsilon_sweep(1.0, HARMONIC, x0, [0.1, 0.01], dt=0.01, t_end=1.0)
    finally:
        _SOURCE_TABLE.reset(table)
    assert sum("while True:" in source for source, _ in compiled) == 1
    want = epsilon_sweep(1.0, HARMONIC, x0, [0.1, 0.01], dt=0.01, t_end=1.0)
    assert sweep.rows == want.rows


# --- bound constants ------------------------------------------------------------


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("theta", [1.0, -3.0])
@pytest.mark.parametrize("f", [-0.0, 5e-324, -2.5, 0.7, 1e300])
def test_bound_constants_keep_the_tree_walkers_bits(monkeypatch, method, theta, f):
    compiled = _compiles(monkeypatch)
    h = "exp(q1/3) + sin(p2) + q2^2/2 + p1^4/4"
    problem = FlowProblem(constant_theta_f(theta, f), h, [0.4, -0.3, 0.2, 0.5], 0.01, 1.0, method)
    assert_matches_reference(problem)
    ((source, _),) = compiled
    # f, entry 3, is a local bound before the loop; a 1.0 entry (the mixed
    # entries 1 and 2, and theta = 1.0) stays a literal, which the product
    # folds away
    unpack = source.splitlines()[1]
    assert re.search(r"; c3 = _g\d+$", unpack), unpack
    assert bool(re.search(r"\bc0\b", source)) is (theta != 1.0)
    assert not re.search(r"\bc[12]\b", source)
    assert "(1.0)" not in source
    assert f"({f!r})" not in source and f"({theta!r})" not in source


@pytest.mark.parametrize("theta_red", [-0.0, 5e-324, -2.5, 0.7, 1e300])
def test_the_reduced_flow_keeps_the_tree_walkers_bits(monkeypatch, theta_red):
    compiled = _compiles(monkeypatch)
    system = ReducedSystem(
        theta_matrix=np.array([[0.0, theta_red], [-theta_red, 0.0]]),
        hamiltonian=parse("(q1^2 + q2^2)/2 + q1^4/10"),
        parameters={},
        reference=np.array([0.4, -0.3]),
    )
    q0, dt, t_end = [0.4, -0.3], 0.01, 1.0
    want = _reference(FlowProblem(system, system.hamiltonian, q0, dt, t_end))
    times, qs = integrate_reduced(system, q0, dt, t_end)
    assert qs.tobytes() == want[0].tobytes()
    assert len(times) == len(qs)
    ((source, _),) = compiled
    assert re.search(r"; c0 = _g\d+$", source.splitlines()[1])


# --- drift maxima that propagate NaN ----------------------------------------------

INFINITE_COMBINATION = {
    "hamiltonian": "(q2^2 + p2^2)/2",
    "initial_state": [0.5, 0.0, 10.0, 0.0],
    "integrator": {"dt": 0.01, "t_end": 0.1},
    "sweep": {"theta": 1e308, "epsilons": [0.1, 0.01]},
}


def test_an_infinite_combination_drifts_by_nan_silently(tmp_path, capsys):
    # the flow is stationary and c_2 = q2 - theta*p1 is -inf from the start:
    # its drift is inf - inf, a NaN, and so is every row's maximum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(_sweep(tmp_path, "out", assertions=[], **INFINITE_COMBINATION))
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "sweep_report.json").read_text("utf-8"))
    assert report["results"]["fitted_slope"] == "NaN"
    for row in report["results"]["rows"]:
        assert row["c_1_drift"] == 0.0
        assert row["c_2_drift"] == "NaN" and row["max_drift"] == "NaN"
    csv = (tmp_path / "out" / "epsilon_sweep.csv").read_text("utf-8").splitlines()
    assert csv[1:] == ["0.10000000000000001,0,nan,nan", "0.01,0,nan,nan"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_a_drift_that_is_not_positive_and_finite_gives_a_nan_slope(monkeypatch, bad):
    # the first flow's drifts are (0.0, bad), whose maximum by Python's max()
    # would be 0.0 for a NaN; the other flows' are positive
    drifts = iter([[0.0, bad], [0.25, 0.125], [0.0625, 0.03125]])
    monkeypatch.setattr(reduction, "_max_drift", lambda *args: next(drifts))
    # np.polyfit returns NaN for a NaN or an infinite logarithm; it must not
    # be reached at all
    fits = []
    monkeypatch.setattr(np, "polyfit", lambda *args: fits.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = epsilon_sweep(1.0, HARMONIC, [1.0, 0.3, -0.2, -0.8], [0.1, 0.01, 1e-3],
                              dt=0.01, t_end=0.1)
    first = sweep.rows[0]["max_drift"]
    assert first == bad or (first != first and bad != bad)
    assert [row["max_drift"] for row in sweep.rows[1:]] == [0.25, 0.0625]
    assert math.isnan(sweep.fitted_slope) and fits == []
