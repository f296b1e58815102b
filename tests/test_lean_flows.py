"""Generated flow code without exact no-ops, and sweeps that evaluate only
the frozen combinations they report.

``_Codegen`` drops a factor spelled as the literal 1.0, the test
``1.0 != 0.0`` of a variable's own dual part, and any line whose
right-hand side it has already emitted; all three are exact, and the
property tests of the generated code against the tree walker pin that.
Here the folds are pinned in the source itself.  An epsilon sweep steps
each flow as ``integrate`` does and evaluates only its ``c_m`` at the
stored states; its drifts must equal ``integrate``'s bit for bit.  The
parser's own recursion limit is a config error with its own message."""

import json
import math
import re
import struct
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon import dynamics
from noncanon.brackets import canonical, constant_theta_f, general_planar
from noncanon.cli import EXIT_CONFIG, main
from noncanon.dynamics import (
    FlowProblem,
    IntegrationError,
    _generate_step,
    constant_combination_expressions,
    integrate,
)
from noncanon.expressions import EVALUATION_ERRORS, _Codegen, compile, parse
from noncanon.reduction import epsilon_sweep

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_HAMILTONIANS = [
    "(p1^2 + p2^2 + q1^2 + q2^2)/2",
    "exp(q1/3) + sin(p2) + q2^2/2 + p1^4/4",
    "q1*q1 + 1.0*p2 + p1*1.0 + q2^3",
]

# name: (structure, Hamiltonians)
_STEPS = {
    "canonical-1": (canonical(1), ["p1^2/2 + q1^4/4", "exp(q1) + sin(p1)", "1.0*q1*q1 + p1^2"]),
    "theta-f-1": (constant_theta_f(1.0, 1.0), _HAMILTONIANS),
    "theta-f-1.37": (constant_theta_f(1.37, 0.98 / 1.37), _HAMILTONIANS),
    "general-planar": (
        general_planar("1 + q1^2", "log(2 + p1^2)", "1", "q2/3", "0", "exp(-p2^2)"),
        _HAMILTONIANS,
    ),
}

# a factor 1.0 or (1.0) on either side of a multiply; -1.0, 11.0 and 1.05 are
# other numbers
_ONE_FACTOR = re.compile(r"(?<![\w.-])\(?1\.0\)? \*|\* \(?1\.0(?![\w.])")
_ONE_GUARD = re.compile(r"(?<![\w.-])\(?1\.0\)? != 0\.0")


def _sources(monkeypatch) -> list[list[str]]:
    """The lines of every function ``_Codegen`` builds; each returns only
    atoms, so its lines hold all of its arithmetic."""
    built = []
    define = _Codegen.define

    def spy(self, source, **names):
        built.append(list(self.lines))
        return define(self, source, **names)

    monkeypatch.setattr(_Codegen, "define", spy)
    return built


def _assert_folded(lines: list[str]) -> None:
    source = "\n".join(lines)
    assert not _ONE_FACTOR.search(source), source
    assert not _ONE_GUARD.search(source), source
    right_sides = [line.partition(" = ")[2] for line in lines]
    assert len(set(right_sides)) == len(right_sides), source


def test_fold_patterns_find_the_unfolded_spellings():
    for text in ["t1 = (1.0) * t2", "t1 = t2 * 1.0", "t1 = 1.0 * t2", "t1 = t2 * (1.0)",
                 "t1 = t2 if 1.0 != 0.0 else 0.0", "t1 = 0.0 + t3 if (1.0) != 0.0 and t2"]:
        assert _ONE_FACTOR.search(text) or _ONE_GUARD.search(text), text
    for text in ["t1 = (-1.0) * t2", "t1 = t2 * 1.05", "t1 = 11.0 * t2", "t1 = 2.0 * t2",
                 "t1 = t2 * 1.0e-3", "t1 = t2 if t3 != 0.0 else 0.0"]:
        assert not (_ONE_FACTOR.search(text) or _ONE_GUARD.search(text)), text


@pytest.mark.parametrize("name", sorted(_STEPS))
@pytest.mark.parametrize("method", ["rk4", "midpoint"])
def test_generated_step_has_no_exact_no_ops(monkeypatch, name, method):
    structure, hamiltonians = _STEPS[name]
    built = _sources(monkeypatch)
    for h in hamiltonians:
        _generate_step(structure, parse(h), method)
    assert len(built) == len(hamiltonians)
    for lines in built:
        _assert_folded(lines)


def test_compiled_expression_has_no_exact_no_ops(monkeypatch):
    built = _sources(monkeypatch)
    compile(parse("exp(q1) * 1.0 + q1^3 + (q1 + 1)*(q1 + 1) + p1*q1"), ("q1", "p1"))
    lines, = built
    _assert_folded(lines)


def test_theta_f_one_shares_the_equal_velocities(monkeypatch):
    # at theta = f = 1 the velocities of q2 and p1 are both q1 + p2, and
    # each stage computes them once: 41 multiplies in all, and no zero test,
    # since the partial of each x^2 is the guard-free 2.0 * x + 0.0
    built = _sources(monkeypatch)
    _generate_step(constant_theta_f(1.0, 1.0), parse(_HAMILTONIANS[0]), "rk4")
    lines, = built
    source = "\n".join(lines)
    assert source.count(" * ") == 41
    assert source.count("!= 0.0") == 0


# --- the lean sweep -------------------------------------------------------------


def _same(a: float, b: float) -> bool:
    # bit equality; NaN payloads are not compared
    if a != a and b != b:
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.5, 2.0),
    st.lists(st.sampled_from([0.3, 0.1, 0.01, 0.001, 1e-4]), min_size=1, max_size=3),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    st.sampled_from(_HAMILTONIANS),
    st.sampled_from(["rk4", "midpoint"]),
)
def test_sweep_drifts_equal_integrate_drifts(theta, epsilons, x0, h, method):
    # 301 stored states span two blocks of the row pass; a flow that fails
    # fails the sweep with integrate's error, and a flow that integrate
    # truncates fails it with the sweep's own
    dt, t_end = 0.01, 3.0
    want = []
    try:
        for eps in epsilons:
            structure = constant_theta_f(theta, (1.0 - eps) / theta)
            traj = integrate(FlowProblem(structure, parse(h), x0, dt, t_end, method))
            if traj.truncated:
                raise IntegrationError(
                    f"sweep flow at epsilon {eps} left the finite range after "
                    f"{len(traj.states) - 1} steps"
                )
            want.append([traj.monitor_drift(f"c_{m}")[0] for m in (1, 2)])
    except (*EVALUATION_ERRORS, IntegrationError) as err:
        with pytest.raises(type(err)) as raised:
            epsilon_sweep(theta, h, x0, epsilons, dt=dt, t_end=t_end, method=method)
        assert str(raised.value) == str(err)
        return
    sweep = epsilon_sweep(theta, h, x0, epsilons, dt=dt, t_end=t_end, method=method)
    assert len(sweep.rows) == len(epsilons)
    for eps, row, drifts in zip(epsilons, sweep.rows, want):
        assert row["epsilon"] == eps
        assert _same(row["c_1_drift"], drifts[0]) and _same(row["c_2_drift"], drifts[1])
        assert _same(row["max_drift"], max(drifts))


def test_sweep_row_holds_only_the_combinations(monkeypatch):
    calls = []
    row_pass = dynamics._row_pass

    def spy(structure, exprs):
        calls.append((structure, list(exprs)))
        return row_pass(structure, exprs)

    monkeypatch.setattr(dynamics, "_row_pass", spy)
    h, x0 = parse(_HAMILTONIANS[0]), [1.0, 0.3, -0.2, -0.8]
    epsilon_sweep(1.0, h, x0, [0.1, 0.01], dt=0.01, t_end=1.0)
    assert len(calls) == 2
    for structure, exprs in calls:
        assert exprs == list(constant_combination_expressions(structure).values())
        assert h not in exprs
    # integrate's row holds the Hamiltonian, the monitors and every entry
    calls.clear()
    structure = constant_theta_f(1.0, 0.9)
    integrate(FlowProblem(structure, h, x0, 0.01, 1.0))
    (_, exprs), = calls
    assert exprs[0] == h and exprs[-len(structure.entries):] == list(structure.entries.values())


@pytest.mark.parametrize("epsilons", [[0.3], [0.3, 0.3]])
def test_a_sweep_without_two_distinct_epsilons_has_a_nan_slope(epsilons):
    # np.polyfit warns on a single abscissa; the slope is NaN without a fit
    h, x0 = parse(_HAMILTONIANS[0]), [1.0, 0.3, -0.2, -0.8]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = epsilon_sweep(1.0, h, x0, epsilons, dt=0.01, t_end=1.0)
    assert len(sweep.rows) == len(epsilons) and sweep.rows[0]["max_drift"] > 0.0
    assert math.isnan(sweep.fitted_slope)


@pytest.mark.parametrize("limit", [0.0, -0.1])
def test_a_sweep_with_an_epsilon_not_above_zero_has_a_nan_slope(limit, capfd):
    # the log of such an epsilon is not finite, and a fit through it fails
    # inside LAPACK; the slope is NaN without a fit, and the rows stand
    h, x0 = parse(_HAMILTONIANS[0]), [1.0, 0.3, -0.2, -0.8]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = epsilon_sweep(1.0, h, x0, [limit, 0.1], dt=0.01, t_end=1.0)
        (want,) = epsilon_sweep(1.0, h, x0, [0.1], dt=0.01, t_end=1.0).rows
    assert math.isnan(sweep.fitted_slope)
    assert [row["epsilon"] for row in sweep.rows] == [limit, 0.1]
    assert sweep.rows[0]["max_drift"] > 0.0
    assert sweep.rows[1].keys() == want.keys()
    assert all(_same(sweep.rows[1][key], want[key]) for key in want)
    assert capfd.readouterr().err == ""


# --- a parser that runs out of stack ------------------------------------------------


def _run_hamiltonian(tmp_path, capsys, hamiltonian):
    doc = json.loads((FIXTURES / "integrate_canonical_oscillator.json").read_text("utf-8"))
    doc["hamiltonian"] = hamiltonian
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["integrate", "--config", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("depth", [200, 3000])
def test_parentheses_beyond_the_parser_are_not_called_deep(tmp_path, capsys, depth):
    # the tree is three levels deep, far inside MAX_DEPTH; it is the
    # recursive parser that runs out of stack
    code, err = _run_hamiltonian(tmp_path, capsys, "(" * depth + "q1" + ")" * depth + " + p1^2")
    assert code == EXIT_CONFIG
    assert err.startswith(
        "config error: $.hamiltonian: expression nests parentheses or calls too deeply to parse"
    ), err
    assert "levels deep" not in err and "Traceback" not in err
