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
from noncanon.cli import EXIT_CONFIG, MAX_DEPTH, main
from noncanon.dynamics import (
    FlowProblem,
    IntegrationError,
    _generate_step,
    constant_combination_expressions,
    integrate,
)
from noncanon.expressions import EVALUATION_ERRORS, _Codegen, _depth, compile, parse
from noncanon.reduction import epsilon_sweep
from test_flow_loop import assert_matches_reference

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
    # since inside a stepping loop the partial of each x^2 is the
    # guard-free, signless 2.0 * x
    built = _sources(monkeypatch)
    _generate_step(constant_theta_f(1.0, 1.0), parse(_HAMILTONIANS[0]), "rk4")
    lines, = built
    source = "\n".join(lines)
    assert source.count(" * ") == 41
    assert source.count("!= 0.0") == 0


# --- the folded loop ------------------------------------------------------------

# a local of a loop line, not a quoted parameter name
_LOCAL = re.compile(r"(?<!')\bt\d+\b")


def _loops(monkeypatch) -> list[str]:
    """Every stepping loop's source passed to ``_Codegen.define`` from now
    on, folded as it is compiled."""
    loops = []
    define = _Codegen.define

    def spy(self, source):
        if "while True:" in source:
            loops.append(source)
        return define(self, source)

    monkeypatch.setattr(_Codegen, "define", spy)
    return loops


def _body(source: str) -> list[tuple[str, str]]:
    """``(local, text)`` of each line of the loop's body, from ``while
    True:`` to the step count."""
    body = source.split("while True:\n")[1].split("k += 1\n")[0]
    lines = [line.strip().partition(" = ") for line in body.splitlines()]
    return [(target, text) for target, _, text in lines if _LOCAL.fullmatch(target)]


def _single_use(source: str) -> dict[str, bool]:
    """Each body local that the source reads exactly once, and whether
    writing it into its reader would nest that line deeper than
    ``_FOLD_NESTING``."""
    body = _body(source)
    texts = dict(body)
    named = _LOCAL.findall(source)  # each local once where it is assigned
    once = {local for local in texts if named.count(local) == 2}
    stopped = {}
    for target, text in body:
        for local in once.intersection(_LOCAL.findall(text)):
            folded = re.sub(rf"\b{local}\b", lambda _: f"({texts[local]})", text)
            stopped[local] = dynamics._nesting(folded) > dynamics._FOLD_NESTING
    return stopped


def test_the_sweep_loop_reads_no_body_local_once(tmp_path, monkeypatch):
    loops = _loops(monkeypatch)
    config = str(FIXTURES / "sweep_epsilon.json")
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "out")]) == 0
    (loop,) = set(loops)
    assert _body(loop) and not any(" if " in text for _, text in _body(loop))
    assert _single_use(loop) == {}
    # the fold keeps the signless partials and the accumulators' 0.0
    assert "((2.0) * x0) / (2.0)" in loop and "(0.0 + " in loop


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
def test_the_fold_stops_at_its_nesting_bound(monkeypatch, method):
    # a chain of 0*q1 terms MAX_DEPTH deep: each partial of the chain is read
    # once, and folding them all would nest past CPython's 200 parentheses
    h = "(p1^2 + q1^2)/2" + " + 0*q1" * (MAX_DEPTH - 4)
    assert _depth(parse(h)) == MAX_DEPTH
    loops = _loops(monkeypatch)
    assert_matches_reference(FlowProblem(canonical(1), h, [1.0, 0.5], 0.01, 0.05, method))
    (loop,) = loops
    stopped = _single_use(loop)
    assert stopped and all(stopped.values())
    assert max(dynamics._nesting(text) for _, text in _body(loop)) <= dynamics._FOLD_NESTING


def test_a_line_that_can_raise_is_not_folded_into_a_branch(monkeypatch):
    # exp's partial reads exp's value only where the partial of log(q1),
    # 1/q1, is not zero.  Folded there, the log would not run at q1 = -inf,
    # where 1/q1 is -0.0: the second stage would not raise, and the step
    # would go on where the tree walker stops at the log
    loops = _loops(monkeypatch)
    h = "exp(log(q1)) + p1^2/2"
    error, step = assert_matches_reference(FlowProblem(canonical(1), h, [1.0, -1e308], 10.0, 20.0))
    assert str(error) == "log of non-positive value in 'log(q1)'" and step == 1
    (loop,) = loops
    assert re.search(r"^ +t\d+ = _exp\(\(_log\(x0\)\)\)$", loop, re.M), loop


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
