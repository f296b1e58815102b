"""One emission of each flow's stepping loop per run.

While ``cli.run`` runs a command, ``dynamics._generate_step`` keeps each
stepping loop it emits in the run's table (``expressions._SOURCE_TABLE``),
keyed by what the loop's source depends on: the variable names, the
method, the Hamiltonian and every entry that is not a bound constant, as
trees and by their bits, and which entries are bound.  A flow whose key is
there takes the source from the table and runs it in a namespace of its
own, with its own parameters and bound constants.  Flows whose sources
differ must not share a loop, and every flow must equal the tree walker
bit for bit.  The runs here go through ``main``: the sweep's command first
runs a pair of flows inside the run, then the sweep itself."""

from pathlib import Path

import pytest

from noncanon import cli, dynamics
from noncanon.brackets import canonical, constant_theta_f
from noncanon.cli import EXIT_OK, main
from noncanon.dynamics import FlowProblem
from noncanon.expressions import Const, Name, parse
from test_flow_loop import assert_matches_reference

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SWEEP = ["sweep", "--config", str(FIXTURES / "sweep_epsilon.json")]
H = "exp(q1/3) + sin(p2) + q2^2/2 + p1^4/4"
X0 = [0.4, -0.3, 0.2, 0.5]


def _spies(monkeypatch) -> tuple[list, list]:
    """The Hamiltonian and entries of every loop emitted from now on, and
    every loop built."""
    emitted, loops = [], []
    step_source, generate_step = dynamics._step_source, dynamics._generate_step

    def emit(names, entries, bound, hamiltonian, method):
        emitted.append((hamiltonian, entries))
        return step_source(names, entries, bound, hamiltonian, method)

    def generate(*args):
        loops.append(generate_step(*args))
        return loops[-1]

    monkeypatch.setattr(dynamics, "_step_source", emit)
    monkeypatch.setattr(dynamics, "_generate_step", generate)
    return emitted, loops


def test_the_sweep_fixture_emits_one_loop_for_its_four_flows(tmp_path, monkeypatch):
    emitted, loops = _spies(monkeypatch)
    assert main([*SWEEP, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(emitted) == 1
    # four functions, each over its own f
    assert len(loops) == len({id(loop.__globals__) for loop in loops}) == 4
    constants = {v for loop in loops for v in loop.__globals__.values() if isinstance(v, float)}
    assert constants == {1.0 - eps for eps in (0.1, 0.01, 0.001, 0.0001)}


def _signed_zero(zero: float) -> FlowProblem:
    # Const(0.0) == Const(-0.0), but the two emit (0.0) and (-0.0)
    h = parse(H) + Const(zero) * Name("q2")
    return FlowProblem(constant_theta_f(1.0, 0.9), h, X0, 0.01, 1.0)


def _theta_f(theta: float, f: float, method: str = "rk4") -> FlowProblem:
    return FlowProblem(constant_theta_f(theta, f), H, X0, 0.01, 1.0, method)


def _omega(omega: float) -> FlowProblem:
    h = "omega*(q1^2 + p1^2)/2 + sin(q2)*p2^2"
    return FlowProblem(canonical(2, {"omega": omega}), h, X0, 0.01, 1.0)


# name: (the two flows, how many loops they emit)
PAIRS = {
    "H with 0.0 and with -0.0": ((_signed_zero(0.0), _signed_zero(-0.0)), 2),
    "f exactly 1.0 and 0.9": ((_theta_f(1.0, 1.0), _theta_f(1.0, 0.9)), 2),
    "theta 1.0 and 1.37": ((_theta_f(1.0, 0.9), _theta_f(1.37, 0.9)), 2),
    "rk4 and midpoint": ((_theta_f(1.0, 0.9), _theta_f(1.0, 0.9, "midpoint")), 2),
    # one emitted source, but two loops, each a function over its own
    # parameters or bound constants: parameters load at run time
    "two parameter values": ((_omega(1.3), _omega(0.7)), 1),
    "f 0.0 and -0.0": ((_theta_f(1.37, 0.0), _theta_f(1.37, -0.0)), 1),
    "f 0.9 and 0.8": ((_theta_f(1.37, 0.9), _theta_f(1.37, 0.8)), 1),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_flows_share_a_loop_only_where_their_sources_are_equal(tmp_path, monkeypatch, name):
    problems, count = PAIRS[name]
    emitted, loops = _spies(monkeypatch)
    sweep = cli._COMMAND_TABLE["sweep"]
    pair = []

    def command(cfg, rng):
        for problem in problems:
            assert_matches_reference(problem)
        pair.extend(loops)
        assert len(emitted) == count
        return sweep(cfg, rng)

    monkeypatch.setitem(cli._COMMAND_TABLE, "sweep", command)
    assert main([*SWEEP, "--out", str(tmp_path / "out")]) == EXIT_OK
    # then the sweep's four flows, with a Hamiltonian of their own, emitted
    # one loop more in the same run
    assert len(emitted) == count + 1 and len(loops) == 6
    first, second = (loop.__globals__ for loop in pair)
    assert first is not second
    assert first["env"] is problems[0].structure.parameters
    assert second["env"] is problems[1].structure.parameters
