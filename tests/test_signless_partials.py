"""A stepping loop's power partials without the 0.0 that signs their zeros.

Inside a stepping loop (``dynamics._step_source``) the partial of ``x^c``
is written ``c * x^(c-1)``, not ``c * x^(c-1) + 0.0``, and a chain-rule
partial drops its leading ``0.0 + `` but keeps its ``!= 0.0`` tests.  Every
partial and every entry value reaches a stage's velocity only as
``0.0 + v*g`` or ``0.0 - v*g`` and then as ``acc + v*g`` or ``acc - v*g``:
``0.0 + y`` and ``0.0 - y`` are never -0.0, and ``acc +- y`` is -0.0 only
where ``acc`` is, so no zero sign of a partial reaches the state.  Each
stored state must equal the tree walker's, one step at a time, by its
bytes, signed zeros included, from states whose products underflow to
signed zeros; and the loop keeps its accumulators' ``0.0 + `` and
``0.0 - ``."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon import expressions
from noncanon.brackets import canonical, constant_theta_f
from noncanon.dynamics import FlowProblem
from noncanon.expressions import compile, parse
from test_flow_loop import assert_matches_reference

HAMILTONIANS = ["q1^2 + p1^2", "-q1^3/3 + p1^4/4", "(q1 - p1)^2 + q1^5", "sin(q1)^2 + p1^2/2"]
# a product of two components at +-1e-160 underflows to a signed zero
COMPONENTS = [s * v for v in (0.0, 5e-324, 1e-160, 1.5) for s in (1.0, -1.0)]
# canonical(1), and theta and f bound as constants other than 1.0
STRUCTURES = {
    "canonical-1": canonical(1),
    **{f"theta-f-{c!r}": constant_theta_f(c, c) for c in (-0.0, 0.0, -2.5)},
}
# an emitted line that adds 0.0 to a power's partial, or 0.0 to a chain-rule
# partial
_SIGNED = re.compile(r"^t\d+ = (\(\d+\.0\) \* .+ \+ 0\.0|0\.0 \+ \(\d+\.0\) \* .+ if .+)$", re.M)


def _defined(monkeypatch) -> tuple[list[str], list[str]]:
    """Every source ``_Codegen.define`` compiles from now on, and the
    emitted lines it was built from, one line per partial."""
    sources, lines = [], []
    define = expressions._Codegen.define

    def spy(self, source):
        sources.append(source)
        lines.append("\n".join(self.lines))
        return define(self, source)

    monkeypatch.setattr(expressions._Codegen, "define", spy)
    return sources, lines


def test_outside_a_loop_both_partials_keep_their_zero(monkeypatch):
    # compile keeps the 0.0 of both forms, since there a partial is a result
    _, lines = _defined(monkeypatch)
    compile(parse("q1^2 + (2*q1)^3"), ("q1",))
    assert len(_SIGNED.findall(lines[0])) == 2, lines[0]


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("h", HAMILTONIANS)
def test_signless_partials_keep_the_tree_walkers_bits(monkeypatch, h, name, method):
    structure = STRUCTURES[name]
    sources, lines = _defined(monkeypatch)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(COMPONENTS), min_size=structure.dim, max_size=structure.dim))
    def check(x0):
        assert_matches_reference(FlowProblem(structure, h, x0, 0.1, 0.4, method))

    check()
    loop = sources[0]
    assert set(sources) == {loop}
    assert not _SIGNED.search(lines[0]), lines[0]
    assert "0.0 + " in loop and "0.0 - " in loop
    if h.startswith("(q1 - p1)^2"):
        # the chain-rule partial keeps its zero tests, which guard 0 * inf
        assert " != 0.0 and " in loop
