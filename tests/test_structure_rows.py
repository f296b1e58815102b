"""A structure evaluates its stored entries with the flows' row code.

``PoissonStructure`` builds at most two generated passes over blocks of
points, the entry values and the entry values with their partials
(``expressions._row_pass``), and runs one of them once per block, a point
being a block of one.  A raising point is redone by the tree walker
(``expressions._reference_row``), value before partials, entry by entry, so
matrices, gradients and errors are those of evaluating each entry on its
own with ``compile`` (whose fallback is the tree walker), bit for bit.  A
structure with no stored entries gives zero matrices."""

import builtins
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon import brackets, cli, dynamics, expressions, reduction
from noncanon.brackets import (
    StructureError,
    constant_theta_f,
    custom,
    general_planar,
    theta_f_field,
)
from noncanon.cli import load_config, run
from noncanon.expressions import (
    EVALUATION_ERRORS,
    DomainError,
    _generate_row,
    _reference_row,
    _row_pass,
    compile,
    parse,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _structures():
    return {
        "constant-theta-f": constant_theta_f(0.7, -0.3),
        "theta-f-field": theta_f_field(2, {(1, 2): "-q1/p2"}, {(1, 2): "-p2/q1"}),
        "theta-f-field-3": theta_f_field(
            3, {(1, 2): "0.8*q3", (1, 3): "sqrt(q1)"}, {(2, 3): "0.4*sin(p1)"}
        ),
        "general-planar": general_planar(
            "1 + q1^2", "1/(1 + q1^2)", "1 + q2^2", "exp(p1)", "log(p2)", "q1*p1"
        ),
        "custom": custom(
            2, {(1, 2): "a*q2*p1", (3, 4): "1/q1", (1, 3): "2", (2, 4): "p2^0.5"}, {"a": 1.5}
        ),
        "parameter-powers": theta_f_field(
            2, {(1, 2): "q1^b"}, {(1, 2): "exp(p2) - c/p1"}, {"b": 3, "c": 2.0}
        ),
    }


STRUCTURES = _structures()

_coordinate = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e155, -1e200, 5e-324]),
)


def _bits(values):
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in flat]


def _outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):
            return "ok", fn(*args)
    except (*EVALUATION_ERRORS, StructureError) as err:
        return type(err), str(err)


def _per_entry(structure, x, variables):
    """Every entry's value and partials at one point, each entry run on its
    own by ``compile`` (the tree walker where its code raises)."""
    env = structure.env_at(x)
    row = []
    for expr in structure.entries.values():
        value, partials = compile(expr, variables)(env)
        row += [value, *partials]
    return row


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(STRUCTURES)),
    st.booleans(),
    st.lists(_coordinate, min_size=6, max_size=6),
)
def test_row_and_reference_row_equal_per_entry_compile(name, partials, coordinates):
    structure = STRUCTURES[name]
    x = coordinates[: structure.dim]
    variables = structure.variable_names if partials else ()
    exprs = list(structure.entries.values())
    want = _outcome(_per_entry, structure, x, variables)
    reference = _outcome(_reference_row, structure, exprs, x, variables)
    if want[0] == "ok":
        assert reference[0] == "ok" and _bits(reference[1]) == _bits(want[1])
    else:
        # the first error is the one the per-entry fallback meets first
        assert reference == want
    generated = _outcome(_generate_row(structure, exprs, variables), x)
    if generated[0] == "ok":
        assert _bits(generated[1]) == _bits(want[1])
    else:
        assert want[0] != "ok"


def _per_entry_stacks(structure, block, variables):
    """The matrix stack and, with ``variables``, the gradient stack over a
    block, point by point from :func:`_per_entry`."""
    dim = structure.dim
    m = np.zeros((len(block), dim, dim))
    grads = np.zeros((len(block), dim, dim, len(variables)))
    for k, x in enumerate(block):
        row = iter(_per_entry(structure, x, variables))
        for a, b in structure.entries:
            m[k, a, b] = next(row)
            m[k, b, a] = -m[k, a, b]
            grads[k, a, b] = [next(row) for _ in variables]
            grads[k, b, a] = -grads[k, a, b]
    return (m, grads) if variables else m


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(STRUCTURES)),
    st.lists(st.lists(_coordinate, min_size=6, max_size=6), min_size=1, max_size=6),
)
def test_block_stacks_equal_per_entry_compile(name, points):
    structure = STRUCTURES[name]
    block = np.array([p[: structure.dim] for p in points])
    want = _outcome(_per_entry_stacks, structure, block, ())
    got = _outcome(structure.theta_matrix, block)
    if want[0] == "ok":
        assert got[0] == "ok" and _bits(got[1]) == _bits(want[1])
    else:
        assert got == want
    want = _outcome(_per_entry_stacks, structure, block, structure.variable_names)
    got = _outcome(structure._entry_gradients, block)
    if want[0] == "ok":
        assert got[0] == "ok"
        assert list(map(_bits, got[1])) == list(map(_bits, want[1]))
    else:
        assert got == want


def test_a_raising_row_is_redone_once_per_point_by_the_tree_walker(monkeypatch):
    structure = theta_f_field(2, {(1, 2): "-q1/p2"}, {(1, 2): "-p2/q1"})
    calls = []

    def spy(*args):
        calls.append(args)
        return _reference_row(*args)

    monkeypatch.setattr(expressions, "_reference_row", spy)
    block = np.array([[1.0, 0.5, 0.2, 0.8], [1.0, 0.5, 0.2, 0.0], [0.3, 0.1, 0.2, 0.0]])
    with pytest.raises(DomainError, match=r"division by zero in '-q1/p2'"):
        structure.jacobi_report(block)
    # the first two points run the generated row; the second raises and is
    # redone, and the third is never reached
    (args,) = calls
    assert args[2] == block[1].tolist() and args[3] == structure.variable_names


@pytest.mark.parametrize("partials", [False, True])
def test_a_one_entry_pass_takes_the_redone_row(partials):
    # one stored entry's value pass has a row of one atom; at q1 = 1e100,
    # q1^4 overflows in generated code and the tree walker gives inf
    structure = custom(1, {(1, 2): "q1^4"})
    variables = structure.variable_names if partials else ()
    block = np.array([[1e100, 0.0], [1.0, 2.0], [-1e100, 1.0]])
    exprs = structure.entries.values()
    want = [_reference_row(structure, exprs, x, variables) for x in block.tolist()]
    for points in (block, block[0]):
        many, rows = structure._at_points(points, variables)
        assert _bits(rows) == _bits(want if many else want[:1])
    assert _bits(structure.theta_matrix(block[0])) == _bits([[0.0, math.inf], [-math.inf, 0.0]])


def _spy_rows(monkeypatch):
    calls = []

    def spy(structure, exprs, variables=()):
        calls.append((structure, tuple(variables)))
        return _row_pass(structure, exprs, variables)

    monkeypatch.setattr(brackets, "_row_pass", spy)
    return calls


def test_a_structure_builds_one_value_row_and_one_dual_row(monkeypatch):
    calls = _spy_rows(monkeypatch)
    structure = _structures()["theta-f-field-3"]
    rng = np.random.default_rng(3)
    for k in (1, 2, 7, 300):
        block = rng.uniform(0.5, 1.5, (k, structure.dim))
        structure.theta_matrix(block)
        structure.theta_matrix(block[0])
        structure.theta_block(block[-1])
        structure.degeneracy(block[0])
        structure.jacobi_report(block)
        structure.jacobi_report(block[0])
        structure._entry_gradients(block[-1])
    assert calls == [(structure, ()), (structure, structure.variable_names)]


def test_check_jacobi_and_reduce_build_one_row_of_each_kind(monkeypatch, tmp_path):
    calls = _spy_rows(monkeypatch)
    monkeypatch.setattr(cli, "_DET_BLOCK", 7)
    monkeypatch.setattr(reduction, "_DET_BLOCK", 3)
    cfg = load_config(FIXTURES / "check_jacobi_singular_field.json")
    run("check-jacobi", cfg, tmp_path / "jacobi")
    assert calls == [(cfg.structure, cfg.structure.variable_names)]
    calls.clear()
    cfg = load_config(FIXTURES / "reduce_singular_field.json")
    run("reduce", cfg, tmp_path / "reduce")
    assert sorted(variables for _, variables in calls) == [(), cfg.structure.variable_names]
    assert {structure for structure, _ in calls} == {cfg.structure}


@pytest.mark.parametrize(
    "name, sources", [("reduce_constant.json", 3), ("reduce_singular_field.json", 2)]
)
def test_a_reduce_run_compiles_each_source_once(monkeypatch, tmp_path, name, sources):
    # the surface solve's rounds run the structure's value pass, which the
    # reference point's theta block built, so no value row is compiled beside it
    compiled = []
    original = builtins.compile

    def counted(*args, **kwargs):
        compiled.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    run("reduce", load_config(FIXTURES / name), tmp_path / "out")
    assert len(compiled) == len(set(compiled)) == sources


def test_monitor_pass_uses_the_structure_assembly(monkeypatch):
    # det Theta along a flow is taken over the structure's own stacks
    structure = constant_theta_f(0.7, -0.3)
    calls = []
    assemble = type(structure)._antisymmetric

    def spy(self, values):
        calls.append(values.shape)
        return assemble(self, values)

    monkeypatch.setattr(type(structure), "_antisymmetric", spy)
    states = np.random.default_rng(5).uniform(-1.0, 1.0, (600, 4))
    _, min_abs_det = dynamics._monitor_pass(structure, {"H": parse("q1*p1")}, states)
    assert calls == [(256, 4), (256, 4), (88, 4)]
    assert min_abs_det == abs(np.linalg.det(structure.theta_matrix(states[0])))


# --- structures with no stored entries ---------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_a_structure_with_no_entries_gives_zeros(n):
    structure = custom(n, {})
    dim = 2 * n
    x = np.linspace(-1.0, 1.0, dim)
    assert np.array_equal(structure.theta_matrix(x), np.zeros((dim, dim)))
    m, grads = structure._entry_gradients(x)
    assert np.array_equal(m, np.zeros((dim, dim)))
    assert np.array_equal(grads, np.zeros((dim, dim, dim)))
    report = structure.jacobi_report(x)
    assert report.generic_max == 0.0 and report.identities == {}
    assert structure.degeneracy(x).det == 0.0

    block = np.array([x, -x, 2 * x])
    assert np.array_equal(structure.theta_matrix(block), np.zeros((3, dim, dim)))
    m, grads = structure._entry_gradients(block)
    assert np.array_equal(m, np.zeros((3, dim, dim)))
    assert np.array_equal(grads, np.zeros((3, dim, dim, dim)))
    report = structure.jacobi_report(block)
    assert np.array_equal(report.generic_max, np.zeros(3))
    assert np.array_equal(structure.degeneracy_of(report.theta).det, np.zeros(3))
