"""Tables that were kept in two copies now have one: monitor labels come
from ``entry_label``, ``general_planar`` reads ``_PLANAR_ENTRIES``, one
kind branch gives a reduction condition's report key and value, the
``custom-fg`` filters are the linear ones, and ``run`` makes the one
"needs a structure" check.  Each must give what its former copy gave
(kept below as the reference)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon.brackets import (
    DELTA_KINDS,
    PoissonStructure,
    canonical,
    constant_theta_f,
    custom,
    general_planar,
    theta_f_field,
)
from noncanon.cli import EXIT_CONFIG, main
from noncanon.dynamics import constant_combination_expressions, default_monitors
from noncanon.expressions import Const, as_expression
from noncanon.hodograph import default_filters
from noncanon.reduction import _point_condition


def reference_default_monitors(structure):
    monitors = {}
    n = structure.n
    for (a, b), expr in sorted(structure.entries.items()):
        if a < n and b < n:
            monitors[f"theta_{a + 1}{b + 1}"] = expr
        elif a >= n and b >= n:
            monitors[f"f_{a - n + 1}{b - n + 1}"] = expr
        elif structure.kind == "general-planar":
            monitors[f"g_{a + 1}{b - n + 1}"] = expr
    monitors.update(constant_combination_expressions(structure))
    return monitors


def reference_general_planar(theta, f, g11, g12, g21, g22, parameters=None):
    entries = {
        (0, 1): as_expression(theta),
        (2, 3): as_expression(f),
        (0, 2): as_expression(g11),
        (0, 3): as_expression(g12),
        (1, 2): as_expression(g21),
        (1, 3): as_expression(g22),
    }
    entries = {k: e for k, e in entries.items() if e != Const(0.0)}
    return PoissonStructure(2, "general-planar", entries, dict(parameters or {}))


def reference_condition_key(structure):
    return (
        "inverse_pairing"
        if structure.kind in DELTA_KINDS
        else "planar_determinant_condition"
        if structure.kind == "general-planar"
        else "determinant"
    )


def reference_condition(structure, report):
    if structure.kind in DELTA_KINDS:
        return report.inverse_pairing_residual
    if structure.kind == "general-planar":
        return abs(report.planar_condition)
    return abs(report.det)


SOURCES = ["0", "q1", "1 + p2", "q2*p1", 0.0, 2.5, "0.0"]
six_sources = st.tuples(*[st.sampled_from(SOURCES)] * 6)


@st.composite
def structures(draw):
    kind = draw(st.sampled_from(["custom", "general-planar", "theta-f-field", "other"]))
    if kind == "general-planar":
        return general_planar(*draw(six_sources))
    n = draw(st.integers(1, 3))
    if kind == "theta-f-field" and n >= 2:
        return theta_f_field(n, {(1, 2): "q1*p2"}, {(1, n): "1 + q2^2"})
    if kind == "other":
        return draw(st.sampled_from([canonical(n), constant_theta_f(0.5, 1.5)]))
    pairs = [(a, b) for a in range(1, 2 * n + 1) for b in range(a + 1, 2 * n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    sources = ["q1", "1 + p1", "q1*p1", 0.5]
    return custom(n, {pair: draw(st.sampled_from(sources)) for pair in chosen})


@settings(max_examples=300, deadline=None)
@given(structures())
def test_default_monitors_match_the_written_out_labels(structure):
    got = default_monitors(structure)
    want = reference_default_monitors(structure)
    assert list(got.items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(six_sources)
def test_general_planar_entries_keep_their_order(sources):
    got = general_planar(*sources, parameters={"alpha": 1.0})
    want = reference_general_planar(*sources, parameters={"alpha": 1.0})
    assert list(got.entries.items()) == list(want.entries.items())
    assert got.parameters == want.parameters


@settings(max_examples=100, deadline=None)
@given(structures(), st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
def test_condition_key_and_value_come_from_one_branch(structure, x):
    report = structure.degeneracy(np.array(x[: structure.dim]))
    key, value = _point_condition(structure, report)
    assert key == reference_condition_key(structure)
    want = reference_condition(structure, report)
    assert value == want or (np.isnan(value) and np.isnan(want))


@pytest.mark.parametrize("band", [1e-3, 0.05])
def test_custom_fg_filters_are_the_linear_ones(band):
    def fields(kind):
        return [(f.expr, f.min_abs, f.minimum) for f in default_filters(kind, band=band)]

    assert fields("custom-fg") == fields("linear") == fields("limit")


@pytest.mark.parametrize("command", ["check-jacobi", "integrate", "reduce"])
def test_structure_commands_need_a_structure(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"version": 1, "hamiltonian": "p1^2/2"}), encoding="utf-8")
    code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert err == f"config error: $.structure: {command} needs a structure\n"
    assert out == ""
