"""Checking a cloud in blocks gives the numbers of checking it one point at
a time, bit for bit (any NaN equals any other NaN).

``PoissonStructure.jacobi_report``, ``theta_matrix`` and ``degeneracy_of``
take one point or a block (a stack), and a block of one is a point.  For
the structure of every ``check_jacobi_*`` and ``reduce_*`` fixture, plus
the kinds whose identities no fixture reaches (general-planar, n = 3,
custom), a block must give each point's report, and a block with a
raising point must raise the error of the first raising point.  The
commands fold block after block: their artifacts must not depend on the
block size."""

import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon import cli, reduction
from noncanon.brackets import (
    DELTA_KINDS,
    StructureError,
    custom,
    entry_label,
    general_planar,
    planar_entries,
    theta_f_field,
)
from noncanon.cli import load_config, run
from noncanon.expressions import EVALUATION_ERRORS, free_names

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = sorted(
    p.name for pattern in ("check_jacobi_*.json", "reduce_*.json") for p in FIXTURES.glob(pattern)
)

STRUCTURES = {name: load_config(FIXTURES / name).structure for name in FIXTURE_NAMES}
STRUCTURES.update(
    {
        "general-planar": general_planar(
            "1/(-(p2/q1) - q1/2.2)", "-(p2/q1) + q1/2.2", "1", "0", "0", "1"
        ),
        "general-planar-six-functions": general_planar(
            "1 + q1^2", "1/(1 + q1^2)", "1 + q2^2", "exp(p1)", "log(p2)", "q1*p1"
        ),
        "theta-f-field-3": theta_f_field(
            3, {(1, 2): "0.8*q3", (1, 3): "sqrt(q1)"}, {(2, 3): "0.4*sin(p1)"}
        ),
        "custom": custom(2, {(1, 2): "q2*p1", (3, 4): "1/q1", (1, 3): "2", (2, 4): "p2^0.5"}),
    }
)

# zeros of both signs and values whose products overflow reach the domain
# errors, the infinities and the NaNs
_coordinate = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e155, -1e200, 5e-324]),
)


def _bits(value):
    values = np.asarray(value, dtype=float).ravel().tolist()
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


def _outcome(fn):
    """``("ok", result)`` or the type and message of the error raised."""
    try:
        with np.errstate(all="ignore"):
            return "ok", fn()
    except (*EVALUATION_ERRORS, StructureError) as err:
        return type(err), str(err)


def _report_bits(jacobi, degeneracy):
    """Every value of a Jacobi and degeneracy report pair as bytes, one
    list per field (``None`` for a measure the kind does not have)."""
    fields = {
        "generic_max": jacobi.generic_max,
        "theta": jacobi.theta,
        "det": degeneracy.det,
        "pairing": degeneracy.inverse_pairing_residual,
        "planar": degeneracy.planar_condition,
        **{f"identity {k}": v for k, v in jacobi.identities.items()},
    }
    return {k: None if v is None else _bits(v) for k, v in fields.items()}


def _joined(reports):
    """One-point report bits as a block's: each field's lists joined."""
    return {
        k: None if reports[0][k] is None else sum((r[k] for r in reports), [])
        for k in reports[0]
    }


def _blocks(dim):
    return st.lists(
        st.lists(_coordinate, min_size=dim, max_size=dim), min_size=1, max_size=8
    ).map(np.array)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_reports_equal_point_reports(name, data):
    s = STRUCTURES[name]
    block = data.draw(_blocks(s.dim))

    def one_at_a_time():
        return _joined([_report_bits(s.jacobi_report(x), s.degeneracy(x)) for x in block])

    def at_once():
        rep = s.jacobi_report(block)
        return _report_bits(rep, s.degeneracy_of(rep.theta))

    want = _outcome(one_at_a_time)
    assert _outcome(at_once) == want
    if want[0] == "ok":
        # the stack of the matrix pass is the stack of the gradient pass
        assert _outcome(lambda: _bits(s.theta_matrix(block))) == ("ok", want[1]["theta"])


@pytest.mark.parametrize("name", ["reduce_singular_field.json", "theta-f-field-3"])
def test_block_raises_the_first_raising_points_error(name):
    s = STRUCTURES[name]
    good = np.full(s.dim, 0.7)
    sqrt_fails = good.copy()
    sqrt_fails[0] = -0.5  # sqrt(q1) of n = 3
    quotient_fails = good.copy()
    quotient_fails[s.dim - 1] = 0.0  # -q1/p2 of n = 2
    not_finite = good.copy()
    not_finite[1] = math.inf
    for bad in (sqrt_fails, quotient_fails, not_finite):
        block = np.array([good, good, bad, not_finite, good])
        want = next(
            (o for o in (_outcome(lambda x=x: s.jacobi_report(x)) for x in block) if o[0] != "ok"),
            None,
        )
        if want is None:
            continue
        assert _outcome(lambda: s.jacobi_report(block)) == want
        assert _outcome(lambda: s.theta_matrix(block))[0] is want[0]


# --- the commands' folds over blocks ---------------------------------------------


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("check_jacobi_*.json")))
def test_check_jacobi_artifacts_do_not_depend_on_the_block_size(tmp_path, monkeypatch, name):
    cfg = load_config(FIXTURES / name)
    run("check-jacobi", cfg, tmp_path / "whole")
    for size in (1, 7):
        monkeypatch.setattr(cli, "_DET_BLOCK", size)
        run("check-jacobi", cfg, tmp_path / f"block{size}")
        assert _artifacts(tmp_path / f"block{size}") == _artifacts(tmp_path / "whole")


def _reference_check(s, points, tol):
    """The former point-by-point loop of ``check_reduction``: the condition
    maxima, the admissible points and the spreads on them."""
    condition_max = 0.0
    det_max = 0.0
    admissible, thetas = [], []
    for x in points:
        m = s.theta_matrix(x)
        report = s.degeneracy_of(m)
        key, c = reduction._point_condition(s, report)
        condition_max = max(condition_max, c)
        det_max = max(det_max, abs(report.det))
        if c <= tol:
            admissible.append(x)
            thetas.append(m)
    residuals = {key: condition_max, "det_max": det_max}
    if s.kind == "general-planar" and len(s.nonconstant_entry_names()) > 3:
        ratio_max = 0.0
        for m in thetas:
            theta, fv, g11, _, _, g22 = planar_entries(m)
            ratio_max = max(ratio_max, abs(theta * fv / (g11 * g22) - 1.0))
        residuals["product_ratio_minus_one"] = ratio_max
    spreads = {}
    if thetas and (s.kind != "general-planar" or len(s.nonconstant_entry_names()) <= 3):
        names = set(s.variable_names)
        for (a, b), expr in sorted(s.entries.items()):
            varying = thetas if free_names(expr) & names else thetas[:1]
            values = [m[a, b] for m in varying]
            spreads[entry_label(s.n, a, b)] = float(max(values) - min(values))
    return residuals, len(admissible), spreads


def _check(s, points, tol):
    report = reduction.check_reduction(s, points, tol=tol)
    return report.condition_residuals, report.admissible_count, report.entry_spreads


def _degenerate_points(s, count, rng):
    """Random points, every third one on the singular field's degenerate
    locus, so that part of its cloud is admissible."""
    points = rng.uniform(0.3, 1.8, (count, s.dim))
    if s.kind in DELTA_KINDS and s.n == 2:
        # theta*f = (-q1/p2)*(-p2/q1) = 1 for the singular field
        points[::3, 3] = points[::3, 0]
    return points


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("size", [1, 3, 256])
def test_check_reduction_equals_the_point_loop(monkeypatch, name, size):
    s = STRUCTURES[name]
    points = _degenerate_points(s, 40, np.random.default_rng(len(name)))
    monkeypatch.setattr(reduction, "_DET_BLOCK", size)
    for tol in (1e-12, 0.5, math.inf):
        got = _outcome(lambda: _check(s, points, tol))
        want = _outcome(lambda: _reference_check(s, points, tol))
        assert got[0] == want[0]
        if got[0] == "ok":
            residuals, count, spreads = got[1]
            ref_residuals, ref_count, ref_spreads = want[1]
            assert {k: _bits(v) for k, v in residuals.items()} == {
                k: _bits(v) for k, v in ref_residuals.items()
            }
            assert count == ref_count
            assert {k: _bits(v) for k, v in spreads.items()} == {
                k: _bits(v) for k, v in ref_spreads.items()
            }
        else:
            assert got == want


def test_zero_product_in_the_ratio_still_raises(monkeypatch):
    s = general_planar("1 + q1^2", "1/(1 + q1^2)", "q2", "exp(p1)", "log(p2)", "q1*p1")
    points = np.array([[0.5, 0.7, 0.2, 1.1], [0.5, 0.0, 0.2, 1.1]])
    monkeypatch.setattr(reduction, "_DET_BLOCK", 1)
    with pytest.raises(ZeroDivisionError):
        reduction.check_reduction(s, points, tol=math.inf)
