"""The transport operator pair d/dq_k + f_sk d/dp_s and
d/dp_k - theta_sk d/dq_s is written once (``brackets._total_dq`` and
``_total_dp``) and read from one entry-gradient pass.  The Jacobi transport
identities, the surface total variations, the evolution residuals and the
loglog branch statistics must each give the result of their former code
(kept below as the reference): bit for bit, NaN equal to NaN, except the
evolution residuals, which now take each bracket as one dot product and
agree to 1e-12 relative."""

import json
import math
import struct
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncanon import cli, hodograph
from noncanon.brackets import PoissonStructure, canonical, theta_f_field
from noncanon.dynamics import evolution_residuals
from noncanon.expressions import EVALUATION_ERRORS, Const, Name, as_expression, gradient
from noncanon.reduction import total_variation_residual

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def reference_identities(n, m, grads):
    theta_transport = 0.0
    f_transport = 0.0
    ids = {}
    for i, j in combinations(range(n), 2):
        tgrad = grads[i, j]
        fgrad = grads[n + i, n + j]
        for k in range(n):
            r = tgrad[k] + sum(tgrad[n + s] * m[n + s, n + k] for s in range(n))
            theta_transport = max(theta_transport, abs(r))
            r = fgrad[n + k] - sum(fgrad[s] * m[s, k] for s in range(n))
            f_transport = max(f_transport, abs(r))
    ids["theta_transport"] = theta_transport
    ids["f_transport"] = f_transport
    if n >= 3:
        theta_cyc = 0.0
        f_cyc = 0.0
        for i, j, k in combinations(range(n), 3):
            r = sum(
                grads[a, b][n + c]
                - sum(grads[a, b][s] * m[s, c] for s in range(n))
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
            )
            theta_cyc = max(theta_cyc, abs(r))
            r = sum(
                grads[n + a, n + b][c]
                + sum(grads[n + a, n + b][n + s] * m[n + s, n + c] for s in range(n))
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
            )
            f_cyc = max(f_cyc, abs(r))
        ids["theta_cyclic"] = theta_cyc
        ids["f_cyclic"] = f_cyc
    return ids


def reference_total_variation(structure, x):
    n = structure.n
    keys = [(a, b) for a, b in sorted(structure.entries) if (a < n) == (b < n)]
    try:
        theta, grads = structure._entry_gradients(x)
        partials = [grads[key] for key in keys]
    except EVALUATION_ERRORS:
        theta = structure.theta_matrix(x)
        env = structure.env_at(x)
        names = structure.variable_names
        partials = [gradient(structure.entries[key], names, env) for key in keys]
    tb = theta[:n, :n]
    fb = theta[n:, n:]
    out = {}
    for (a, b), g in zip(keys, partials):
        if a < n:
            for l in range(n):
                r = g[l] + sum(fb[s, l] * g[n + s] for s in range(n))
                out[f"theta_{a+1}{b+1}_dq{l+1}"] = abs(r)
        else:
            for l in range(n):
                r = g[n + l] - sum(tb[s, l] * g[s] for s in range(n))
                out[f"f_{a-n+1}{b-n+1}_dp{l+1}"] = abs(r)
    return out


def reference_evolution(structure, hamiltonian, x):
    h = as_expression(hamiltonian)
    n = structure.n
    env = structure.env_at(x)
    names = structure.variable_names
    grad_h = gradient(h, names, env)
    hq = grad_h[:n]
    hp = grad_h[n:]
    term_max = 0.0
    cache = {}

    def bk(entry_a, entry_b, coord):
        nonlocal term_max
        key = (entry_a, entry_b, coord)
        if key not in cache:
            expr = structure.entry_expression(entry_a, entry_b)
            value = (
                0.0
                if expr == Const(0.0)
                else structure.bracket(expr, Name(names[coord]), x)
            )
            cache[key] = value
            term_max = max(term_max, abs(value))
        return cache[key]

    identities = {}
    for m in range(n):
        for k in range(n):
            r = 0.0
            for s in range(n):
                r -= hp[s] * bk(n + k, n + s, m)
                r += hq[s] * bk(m, s, n + k)
            identities[f"qp_{m + 1}{k + 1}"] = r
    for m in range(n):
        for k in range(m + 1, n):
            r = 0.0
            for s in range(n):
                r -= hp[s] * bk(m, k, n + s)
                r -= hq[s] * (bk(k, s, m) + bk(s, m, k) + bk(m, k, s))
            identities[f"qq_{m + 1}{k + 1}"] = r
            r = 0.0
            for s in range(n):
                r -= hq[s] * bk(n + m, n + k, s)
                r += hp[s] * (
                    bk(n + m, n + k, n + s)
                    + bk(n + k, n + s, n + m)
                    + bk(n + s, n + m, n + k)
                )
            identities[f"pp_{m + 1}{k + 1}"] = r
    return identities, term_max


def reference_branches(points, params):
    branches = {}
    for label in ("+", "-"):
        family = hodograph.build_family("loglog", params, branch=label)
        min_uv = np.inf
        product_residual = 0.0
        for x, y in points:
            u, v = family.evaluate_uv(x, y)
            min_uv = min(min_uv, abs(u - v))
            product_residual = max(
                product_residual,
                abs(u * v - params["u0"] * params["v0"] * np.exp(x / params["alpha"])),
            )
        branches[label] = {
            "min_u_minus_v": float(min_uv),
            "root_product_residual": float(product_residual),
        }
    return branches


def _bits(values: dict) -> dict:
    return {k: struct.pack("<d", float(v)).hex() for k, v in values.items()}


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as err:  # any error must match in type and message
        return type(err).__name__, str(err)
    return _bits(out)


# entries over q1..q3, p1..p3, valid for n = 3 and 4; exp(800*q3) overflows
# to inf for q3 > 0.89, which makes the operators meet inf and NaN, and
# sqrt(q1) raises for q1 < 0 (its partial at q1 = 0)
POOL = [
    "sqrt(q1)",
    "q1*p2",
    "sin(q2) + p3",
    "exp(800*q3)",
    "q1^2 - p1*q3",
    "1.5",
    "p2/(1 + q1^2)",
    "cos(p1*q2)",
    "q3*p3 - q2",
]
FINITE_POOL = [src for src in POOL if "800" not in src and "sqrt" not in src]


@st.composite
def field_structures(draw, pool=POOL, sizes=(3, 4)):
    n = draw(st.sampled_from(sizes))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    theta = draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from(pool)))
    f = draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from(pool)))
    x = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n, max_size=2 * n))
    return theta_f_field(n, theta, f), np.array(x)


@settings(max_examples=300, deadline=None)
@given(field_structures())
def test_jacobi_transport_identities_match_the_former_loops(case):
    structure, x = case
    with np.errstate(all="ignore"):
        try:
            m, grads = structure._entry_gradients(x)
        except EVALUATION_ERRORS:
            return  # no identities at a point outside the domain
        got = structure._delta_kind_identities(x, m, grads)
        want = reference_identities(structure.n, m, grads)
    assert _bits(got) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(field_structures())
def test_total_variations_match_the_former_loop(case):
    structure, x = case
    with np.errstate(all="ignore"):
        got = _outcome(total_variation_residual, structure, x)
        want = _outcome(reference_total_variation, structure, x)
    assert got == want


def test_an_overflowing_entry_reaches_the_operators():
    structure = theta_f_field(3, {(1, 2): "exp(800*q3)"}, {(1, 3): "q1*p2"})
    x = np.array([0.1, 0.2, 1.0, 0.3, 0.4, 0.5])
    with np.errstate(all="ignore"):
        m, grads = structure._entry_gradients(x)
        got = structure._delta_kind_identities(x, m, grads)
        assert _bits(got) == _bits(reference_identities(3, m, grads))
        assert _bits(total_variation_residual(structure, x)) == _bits(
            reference_total_variation(structure, x)
        )
    assert math.isinf(m[0, 1])


def test_one_degree_of_freedom_has_no_pairs():
    report = canonical(1).jacobi_report([0.3, -0.7])
    assert report.identities == {"theta_transport": 0.0, "f_transport": 0.0}


@settings(max_examples=100, deadline=None)
@given(
    field_structures(FINITE_POOL, (3,)),
    st.sampled_from(["q1*p1", "p2^2/2 + sin(q1)", "q3*p1 - p2"]),
)
def test_evolution_residuals_match_the_former_per_term_brackets(case, hamiltonian):
    structure, x = case
    got = evolution_residuals(structure, hamiltonian, x)
    identities, term_max = reference_evolution(structure, hamiltonian, x)
    grad_h = gradient(as_expression(hamiltonian), structure.variable_names, structure.env_at(x))
    scale = (1.0 + term_max) * (1.0 + max(map(abs, grad_h)))
    assert got.identities.keys() == identities.keys()
    for key, want in identities.items():
        assert got.identities[key] == pytest.approx(want, rel=1e-12, abs=1e-12 * scale), key
    assert got.bracket_term_max == pytest.approx(term_max, rel=1e-12, abs=1e-300)


def test_evolution_residuals_take_one_entry_pass_and_no_bracket(monkeypatch):
    structure = theta_f_field(3, {(1, 2): "q1*p2", (2, 3): "sin(q3)"}, {(1, 3): "p1 + q2"})
    passes = []
    original = PoissonStructure._entry_gradients

    def counted(self, x):
        passes.append(x)
        return original(self, x)

    def forbidden(*args, **kwargs):
        raise AssertionError("evolution_residuals called PoissonStructure.bracket")

    monkeypatch.setattr(PoissonStructure, "_entry_gradients", counted)
    monkeypatch.setattr(PoissonStructure, "bracket", forbidden)
    evolution_residuals(structure, "q1*p1 + p3^2", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert len(passes) == 1


LOGLOG_PARAMETERS = [
    {"alpha": 1.0, "u0": 0.3, "v0": 0.2},
    {"alpha": 0.7, "u0": 0.5, "v0": 0.1},
    {"alpha": 2.5, "u0": 0.05, "v0": 0.9},
]


@pytest.mark.parametrize("branch", ["+", "-"])
@pytest.mark.parametrize("params", LOGLOG_PARAMETERS)
def test_loglog_branches_match_the_former_two_pass_loop(tmp_path, params, branch):
    doc = json.loads((FIXTURES / "hodograph_loglog.json").read_text(encoding="utf-8"))
    block = doc["hodograph"]
    block["parameters"] = params
    block["branch"] = branch
    doc.pop("assertions")
    path = tmp_path / "loglog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    results = cli.run("hodograph", cli.load_config(path), tmp_path / "out").results

    grid = cli._grid_from_config(block, "loglog", "$.hodograph")
    points = grid.points(params)
    assert len(points) > 0
    want = reference_branches(points, params)
    assert {k: _bits(v) for k, v in results["branches"].items()} == {
        k: _bits(v) for k, v in want.items()
    }
    assert _bits({k: results[k] for k in want[branch]}) == _bits(want[branch])
