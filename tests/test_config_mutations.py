"""Shipped fixtures with one value changed to something of the wrong shape:
a block that is not an object, a field map that is not an object, a grid
axis without points, a step count that is not finite, a point count below
one or above the cap shared by clouds, surface samples and grids, an
assertion on a report value that is not a number.  Each run ends as a
config error, exit code 2, with the JSON path, never a traceback; an
assertion on a value the run did not produce (``null``), or on a path
through one, fails."""

import json
from pathlib import Path

import pytest

from noncanon.cli import (
    EXIT_ASSERTION,
    EXIT_CONFIG,
    MAX_POINTS,
    ConfigError,
    _resolve,
    load_config,
    main,
    sample_cloud,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _with(name, *keys, value):
    """Fixture ``name`` with the value at the key path ``keys`` replaced."""
    doc = _fixture(name)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def run_config(tmp_path, capsys, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    return code, out, err


FIELD = "check_jacobi_singular_field.json"

# name: (command, config, JSON path named by the error)
CASES = {
    "cloud_a_string": ("check-jacobi", _with(FIELD, "cloud", value="q1"), "$.cloud"),
    "hodograph_a_number": (
        "hodograph", _with("hodograph_log.json", "hodograph", value=3.5), "$.hodograph"
    ),
    "sweep_null": ("sweep", _with("sweep_epsilon.json", "sweep", value=None), "$.sweep"),
    "sweep_integrator_a_number": (
        "sweep", _with("sweep_epsilon.json", "integrator", value=-0.001), "$.integrator"
    ),
    "reduction_a_number": (
        "reduce", _with("reduce_constant.json", "reduction", value=-0.001), "$.reduction"
    ),
    "field_theta_a_number": (
        "check-jacobi", _with(FIELD, "structure", "theta", value=0), "$.structure.theta"
    ),
    "field_theta_a_list": (
        "check-jacobi", _with(FIELD, "structure", "theta", value=[1, 2, 3]), "$.structure.theta"
    ),
    "field_theta_a_bool": (
        "check-jacobi", _with(FIELD, "structure", "theta", value=True), "$.structure.theta"
    ),
    "field_f_a_number": ("check-jacobi", _with(FIELD, "structure", "f", value=0), "$.structure.f"),
    "field_f_a_list": (
        "check-jacobi", _with(FIELD, "structure", "f", value=[1, 2, 3]), "$.structure.f"
    ),
    "field_f_a_bool": ("check-jacobi", _with(FIELD, "structure", "f", value=True), "$.structure.f"),
    "grid_axis_negative_count": (
        "hodograph",
        _with("hodograph_log.json", "hodograph", "grid", "y", value=[-1, 1, -1]),
        "$.hodograph.grid.y",
    ),
    "grid_beyond_memory": (
        "hodograph",
        _with("hodograph_log.json", "hodograph", "grid", "x", value=[-1, 1, 10**12]),
        "$.hodograph.grid",
    ),
    "sweep_t_end_huge": (
        "sweep", _with("sweep_epsilon.json", "integrator", "t_end", value=1e308), "$.integrator"
    ),
    "sweep_dt_subnormal": (
        "sweep", _with("sweep_epsilon.json", "integrator", "dt", value=2.5e-320), "$.integrator"
    ),
    "surface_points_huge": (
        "reduce",
        _with("reduce_constant.json", "reduction", "surface_points", value=1e308),
        "$.reduction.surface_points",
    ),
    "surface_points_beyond_memory": (
        "reduce",
        _with("reduce_constant.json", "reduction", "surface_points", value=10**12),
        "$.reduction.surface_points",
    ),
    "cloud_count_negative": (
        "check-jacobi",
        _with("check_jacobi_canonical.json", "cloud", "count", value=-5),
        "$.cloud.count",
    ),
    "assertion_on_an_object": (
        "reduce",
        _with("reduce_constant.json", "assertions", 0, "value", value="reduction.condition_residuals"),
        "$.assertions[0].value",
    ),
    "assertion_on_a_list": (
        "reduce",
        _with("reduce_constant.json", "assertions", 0, "value", value="reduction.constants"),
        "$.assertions[0].value",
    ),
    "assertion_on_a_string": (
        "reduce", _with("reduce_constant.json", "assertions", 0, "value", value="rng"),
        "$.assertions[0].value",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_mutated_fixture_is_a_config_error(tmp_path, capsys, case):
    command, doc, path = CASES[case]
    code, _, err = run_config(tmp_path, capsys, command, doc)
    assert code == EXIT_CONFIG, err
    assert f"config error: {path}" in err
    assert "Traceback" not in err


def test_assertion_on_null_fails(tmp_path, capsys):
    # theta * f = -1: the run does not reduce, so the reduced bracket's
    # spread is null in the report
    doc = _with(
        "reduce_singular_field.json",
        "structure",
        value={"kind": "constant-theta-f", "theta": -1, "f": 1},
    )
    doc["assertions"] = doc["assertions"][1:2]
    code, out, err = run_config(tmp_path, capsys, "reduce", doc)
    assert code == EXIT_ASSERTION, err
    assert "[FAIL] reduced bracket is constant on the surface" in out
    assert "(observed null)" in out
    report = json.loads((tmp_path / "out" / "reduce_report.json").read_text(encoding="utf-8"))
    assert report["results"]["reduction"]["spread"] is None
    assert report["assertions"][0]["observed"] is None
    assert report["assertions"][0]["passed"] is False


class _NoSamples:
    """An rng that fails the test if the cloud draws a sample."""

    def random(self, size=None):
        raise AssertionError("sampled before the count was checked")


@pytest.mark.parametrize("count", [-5, 0, MAX_POINTS + 1, 1e12, 1e308])
def test_cloud_count_is_checked_before_sampling(tmp_path, count):
    doc = _with("check_jacobi_canonical.json", "cloud", "count", value=count)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        sample_cloud(load_config(path), _NoSamples())
    assert err.value.json_path == "$.cloud.count"


def test_resolve_through_null():
    results = {"a": None, "b": {"c": 1.0}}
    assert _resolve(results, "a") is None
    assert _resolve(results, "a.b.c") is None
    assert _resolve(results, "b.c") == 1.0
    with pytest.raises(ConfigError):
        _resolve(results, "b.d")
    with pytest.raises(ConfigError):
        _resolve(results, "c")


def test_unreduced_run_fails_every_surface_assertion(tmp_path, capsys):
    # theta * f = -1: the run does not reduce, so the total variations are
    # not computed and the surface map has no dual relation residuals
    doc = _with(
        "reduce_singular_field.json",
        "structure",
        value={"kind": "constant-theta-f", "theta": -1, "f": 1},
    )
    code, out, err = run_config(tmp_path, capsys, "reduce", doc)
    assert code == EXIT_ASSERTION, err
    assert "[FAIL] total variations vanish" in out
    assert "[FAIL] surface map matches minus theta" in out
    report = json.loads((tmp_path / "out" / "reduce_report.json").read_text(encoding="utf-8"))
    assert report["results"]["total_variation_max"] is None
    observed = {a["check"]: a["observed"] for a in report["assertions"]}
    assert observed["total_variation_max"] is None
    assert observed["reduction.dual_relation_residuals.dq_dp_plus_theta"] is None
