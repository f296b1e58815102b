"""Sampling bounds must have a finite span.

A ``[low, high]`` pair of ``cloud.ranges``,
``reduction.surface_parameter_ranges`` or a hodograph ``grid`` axis is
drawn from as ``low + (high - low) * t``, so ``high - low`` must be finite:
a NaN, an infinity or a pair whose difference overflows is a config error
(exit 2) at the pair's JSON path, raised before any sample or grid point
is drawn.  These used to end as a runtime error (exit 3) after a numpy
warning, or, for a grid, as a vacuous pass (exit 0) over NaN points.
Reversed pairs such as ``[2, 1]`` sample as before."""

import json
from pathlib import Path

import pytest

from noncanon import brackets, hodograph, reduction
from noncanon.cli import EXIT_CONFIG, EXIT_OK, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INF = float("inf")
NAN = float("nan")


def _with(name, *keys, value):
    """Fixture ``name`` with the value at the key path ``keys`` replaced."""
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def _cloud(pair):
    return ("check-jacobi", _with("check_jacobi_canonical.json", "cloud", "ranges", "q1",
                                  value=pair))


def _surface(pair):
    return ("reduce", _with("reduce_singular_field.json", "reduction",
                            "surface_parameter_ranges", "p1", value=pair))


def _grid(axis, values):
    return ("hodograph", _with("hodograph_log.json", "hodograph", "grid", axis, value=values))


def _must_not_run(*_args, **_kwargs):
    raise AssertionError("sampled before the bounds were checked")


def run_config(tmp_path, capsys, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr()


# name: ((command, config), JSON path named by the error)
BAD = {
    "cloud_overflowing_span": (_cloud([-1e308, 1e308]), "$.cloud.ranges.q1"),
    "cloud_infinite_low": (_cloud([-INF, 1.0]), "$.cloud.ranges.q1"),
    "cloud_nan_low": (_cloud([NAN, 1.0]), "$.cloud.ranges.q1"),
    "cloud_infinite_high": (_cloud([0.0, INF]), "$.cloud.ranges.q1"),
    "surface_infinite_low": (_surface([INF, 1.0]), "$.reduction.surface_parameter_ranges.p1"),
    "surface_overflowing_span": (_surface([-1e308, 1e308]),
                                 "$.reduction.surface_parameter_ranges.p1"),
    "surface_nan_high": (_surface([0.8, NAN]), "$.reduction.surface_parameter_ranges.p1"),
    "grid_x_overflowing_span": (_grid("x", [-1e308, 1e308, 5]), "$.hodograph.grid.x"),
    "grid_y_nan_low": (_grid("y", [NAN, 1.0, 5]), "$.hodograph.grid.y"),
    "grid_x_infinite_high": (_grid("x", [0.5, INF, 5]), "$.hodograph.grid.x"),
}


@pytest.fixture
def nothing_sampled(monkeypatch):
    monkeypatch.setattr(brackets.PoissonStructure, "jacobi_report", _must_not_run)
    monkeypatch.setattr(reduction, "surface_cloud", _must_not_run)
    monkeypatch.setattr(hodograph.Grid2D, "points", _must_not_run)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(BAD))
def test_non_finite_span_is_a_config_error(name, tmp_path, capsys, nothing_sampled):
    (command, doc), json_path = BAD[name]
    code, out = run_config(tmp_path, capsys, command, doc)
    assert code == EXIT_CONFIG, out
    assert f"{json_path}:" in out.err


@pytest.mark.parametrize(
    "command, doc",
    [
        _cloud([2.0, 1.0]),
        _surface([1.6, 0.8]),
        _grid("x", [3.0, 0.5, 31]),
        _cloud([-1e307, 1e307]),
    ],
    ids=["cloud", "surface", "grid", "cloud_wide_finite"],
)
def test_reversed_and_wide_finite_pairs_still_run(command, doc, tmp_path, capsys):
    code, out = run_config(tmp_path, capsys, command, doc)
    assert code == EXIT_OK, out
