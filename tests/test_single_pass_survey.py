"""Each survey point is evaluated once per run.

A ``hodograph`` run takes the partials of its family once per admissible
grid point and builds that grid once (``limit_sweep``'s grids, one per
alpha, aside); both transport residuals and the Jacobian minimum come from
that one pass.  A ``check-jacobi`` run evaluates the bracket entries once
per cloud point: the degeneracy report reads the matrix the Jacobi report
was built from."""

import json
from pathlib import Path

import pytest

from noncanon import cli, hodograph
from noncanon.brackets import PoissonStructure
from noncanon.cli import load_config, run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CUSTOM_FG = {
    "version": 1,
    "hodograph": {
        "kind": "custom-fg",
        "f": "s",
        "g": "-s",
        "grid": {"x": [0.5, 1.5, 4], "y": [-1.0, 1.0, 4]},
    },
}


def _counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; return the list of its results."""
    original = getattr(owner, name)
    results = []

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(owner, name, wrapper)
    return results


HODOGRAPH_CONFIGS = [*sorted(p.name for p in FIXTURES.glob("hodograph_*.json")), "custom-fg"]


def _hodograph_config(tmp_path, name):
    if name != "custom-fg":
        return load_config(FIXTURES / name)
    path = tmp_path / "custom_fg.json"
    path.write_text(json.dumps(CUSTOM_FG), encoding="utf-8")
    return load_config(path)


def _admissible_count(cfg) -> int:
    block = cfg.raw["hodograph"]
    family = hodograph.build_family(
        block["kind"],
        block.get("parameters", {}),
        branch=block.get("branch", "+"),
        f=block.get("f"),
        g=block.get("g"),
    )
    grid = cli._grid_from_config(block, block["kind"], "$.hodograph")
    return len(grid.points(family.parameters))


@pytest.mark.parametrize("name", HODOGRAPH_CONFIGS)
def test_hodograph_run_takes_partials_once_per_grid_point(tmp_path, monkeypatch, name):
    cfg = _hodograph_config(tmp_path, name)
    expected = _admissible_count(cfg)
    assert expected > 0
    partials = _counted(monkeypatch, hodograph, "_field_partials")
    grids = _counted(monkeypatch, hodograph.Grid2D, "points")
    report = run("hodograph", cfg, tmp_path / "out")
    assert len(partials) == expected
    alphas = cfg.raw["hodograph"].get("alphas", [])
    assert len(grids) == 1 + len(alphas)
    assert len(grids[0]) == expected
    assert report.results["jacobian_min"] > 0.0


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("check_jacobi_*.json")))
def test_check_jacobi_evaluates_entries_once_per_point(tmp_path, monkeypatch, name):
    cfg = load_config(FIXTURES / name)
    matrices = _counted(monkeypatch, PoissonStructure, "theta_matrix")
    gradients = _counted(monkeypatch, PoissonStructure, "_entry_gradients")
    reports = _counted(monkeypatch, PoissonStructure, "jacobi_report")
    report = run("check-jacobi", cfg, tmp_path / "out")
    points = report.results["cloud"]["count"]
    assert points > 0
    assert len(matrices) == 0
    assert len(gradients) == points
    assert len(reports) == points
