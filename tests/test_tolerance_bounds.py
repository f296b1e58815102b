"""A tolerance must be finite and at least 0.

The degeneracy tolerance, ``$.tolerance`` in the config or ``--tol`` on
the command line, is compared as ``condition <= tol``.  A NaN or a
negative tolerance admits no point, so every structure reported
``reduced: false`` (exit 1); an infinite one admits every point, so a
non-degenerate structure was "reduced", and with ``spectrum`` on its run
ended in a runtime error (exit 3).  Each is now a config error (exit 2)
at ``$.tolerance`` or ``--tol``, raised before any point is sampled and
before the output directory is made.  A tolerance of 0 still runs."""

import json
from pathlib import Path

import pytest

from noncanon import brackets, reduction
from noncanon.cli import EXIT_CONFIG, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INF = float("inf")
NAN = float("nan")


def _fixture(name, **changes):
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    doc.update(changes)
    return doc


SINGULAR = _fixture("reduce_singular_field.json")
# the planar constant pair theta*f = -0.21, nowhere degenerate
NON_DEGENERATE = _fixture(
    "reduce_constant.json",
    structure={"kind": "constant-theta-f", "theta": 0.7, "f": -0.3},
)


def _must_not_run(*_args, **_kwargs):
    raise AssertionError("sampled before the tolerance was checked")


def run_config(tmp_path, capsys, doc, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["reduce", "--config", str(path), "--out", str(out), *flags])
    return code, capsys.readouterr(), out


# name: (config, command-line flags, JSON path or option named by the error)
BAD = {
    "flag_nan": (SINGULAR, ("--tol", "nan"), "--tol"),
    "flag_negative": (SINGULAR, ("--tol", "-1"), "--tol"),
    "flag_infinite": (SINGULAR, ("--tol", "inf"), "--tol"),
    "flag_infinite_non_degenerate": (NON_DEGENERATE, ("--tol", "inf"), "--tol"),
    "config_nan": ({**SINGULAR, "tolerance": NAN}, (), "$.tolerance"),
    "config_negative": ({**SINGULAR, "tolerance": -1.0}, (), "$.tolerance"),
    "config_infinite": ({**SINGULAR, "tolerance": INF}, (), "$.tolerance"),
    "config_infinite_non_degenerate": ({**NON_DEGENERATE, "tolerance": INF}, (),
                                       "$.tolerance"),
}


@pytest.fixture
def nothing_sampled(monkeypatch):
    monkeypatch.setattr(brackets.PoissonStructure, "jacobi_report", _must_not_run)
    monkeypatch.setattr(reduction, "surface_cloud", _must_not_run)


@pytest.mark.parametrize("name", sorted(BAD))
def test_non_finite_or_negative_tolerance_is_a_config_error(
    name, tmp_path, capsys, nothing_sampled
):
    doc, flags, where = BAD[name]
    code, out, out_dir = run_config(tmp_path, capsys, doc, *flags)
    assert code == EXIT_CONFIG, out
    assert out.err.startswith(f"config error: {where}: "), out.err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "doc, flags",
    [(SINGULAR, ("--tol", "0")), ({**SINGULAR, "tolerance": 0}, ())],
    ids=["flag", "config"],
)
def test_zero_tolerance_still_runs(doc, flags, tmp_path, capsys):
    code, out, out_dir = run_config(tmp_path, capsys, doc, *flags)
    assert code != EXIT_CONFIG, out
    report = json.loads((out_dir / "reduce_report.json").read_text(encoding="utf-8"))
    assert report["tolerance"] == 0.0
