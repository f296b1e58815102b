"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
module attribute, under every name they are bound to.  Every such name must
exist, or traced benchmark runs fail; the tracer must also put every
original back."""

import importlib.util
from pathlib import Path

from noncanon import cli
from noncanon.cli import load_config

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_restores(tmp_path):
    tracing = _tracing()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing.targets()]
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        cfg = load_config(ROOT / "fixtures" / "check_jacobi_singular_field.json")
        cli.run("check-jacobi", cfg, tmp_path)
    finally:
        tracing.restore(saved)
    assert tracer.calls["cli.run"] == 1
    assert tracer.calls["brackets.jacobi_report"] > 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)
