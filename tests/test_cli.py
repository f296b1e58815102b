"""Config ingestion, command dispatch, artifacts, exit codes."""

import json
from pathlib import Path

import pytest

from noncanon.cli import (
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    load_config,
    main,
    run,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


MINIMAL = {
    "version": 1,
    "phase_space": {"n": 1},
    "structure": {"kind": "canonical"},
    "hamiltonian": "(p1^2+q1^2)/2",
    "initial_state": [1.0, 0.0],
    "integrator": {"method": "rk4", "dt": 0.001, "t_end": 1.0},
}


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.structure.n == 1
        assert cfg.structure.kind == "canonical"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_missing_key_names_json_path(self, tmp_path):
        doc = dict(MINIMAL)
        doc["structure"] = {}
        with pytest.raises(ConfigError, match=r"\$\.structure\.kind"):
            load_config(write_config(tmp_path, doc))

    def test_wrong_type_names_json_path(self, tmp_path):
        doc = dict(MINIMAL)
        doc["phase_space"] = {"n": "two"}
        with pytest.raises(ConfigError, match=r"\$\.phase_space\.n"):
            load_config(write_config(tmp_path, doc))

    def test_expression_error_carries_offset(self, tmp_path):
        doc = dict(MINIMAL)
        doc["hamiltonian"] = "q1 +* p1"
        with pytest.raises(ConfigError, match="offset 4"):
            load_config(write_config(tmp_path, doc))

    def test_bad_version(self, tmp_path):
        doc = dict(MINIMAL)
        doc["version"] = 99
        with pytest.raises(ConfigError, match="version"):
            load_config(write_config(tmp_path, doc))

    def test_field_structure_fixture(self):
        cfg = load_config(FIXTURES / "check_jacobi_singular_field.json")
        assert cfg.structure.kind == "theta-f-field"
        assert (0, 1) in cfg.structure.entries

    def test_unknown_kind(self, tmp_path):
        doc = dict(MINIMAL)
        doc["structure"] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="unknown structure kind"):
            load_config(write_config(tmp_path, doc))


class TestRun:
    def test_check_jacobi_artifacts(self, tmp_path):
        cfg = load_config(FIXTURES / "check_jacobi_constant.json")
        report = run("check-jacobi", cfg, tmp_path / "out")
        assert report.all_passed
        assert (tmp_path / "out" / "jacobi_points.csv").exists()
        assert (tmp_path / "out" / "check-jacobi_report.json").exists()
        doc = json.loads((tmp_path / "out" / "check-jacobi_report.json").read_text())
        assert doc["results"]["generic_max"] <= 1e-12
        for entry in doc["assertions"]:
            assert "threshold" in entry and "name" in entry

    def test_integrate_artifacts(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        report = run("integrate", cfg, tmp_path / "out")
        csv_path = tmp_path / "out" / "trajectory.csv"
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header[:4] == ["t", "q1", "p1", "H"]

    def test_seed_override_changes_cloud(self, tmp_path):
        cfg = load_config(FIXTURES / "check_jacobi_constant.json")
        r1 = run("check-jacobi", cfg, tmp_path / "a", seed=1)
        cfg2 = load_config(FIXTURES / "check_jacobi_constant.json")
        r2 = run("check-jacobi", cfg2, tmp_path / "b", seed=2)
        csv_a = (tmp_path / "a" / "jacobi_points.csv").read_text()
        csv_b = (tmp_path / "b" / "jacobi_points.csv").read_text()
        assert csv_a != csv_b

    def test_reports_have_stable_key_order(self, tmp_path):
        cfg = load_config(FIXTURES / "check_jacobi_canonical.json")
        run("check-jacobi", cfg, tmp_path / "out")
        text = (tmp_path / "out" / "check-jacobi_report.json").read_text()
        doc = json.loads(text)
        assert list(doc) == sorted(doc)

    def test_assertion_failure_reported_but_artifacts_written(self, tmp_path):
        doc = {
            "version": 1,
            "phase_space": {"n": 2},
            "structure": {"kind": "theta-f-field", "theta": {"1,2": "q2"}},
            "cloud": {"count": 10},
            "assertions": [
                {"name": "impossible", "value": "generic_max", "op": "<=", "threshold": 1e-9}
            ],
        }
        cfg = load_config(write_config(tmp_path, doc))
        report = run("check-jacobi", cfg, tmp_path / "out")
        assert not report.all_passed
        assert (tmp_path / "out" / "check-jacobi_report.json").exists()

    def test_unknown_assertion_path(self, tmp_path):
        doc = dict(MINIMAL)
        doc["assertions"] = [
            {"name": "x", "value": "no.such.value", "op": "<=", "threshold": 1.0}
        ]
        cfg = load_config(write_config(tmp_path, doc))
        with pytest.raises(ConfigError, match="no value at"):
            run("integrate", cfg, tmp_path / "out")


class TestMainExitCodes:
    def test_pass(self, tmp_path, capsys):
        code = main(
            [
                "check-jacobi",
                "--config",
                str(FIXTURES / "check_jacobi_canonical.json"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[pass]" in out

    def test_assertion_failure(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "phase_space": {"n": 2},
            "structure": {"kind": "theta-f-field", "theta": {"1,2": "q2"}},
            "cloud": {"count": 10},
            "assertions": [
                {"name": "impossible", "value": "generic_max", "op": "<=", "threshold": 1e-9}
            ],
        }
        path = write_config(tmp_path, doc)
        code = main(["check-jacobi", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_ASSERTION
        assert "[FAIL]" in capsys.readouterr().out

    def test_config_error(self, tmp_path, capsys):
        doc = dict(MINIMAL)
        doc["hamiltonian"] = "q1 +* p1"
        path = write_config(tmp_path, doc)
        code = main(["integrate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_runtime_error(self, tmp_path, capsys):
        doc = dict(MINIMAL)
        doc["hamiltonian"] = "1/q1"
        doc["initial_state"] = [0.0, 0.0]
        path = write_config(tmp_path, doc)
        code = main(["integrate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_RUNTIME


class TestFixturesAllPass:
    COMMANDS = {
        "check_jacobi_canonical.json": "check-jacobi",
        "check_jacobi_constant.json": "check-jacobi",
        "check_jacobi_violating.json": "check-jacobi",
        "check_jacobi_singular_field.json": "check-jacobi",
        "integrate_canonical_oscillator.json": "integrate",
        "reduce_constant.json": "reduce",
        "reduce_singular_field.json": "reduce",
        "hodograph_linear_sweep.json": "hodograph",
        "hodograph_log.json": "hodograph",
        "hodograph_loglog.json": "hodograph",
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_fixture(self, name, tmp_path):
        cfg = load_config(FIXTURES / name)
        report = run(self.COMMANDS[name], cfg, tmp_path / "out")
        failed = [a for a in report.assertions if not a["passed"]]
        assert not failed, failed
