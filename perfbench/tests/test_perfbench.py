"""Tests of the benchmark itself: seeded generation, the correctness check
and the contract of ``run.py``.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _configs(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    paths = workloads.write_configs(workloads.jobs_for(workload, seed, ROOT), directory)
    return {p.name: p.read_bytes() for p in paths}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_configs(workload, tmp_path):
    first = _configs(workload, 7, tmp_path / "a")
    second = _configs(workload, 7, tmp_path / "b")
    assert first == second


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_changes_configs(workload, tmp_path):
    first = _configs(workload, 7, tmp_path / "a")
    other = _configs(workload, 8, tmp_path / "b")
    assert first != other


def test_every_possible_job_has_a_reference(tmp_path):
    reference = check.load_json(BENCH / "reference.json")["jobs"]
    jobs = workloads.all_jobs(ROOT)
    paths = workloads.write_configs(jobs, tmp_path)
    for job, path in zip(jobs, paths):
        assert reference[job.job_id]["config_sha256"] == check.file_digest(path), job.job_id
        assert reference[job.job_id]["exit_code"] == 0, job.job_id


@pytest.fixture(scope="module")
def cloud_job(tmp_path_factory):
    """One cheap job run for real, with its output record and config."""
    from noncanon import cli
    from worker import run_job

    tmp = tmp_path_factory.mktemp("cloud")
    job = next(j for j in workloads.all_jobs(ROOT) if j.job_id == "tail:cloud")
    config_path = workloads.write_configs([job], tmp / "configs")[0]
    out = tmp / "out"
    code = run_job(cli.main, {"command": job.command, "config": str(config_path), "out": str(out)})
    record = check.collect(out, job.command, code)
    return job, json.loads(job.config_text), record


def _reference_copy(tmp_path: Path, edit) -> dict:
    """Edit a temporary copy of reference.json and read it back."""
    doc = check.load_json(BENCH / "reference.json")
    edit(doc["jobs"])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return check.load_json(path)["jobs"]


def test_unchanged_reference_passes(cloud_job, tmp_path):
    job, config, record = cloud_job
    ref = _reference_copy(tmp_path, lambda jobs: None)[job.job_id]
    assert check.compare(record, ref, config) == []
    assert check.identical_artifacts(record, ref) == (2, 2)


def test_perturbed_reference_value_fails(cloud_job, tmp_path):
    job, config, record = cloud_job

    def perturb(jobs):
        jobs[job.job_id]["values"]["results.det_max"] *= 1.0 + 1e-4

    ref = _reference_copy(tmp_path, perturb)[job.job_id]
    problems = check.compare(record, ref, config)
    assert len(problems) == 1 and problems[0].startswith("results.det_max")


def test_perturbed_exit_code_and_missing_value_fail(cloud_job, tmp_path):
    job, config, record = cloud_job

    def perturb(jobs):
        jobs[job.job_id]["exit_code"] = 1
        jobs[job.job_id]["values"]["results.extra"] = 1.0

    ref = _reference_copy(tmp_path, perturb)[job.job_id]
    assert len(check.compare(record, ref, config)) == 2


def test_residual_may_move_within_its_assertion_bound():
    config = {"assertions": [{"value": "pde.max_res_u", "op": "<=", "threshold": 1e-6}]}
    ref = {"exit_code": 0, "values": {"results.pde.max_res_u": 7.5e-9}}
    record = {"exit_code": 0, "values": {"results.pde.max_res_u": 3.6e-15}}
    assert check.compare(record, ref, config) == []
    record["values"]["results.pde.max_res_u"] = 2e-6
    assert check.compare(record, ref, config) != []


def test_bare_nan_is_read_and_equals_nan(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"results": {"slope": NaN, "order": "NaN", "x": 1.0}}', encoding="utf-8")
    values = check.checked_values(check.load_json(path))
    assert math.isnan(values["results.slope"])
    ref = {"exit_code": 0, "values": copy.deepcopy(values)}
    record = {"exit_code": 0, "values": values}
    assert check.compare(record, ref, {}) == []
    ref["values"]["results.slope"] = 1.0
    assert check.compare(record, ref, {}) != []


def test_speed_sampler_samples_during_work_and_reports_its_pause():
    import time

    from calibration import INTERVAL_S, SpeedSampler

    with SpeedSampler() as sampler:
        end = time.perf_counter() + 5 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.paused_wall >= sum(sampler.samples)
    assert sampler.speed() > 0.0


def test_benchmark_json_names_match_what_run_prints():
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    printed = set(tracing.layer_metrics(tracing.Tracer(), 1))
    printed |= {"artifacts.identical_ratio", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"]), metric["name"]


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
