"""Check every job that any benchmark seed can produce against the
benchmark's recorded answers.

    PYTHONPATH=src python3 scripts/check_catalogue.py

The jobs are ``perfbench/workloads.all_jobs``: the shipped fixtures that the
workloads run, every catalogue variant of every seeded slot and the tail.
Each runs through ``perfbench/worker.run_job`` and is compared with
``perfbench/reference.json`` by ``perfbench/check.compare``: its exit code
and every checked report value, within the reference's tolerance.  Artifact
bytes are not compared; their identical share is printed.  One benchmark
run picks one variant per slot, so this is the check that covers them all.
Exits 1, naming each job that fails, when any does.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
import workloads  # noqa: E402
from noncanon import cli  # noqa: E402
from worker import run_job  # noqa: E402


def main() -> int:
    reference = check.load_json(ROOT / "perfbench" / "reference.json")["jobs"]
    jobs = workloads.all_jobs(ROOT)
    failures = []
    identical = artifacts = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = workloads.write_configs(jobs, Path(tmp) / "configs")
        for job, path in zip(jobs, paths):
            out = Path(tmp) / "out" / path.stem
            job_spec = {"command": job.command, "config": str(path), "out": str(out)}
            record = check.collect(out, job.command, run_job(cli.main, job_spec))
            ref = reference.get(job.job_id)
            if ref is None or ref["config_sha256"] != check.file_digest(path):
                problems = ["no reference for this config"]
            else:
                problems = check.compare(record, ref, json.loads(job.config_text))
                same, total = check.identical_artifacts(record, ref)
                identical += same
                artifacts += total
            if problems:
                failures.append(f"{job.job_id}: " + "; ".join(problems[:5]))
    print(f"{len(jobs) - len(failures)} of {len(jobs)} jobs match the reference; "
          f"{identical} of {artifacts} artifacts are byte-identical")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
