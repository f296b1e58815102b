"""Record ``perfbench/reference.json``: the answer of every job that any
seed can produce (the shipped fixtures, every catalogue variant and the
tail).  Run it from the repository root after a change that is meant to
move a checked value, and say in the change which values moved and why:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

import numpy
from noncanon import cli

import check
import workloads
from worker import run_job


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.all_jobs(root)
    paths = workloads.write_configs(jobs, work / "configs")
    records = {}
    bad = []
    for job, path in zip(jobs, paths):
        out = work / "out" / job.file_name[:-5]
        code = run_job(cli.main, {"command": job.command, "config": str(path), "out": str(out)})
        record = check.collect(out, job.command, code)
        record["command"] = job.command
        record["config_sha256"] = check.file_digest(path)
        records[job.job_id] = record
        if code != 0:
            bad.append(f"{job.job_id}: exit {code}")
        print(f"{job.job_id}: exit {code}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    if bad:
        print("not recorded; these jobs do not pass:\n" + "\n".join(bad), file=sys.stderr)
        return 1
    reference = {
        "recorded_with": {"python": platform.python_version(), "numpy": numpy.__version__},
        "tolerance": {"rtol": check.RTOL, "atol": check.ATOL},
        "jobs": records,
    }
    target = Path(__file__).resolve().parent / "reference.json"
    target.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
