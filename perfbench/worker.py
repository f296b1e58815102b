"""Child process that runs one workload's jobs pass after pass.

    python3 perfbench/worker.py <spec.json>

The spec names the jobs (command, config file, output directory), the time
budget, whether to trace, and where to write the result.  Each pass calls
``noncanon.cli.main`` once per job, in order, in this one process: a closed
loop with one client.  Only the pass is timed; clearing the output
directories before it and checking the outputs after it are not.  Each
pass records its raw wall and CPU time, less the time taken by the speed
samples (see ``calibration.py``), and the pass's speed factor.

With tracing, passes alternate between untraced and traced (wrappers
installed before the pass and removed after it), so the tracing overhead
is measured between neighbouring passes of one process.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import check
from calibration import SpeedSampler


def run_job(main, job: dict) -> object:
    """Exit code of one CLI invocation, or the name of the exception that
    escaped it."""
    argv = [job["command"], "--config", job["config"], "--out", job["out"]]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            return main(argv)
        except Exception as err:  # the job fails; the benchmark keeps running
            return f"exception {type(err).__name__}: {err}"


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    jobs = spec["jobs"]
    import numpy
    from noncanon import cli

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()

    reference = check.load_json(spec["reference"])
    configs = [json.loads(Path(job["config"]).read_text(encoding="utf-8")) for job in jobs]

    passes = []
    attempted = failed = identical = artifacts = 0
    failures: list[str] = []
    budget = float(spec["seconds"])
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        for job in jobs:
            shutil.rmtree(job["out"], ignore_errors=True)
        saved = tracing.install(tracer) if traced else None
        codes = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with SpeedSampler() as sampler:
            for index, job in enumerate(jobs):
                if traced:
                    tracer.job_id = len(passes) * len(jobs) + index
                codes.append(run_job(cli.main, job))
        wall = time.perf_counter() - wall0 - sampler.paused_wall
        cpu = time.process_time() - cpu0 - sampler.paused_cpu
        if saved is not None:
            tracing.restore(saved)
        passes.append({"wall_s": wall, "cpu_s": cpu, "speed": sampler.speed(), "traced": traced})

        for job, config, code in zip(jobs, configs, codes):
            attempted += 1
            record = check.collect(Path(job["out"]), job["command"], code)
            ref = reference["jobs"].get(job["job_id"])
            if ref is None or ref["config_sha256"] != check.file_digest(job["config"]):
                problems = ["no reference for this config"]
            else:
                problems = check.compare(record, ref, config)
                same, total = check.identical_artifacts(record, ref)
                identical += same
                artifacts += total
            if problems:
                failed += 1
                failures.append(f"{job['job_id']}: " + "; ".join(problems[:5]))

        elapsed = time.perf_counter() - began
        mean_pass = statistics.fmean(p["wall_s"] for p in passes)
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and elapsed + 0.5 * mean_pass >= budget:
            break

    result = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "identical_artifacts": identical,
        "artifacts": artifacts,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, sum(p["traced"] for p in passes))
        result["spans"] = len(tracer.start)
        result["spans_dropped"] = tracer.dropped
        tracer.save(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
