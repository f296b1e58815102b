"""The noncanon benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {trajectory,sweep,survey} \
        --seed <n> --seconds <s> --trace {0,1}

Run it from the repository root.  It generates the workload's configs from
the seed, then runs every job through ``noncanon.cli.main`` in a child
process, pass after pass, for about ``--seconds`` (a closed loop with one
client and no threads).  Every job's output is checked against
``perfbench/reference.json`` after each pass.

With ``--trace 0`` it reports the end-to-end metrics: the median wall and
CPU time of one pass, the median set-up time of several fresh interpreters
(``import noncanon`` plus loading every config), and the child's peak
resident memory.  Times are scaled to the reference machine speed,
sampled while the jobs run (see ``calibration.py``).
With ``--trace 1`` its child alternates untraced and traced passes, and it
reports the per-layer metrics of the traced passes (raw times) with the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details (samples, quartiles, raw times, speed factors,
machine, failures).

Exit code 0 after a complete run, 1 when a child process fails, 2 when the
source tree is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 10
DEADLINE_S = 170.0  # the whole run, children included


class ChildError(RuntimeError):
    pass


def spawn(argv: list[str], env: dict, timeout: float) -> tuple[float, int]:
    """Run a child to completion; (wall seconds from spawn to exit, peak
    RSS in KiB).  Reaped with ``wait4`` so its resource use is its own."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildError(f"{Path(argv[1]).name} exited with {proc.returncode}")
    return wall, usage.ru_maxrss


def run_worker(jobs, work: Path, name: str, seconds: float, traced: bool, env, deadline):
    spec = {
        "jobs": jobs,
        "seconds": seconds,
        "trace": traced,
        "reference": str(HERE / "reference.json"),
        "result": str(work / f"{name}.result.json"),
        "spans": str(work.parent / f"spans-{name}.npz"),
    }
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _, max_rss_kib = spawn(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)], env, deadline - time.perf_counter()
    )
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    result["peak_rss_mb"] = max_rss_kib / 1024.0
    return result


def summary(values: list[float]) -> dict:
    """Median, quartiles, maximum and sample count; ``tail`` is the highest
    percentile with at least ten samples beyond it, when there is one."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"samples": n, "median": statistics.median(ordered), "max": ordered[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        i = n - 11
        out["tail"] = {"percentile": round(100.0 * (i + 1) / n, 1), "value": ordered[i]}
    return out


def unit(metric: str) -> str:
    if ".us_per_" in metric:
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".calls", ".steps")):
        return "count"
    if metric.endswith(("_mb", ".mb")):
        return "MB"
    return "ratio"


def machine(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": platform.processor() or platform.machine(),
    }


def measure(args, root: Path, work: Path) -> tuple[dict, dict, int, int]:
    deadline = time.perf_counter() + DEADLINE_S
    jobs = workloads.jobs_for(args.workload, args.seed, root)
    paths = workloads.write_configs(jobs, work / "configs")
    specs = [
        {"job_id": job.job_id, "command": job.command, "config": str(path),
         "out": str(work / "out" / job.file_name[:-5])}
        for job, path in zip(jobs, paths)
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )

    details: dict = {"workload": args.workload, "seed": args.seed, "jobs": [j.job_id for j in jobs]}
    if not args.trace:
        probe = [sys.executable, str(HERE / "setup_probe.py"), *map(str, paths)]

        def probes(count):
            return [spawn(probe, env, deadline - time.perf_counter())[0] for _ in range(count)]

        # half of the probes before the passes and half after, so they see
        # two moments of the machine's drifting speed
        setups = probes(SETUP_REPEATS // 2)
        run = run_worker(specs, work, args.workload, args.seconds, False, env, deadline)
        setups += probes(SETUP_REPEATS - SETUP_REPEATS // 2)
        speeds = [p["speed"] for p in run["passes"]]
        walls = [p["wall_s"] * p["speed"] for p in run["passes"]]
        cpus = [p["cpu_s"] * p["speed"] for p in run["passes"]]
        details.update(
            wall_s=summary(walls),
            cpu_s=summary(cpus),
            raw_wall_s=summary([p["wall_s"] for p in run["passes"]]),
            raw_setup_s=summary(setups),
            speed=summary(speeds),
        )
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            # the probes run just before and after the passes, so the
            # passes' speed factor is the closest measure of theirs
            "setup_s": statistics.median(setups) * statistics.median(speeds),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    else:
        run = run_worker(specs, work, args.workload, args.seconds, True, env, deadline)
        plain = [p["wall_s"] * p["speed"] for p in run["passes"] if not p["traced"]]
        traced = [p["wall_s"] * p["speed"] for p in run["passes"] if p["traced"]]
        metrics = dict(run["layers"])
        total = run["artifacts"]
        metrics["artifacts.identical_ratio"] = run["identical_artifacts"] / total if total else 0.0
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
        details.update(
            untraced_wall_s=summary(plain),
            traced_wall_s=summary(traced),
            spans=run["spans"],
            spans_dropped=run["spans_dropped"],
            spans_file=str(Path(".perfbench_work") / f"spans-{args.workload}.npz"),
        )
    attempted, failed = run["attempted"], run["failed"]
    details.update(
        failed_ratio=failed / attempted,
        failures=run["failures"],
        machine=machine(run["numpy"]),
    )
    return metrics, details, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/noncanon/cli.py", "fixtures") if not (root / p).exists()]
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, details, attempted, failed = measure(args, root, work)
    except ChildError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
