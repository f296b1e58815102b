"""Run every benchmark job on the working tree and on a git revision, and
compare what the two leave behind.

    python3 scripts/compare_revision.py <git-rev>

The jobs are every config under ``fixtures/`` and every job of
``perfbench/workloads.all_jobs`` (the fixtures the workloads run, every
catalogue variant of every seeded slot and the tail), each written once as
a config file.  Each job runs in a process of its own through the ``noncanon``
command line, once with this tree's ``src`` and once with the ``src`` of a
``git archive`` of ``<git-rev>``.  For each job the exit code, the bytes
written to stderr and the bytes of every file in the output directory must
be identical.  Exits 1, naming each job that differs and how, when any
does.  perfbench is only imported, to build the jobs, and the command of
each fixture is read from ``tests/test_acceptance.FIXTURE_COMMANDS``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402
from test_acceptance import FIXTURE_COMMANDS  # noqa: E402

# the command line of one job, run under a given tree's ``src``
_RUN = "import sys; from noncanon.cli import main; sys.exit(main(sys.argv[1:]))"


def _archive(rev: str, directory: Path) -> Path:
    """The files of ``rev``, unpacked from ``git archive`` into
    ``directory``."""
    tar = directory / "rev.tar"
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(tar), rev], check=True
    )
    with tarfile.open(tar) as archive:
        archive.extractall(directory / "tree", filter="data")
    return directory / "tree"


def _jobs() -> list:
    fixtures = [
        workloads.Job(f"file:{path.stem}", command, path.read_text(encoding="utf-8"))
        for name, command in sorted(FIXTURE_COMMANDS.items())
        for path in [ROOT / "fixtures" / name]
    ]
    return fixtures + workloads.all_jobs(ROOT)


def _run(src: Path, command: str, config: Path, out: Path) -> dict:
    """Exit code, stderr and output files of one job under ``src``; the
    output directory is removed afterwards."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    argv = [sys.executable, "-c", _RUN, command, "--config", str(config), "--out", str(out)]
    done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    files = {}
    if out.is_dir():
        paths = sorted(p for p in out.rglob("*") if p.is_file())
        files = {str(p.relative_to(out)): p.read_bytes() for p in paths}
        shutil.rmtree(out)
    return {"exit code": done.returncode, "stderr": done.stderr, "files": files}


def _differences(ours: dict, theirs: dict) -> list[str]:
    problems = [
        f"{key} differs" for key in ("exit code", "stderr") if ours[key] != theirs[key]
    ]
    for name in sorted(ours["files"].keys() | theirs["files"].keys()):
        if ours["files"].get(name) != theirs["files"].get(name):
            problems.append(f"{name} differs")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    jobs = _jobs()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        theirs = _archive(argv[0], tmp) / "src"
        configs = workloads.write_configs(jobs, tmp / "configs")

        def compare(job, config: Path) -> list[str]:
            # both runs write to one directory, so paths in the output match
            out = tmp / "out" / config.stem
            ours = _run(ROOT / "src", job.command, config, out)
            return _differences(ours, _run(theirs, job.command, config, out))

        with ThreadPoolExecutor(max_workers=2) as pool:
            found = list(pool.map(compare, jobs, configs))
    failures = [f"{job.job_id}: " + "; ".join(p) for job, p in zip(jobs, found) if p]
    print(f"{len(jobs) - len(failures)} of {len(jobs)} jobs identical to {argv[0]}: "
          "exit codes, stderr and artifact bytes")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
