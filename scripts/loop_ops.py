"""Count the bytecode of every stepping loop the benchmark jobs emit.

    python3 scripts/loop_ops.py

Runs every config under ``fixtures/`` and every job of
``perfbench/workloads.all_jobs`` through ``noncanon.cli.main`` in this
process, with a spy on ``expressions._Codegen.define`` that keeps each
generated source holding a stepping loop (``dynamics._LOOP``).  For each
distinct loop it prints the first job that emitted it and the loop body's
instruction and ``BINARY_OP`` counts, read by ``dis`` from the target of
``while True:`` to its ``JUMP_BACKWARD``, and then the totals and the
Python version.  The counts depend only on the generated source and the
interpreter, so they repeat exactly from run to run.  A job that fails
still counts the loops it emitted.
"""

from __future__ import annotations

import contextlib
import dis
import io
import platform
import sys
import tempfile
from pathlib import Path

# the jobs of scripts/compare_revision.py, which also puts perfbench, src and
# tests on the path
from compare_revision import _jobs

import workloads
from noncanon import cli, expressions


def loop_counts(source: str) -> tuple[int, int]:
    """``(instructions, BINARY_OP)`` of the body of the outermost loop of
    the function ``_compiled`` that ``source`` defines, its back edge
    included."""
    module = compile(source, "<loop>", "exec")
    (code,) = [c for c in module.co_consts if getattr(c, "co_name", None) == "_compiled"]
    instructions = list(dis.get_instructions(code))
    # the outermost loop's back edge jumps furthest back
    back = min((i for i in instructions if i.opname == "JUMP_BACKWARD"), key=lambda i: i.argval)
    body = [i for i in instructions if back.argval <= i.offset <= back.offset]
    return len(body), sum(i.opname == "BINARY_OP" for i in body)


def main() -> int:
    first: dict[str, str] = {}  # loop source -> the first job that emitted it
    define = expressions._Codegen.define
    job_id = ""

    def spy(self, source):
        if "while True:" in source:
            first.setdefault(source, job_id)
        return define(self, source)

    expressions._Codegen.define = spy
    jobs = _jobs()
    with tempfile.TemporaryDirectory() as tmp:
        configs = workloads.write_configs(jobs, Path(tmp) / "configs")
        for job, config in zip(jobs, configs):
            job_id = job.job_id
            out = Path(tmp) / "out" / config.stem
            argv = [job.command, "--config", str(config), "--out", str(out)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(argv)
    expressions._Codegen.define = define
    total_ops = total_binary = 0
    print(f"{'ops':>6} {'BINARY_OP':>9}  first job")
    for source, job in first.items():
        ops, binary = loop_counts(source)
        total_ops += ops
        total_binary += binary
        print(f"{ops:6d} {binary:9d}  {job}")
    print(f"{total_ops:6d} {total_binary:9d}  total over {len(first)} loops of {len(jobs)} jobs")
    print(f"Python {platform.python_version()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
