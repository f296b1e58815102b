"""Correctness check of one job's output against the recorded reference.

A job's record holds its exit code, its checked report values and the
SHA-256 digest of each artifact.  The checked values are every leaf of the
report's ``results`` block plus each assertion's ``passed`` flag, keyed by
dotted path.  A job fails when its exit code differs from the reference, a
checked value is missing or extra, or a value leaves the stated tolerance:

    |value - reference| <= RTOL * |reference| + atol

``atol`` is ``ATOL`` except for a value that one of the job's own
assertions bounds from above (``<=`` or ``<``): such a value is a residual,
and its absolute tolerance is that assertion's threshold, so a residual may
shrink or move within its stated bound.  NaN equals NaN.  Strings, booleans
and nulls must match exactly.  Artifact digests are compared only to report
the share of byte-identical files; they never fail a job.

Reports may hold a bare ``NaN``; ``json.loads`` accepts it.  A later strict
writer may encode non-finite numbers as the strings ``"NaN"``,
``"Infinity"`` and ``"-Infinity"``; those are read as the floats they name.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-8
_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def load_json(path) -> object:
    """Read JSON that may hold bare NaN or Infinity tokens."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _leaf(value):
    if isinstance(value, str) and value in _NON_FINITE:
        return _NON_FINITE[value]
    return value


def flatten(node, prefix: str = "") -> dict:
    """Dotted-path map of every leaf under ``node``; list items use their
    index as the path part."""
    out = {}
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {prefix: _leaf(node)}
    for key, child in items:
        out.update(flatten(child, f"{prefix}.{key}" if prefix else str(key)))
    if not out and prefix:
        out[prefix] = [] if isinstance(node, list) else {}
    return out


def checked_values(report: dict) -> dict:
    values = flatten(report.get("results", {}), "results")
    for i, entry in enumerate(report.get("assertions", [])):
        values[f"assertions.{i}.passed"] = entry.get("passed")
    return values


def residual_bounds(config: dict) -> dict:
    """Absolute tolerance per checked path, from the config's upper-bound
    assertions."""
    bounds = {}
    for spec in config.get("assertions", []):
        if spec.get("op") in ("<=", "<"):
            bounds["results." + spec["value"]] = float(spec["threshold"])
    return bounds


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def collect(out_dir: Path, command: str, exit_code) -> dict:
    """The record of one finished job, in the reference's format."""
    record = {"exit_code": exit_code, "values": {}, "artifacts": {}}
    report_path = out_dir / f"{command}_report.json"
    if not report_path.exists():
        return record
    report = load_json(report_path)
    record["values"] = checked_values(report)
    for name in report.get("artifacts", []):
        path = out_dir / name
        record["artifacts"][name] = file_digest(path) if path.exists() else None
    return record


def _same(value, ref, atol: float) -> bool:
    if isinstance(ref, bool) or isinstance(value, bool):
        return value is ref
    if isinstance(ref, (int, float)) and isinstance(value, (int, float)):
        if math.isnan(ref) or math.isnan(value):
            return math.isnan(ref) and math.isnan(value)
        if math.isinf(ref) or math.isinf(value):
            return value == ref
        return abs(value - ref) <= RTOL * abs(ref) + atol
    return value == ref


def compare(record: dict, ref: dict, config: dict) -> list[str]:
    """Reasons the job fails against its reference; empty when it passes."""
    problems = []
    if record["exit_code"] != ref["exit_code"]:
        problems.append(f"exit code {record['exit_code']} != {ref['exit_code']}")
    bounds = residual_bounds(config)
    values, ref_values = record["values"], ref["values"]
    for path in sorted(set(values) | set(ref_values)):
        if path not in values:
            problems.append(f"{path}: missing")
        elif path not in ref_values:
            problems.append(f"{path}: not in the reference")
        elif not _same(_leaf(values[path]), _leaf(ref_values[path]), bounds.get(path, ATOL)):
            problems.append(f"{path}: {values[path]!r} != {ref_values[path]!r}")
    return problems


def identical_artifacts(record: dict, ref: dict) -> tuple[int, int]:
    """(byte-identical artifacts, artifacts in the reference)."""
    ref_art = ref.get("artifacts", {})
    same = sum(1 for name, digest in ref_art.items() if record["artifacts"].get(name) == digest)
    return same, len(ref_art)
