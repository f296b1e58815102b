"""Deterministic artifact output: CSV at 17 significant digits, standard JSON
with stable key order.  Identical inputs must yield byte-identical files.
A CSV is a table of floats, written a float64 block at a time through one
``%.17g`` row template (:func:`write_csv`)."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# the most rows one template formats, and the states per trajectory block
ROW_BLOCK = 512


def write_csv(path, header: Sequence[str], blocks: Iterable[np.ndarray]) -> None:
    """Header line, then the rows of ``blocks``, streamed to ``path``.

    Each block is a 2-D float64 array with one column per header name.
    Each slice of at most :data:`ROW_BLOCK` of its rows is formatted by one
    ``%`` of the row template repeated per row.  ``tolist()`` hands the
    template Python floats, which ``%.17g`` formats as ``format(v, ".17g")``
    does: NaN, infinities, -0.0 and subnormals included."""
    template = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            for start in range(0, len(block), ROW_BLOCK):
                rows = block[start : start + ROW_BLOCK]
                fh.write((template * len(rows)) % tuple(rows.ravel().tolist()))


def _plain(obj):
    """``obj`` as standard JSON values: numpy scalars and arrays become
    Python ones, and a non-finite float becomes the string ``"NaN"``,
    ``"Infinity"`` or ``"-Infinity"``."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else "Infinity" if obj > 0.0 else "-Infinity"
    return obj


def write_json(path, obj) -> None:
    """``obj`` as standard JSON with sorted keys (see :func:`_plain`)."""
    path = Path(path)
    text = json.dumps(_plain(obj), sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def trajectory_rows(trajectory, variable_names: Sequence[str]):
    """Header and block iterator for the trajectory export: t, the state
    components, H, then the remaining monitors in insertion order.

    Blocks are float64 arrays of :data:`ROW_BLOCK` states at a time, so the
    whole table is never held at once."""
    monitor_names = [m for m in trajectory.monitors if m != "H"]
    header = ["t", *variable_names, "H", *monitor_names]
    columns = [
        trajectory.times,
        trajectory.states,
        trajectory.monitors["H"],
        *(trajectory.monitors[m] for m in monitor_names),
    ]

    def blocks():
        for start in range(0, len(trajectory.times), ROW_BLOCK):
            stop = start + ROW_BLOCK
            yield np.column_stack([c[start:stop] for c in columns])

    return header, blocks()
