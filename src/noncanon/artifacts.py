"""Deterministic artifact output: CSV at 17 significant digits, standard JSON
with stable key order.  Identical inputs must yield byte-identical files."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# trajectory rows are converted to Python floats this many at a time
ROW_BLOCK = 512

_only_floats = frozenset({float}).issuperset


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)) and not isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Header line, then one line per row, streamed to ``path``.

    A row of as many Python floats as the header has names goes through
    one ``%.17g`` template, which gives the bytes of :func:`format_value`;
    any other row is formatted value by value."""
    width = len(header)
    template = ",".join(["%.17g"] * width) + "\n"

    def lines():
        for row in rows:
            if len(row) == width and _only_floats(map(type, row)):
                yield template % tuple(row)
            else:
                yield ",".join(map(format_value, row)) + "\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines())


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
    """Header and row iterator for the trajectory export: t, the state
    components, H, then the remaining monitors in insertion order.

    Rows are lists of Python floats, stacked :data:`ROW_BLOCK` states at a
    time, so the whole table is never held at once."""
    monitor_names = [m for m in trajectory.monitors if m != "H"]
    header = ["t", *variable_names, "H", *monitor_names]
    columns = [
        trajectory.times,
        trajectory.states,
        trajectory.monitors["H"],
        *(trajectory.monitors[m] for m in monitor_names),
    ]

    def rows():
        for start in range(0, len(trajectory.times), ROW_BLOCK):
            stop = start + ROW_BLOCK
            yield from np.column_stack([c[start:stop] for c in columns]).tolist()

    return header, rows()
