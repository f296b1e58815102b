"""The CSV writer: rows of Python floats go through one ``%.17g`` row
template with the bytes of :func:`format_value`, any other row falls back
to :func:`format_value`, and a trajectory is streamed block by block
rather than held whole as text."""

import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noncanon import artifacts, cli
from noncanon.artifacts import ROW_BLOCK, format_value, trajectory_rows, write_csv
from noncanon.dynamics import Trajectory

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 2.2250738585072014e-308]
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_SPECIAL))


def _expected(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(map(format_value, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _written(path, header, rows) -> bytes:
    write_csv(path, header, rows)
    return path.read_bytes()


@st.composite
def float_tables(draw):
    width = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(FLOATS, min_size=width, max_size=width), max_size=12))
    return [f"c{i}" for i in range(width)], rows


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(float_tables())
def test_float_rows_take_the_template_with_format_value_bytes(tmp_path, table):
    header, rows = table
    path = tmp_path / "table.csv"
    # Python floats never reach format_value
    with mock.patch.object(artifacts, "format_value", side_effect=AssertionError):
        data = _written(path, header, rows)
    assert data == _expected(header, rows)
    # the same values as numpy scalars give the same bytes
    assert _written(path, header, [[np.float64(v) for v in row] for row in rows]) == data
    for row in rows:
        for v in row:
            assert "%.17g" % np.float64(v) == format_value(v)


@pytest.mark.parametrize(
    "row",
    [
        [True, 1.5, 2.5],
        [1.5, False, 2.5],
        [1, 2.0, 3.0],
        [10**20, 0.5, 0.25],
        [1.5, "x", 2.5],
        [None, 1.5, 2.5],
        [1.5, 2.5],
        [1.5, 2.5, 3.5, 4.5],
    ],
    ids=["bool", "false", "int", "big_int", "str", "none", "short", "long"],
)
def test_other_rows_fall_back_to_format_value(tmp_path, row):
    header = ["a", "b", "c"]
    rows = [[0.5, 0.25, 0.125], row, [1.0, 2.0, 3.0]]
    assert _written(tmp_path / "mixed.csv", header, rows) == _expected(header, rows)


def test_no_rows_is_the_header_line(tmp_path):
    assert _written(tmp_path / "empty.csv", ["t", "q1"], []) == b"t,q1\n"
    assert _written(tmp_path / "empty.csv", ["t", "q1"], iter(())) == b"t,q1\n"


@pytest.mark.parametrize("length", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
def test_trajectory_rows_across_blocks(length):
    rng = np.random.default_rng(length)
    states = rng.normal(size=(length, 4))
    monitors = {"c_1": rng.normal(size=length), "H": rng.normal(size=length)}
    traj = Trajectory(times=0.01 * np.arange(length), states=states, monitors=monitors)
    header, rows = trajectory_rows(traj, ["q1", "q2", "p1", "p2"])
    assert header == ["t", "q1", "q2", "p1", "p2", "H", "c_1"]
    rows = list(rows)
    expected = [
        [float(traj.times[k]), *map(float, states[k]), float(monitors["H"][k]), float(monitors["c_1"][k])]
        for k in range(length)
    ]
    assert rows == expected
    assert all(type(v) is float for row in rows for v in row)


def test_trajectory_export_streams(tmp_path):
    cfg = cli.load_config(FIXTURES / "integrate_singular_field.json")
    captured = {}

    def capture(path, header, rows):
        captured.update(path=path, header=header, rows=rows)

    with mock.patch.object(cli, "write_csv", capture):
        cli._cmd_integrate(cfg, tmp_path, None)
    tracemalloc.start()
    try:
        write_csv(captured["path"], captured["header"], captured["rows"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    path = captured["path"]
    size = path.stat().st_size
    with path.open(encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 10_002
    assert peak < size / 2, (peak, size)


def test_cli_csv_rows_are_python_floats(tmp_path):
    # every CSV the commands write takes the template path
    seen = []

    def record(path, header, rows):
        rows = list(rows)
        seen.append(Path(path).name)
        assert all(type(v) is float for row in rows for v in row), Path(path).name
        artifacts.write_csv(path, header, rows)

    fixtures = {
        "check-jacobi": "check_jacobi_singular_field.json",
        "hodograph": "hodograph_linear_sweep.json",
        "reduce": "reduce_singular_field.json",
    }
    with mock.patch.object(cli, "write_csv", record):
        for command, name in fixtures.items():
            cli.run(command, cli.load_config(FIXTURES / name), tmp_path / command)
        doc = json.loads((FIXTURES / "sweep_epsilon.json").read_text(encoding="utf-8"))
        doc["integrator"]["t_end"] = 0.05
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cli.run("sweep", cli.load_config(path), tmp_path / "sweep")
    assert sorted(seen) == [
        "alpha_sweep.csv",
        "epsilon_sweep.csv",
        "jacobi_points.csv",
        "surface_points.csv",
    ]
