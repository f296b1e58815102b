"""The CSV writer: 2-D float64 blocks go through one ``%.17g`` template
per slice of at most ``ROW_BLOCK`` rows, with the bytes of a per-value
``format(v, ".17g")`` join, and a trajectory is streamed block by block
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
from test_acceptance import FIXTURE_COMMANDS

from noncanon import artifacts, cli
from noncanon.artifacts import ROW_BLOCK, trajectory_rows, write_csv
from noncanon.dynamics import Trajectory

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 2.2250738585072014e-308]
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_SPECIAL))
LENGTHS = [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]


def _expected(header, table) -> bytes:
    rows = [",".join(format(v, ".17g") for v in row) for row in table.tolist()]
    return ("\n".join([",".join(header), *rows]) + "\n").encode("utf-8")


def _written(path, header, blocks) -> bytes:
    write_csv(path, header, blocks)
    return path.read_bytes()


@st.composite
def float_tables(draw):
    """A header and a float64 table of one of :data:`LENGTHS` rows, its
    values drawn with the special ones and repeated to fill the table."""
    width = draw(st.integers(1, 8))
    length = draw(st.sampled_from(LENGTHS))
    values = draw(st.lists(FLOATS, min_size=1, max_size=3 * width))
    table = np.resize(np.array(values, dtype=np.float64), (length, width))
    return [f"c{i}" for i in range(width)], table


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(float_tables())
def test_float_rows_take_the_template_with_format_value_bytes(tmp_path, table):
    header, table = table
    assert _written(tmp_path / "table.csv", header, [table]) == _expected(header, table)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    table=float_tables(),
    cuts=st.lists(st.integers(0, 2 * ROW_BLOCK + 3), max_size=6),
)
def test_a_long_block_equals_its_pieces(tmp_path, table, cuts):
    header, table = table
    pieces = np.split(table, sorted(min(c, len(table)) for c in cuts))
    whole = _written(tmp_path / "whole.csv", header, [table])
    assert _written(tmp_path / "pieces.csv", header, pieces) == whole


def test_no_rows_is_the_header_line(tmp_path):
    path = tmp_path / "empty.csv"
    assert _written(path, ["t", "q1"], []) == b"t,q1\n"
    assert _written(path, ["t", "q1"], iter(())) == b"t,q1\n"
    assert _written(path, ["t", "q1"], [np.empty((0, 2))]) == b"t,q1\n"


@pytest.mark.parametrize("length", LENGTHS)
def test_trajectory_rows_across_blocks(length):
    rng = np.random.default_rng(length)
    states = rng.normal(size=(length, 4))
    monitors = {"c_1": rng.normal(size=length), "H": rng.normal(size=length)}
    traj = Trajectory(times=0.01 * np.arange(length), states=states, monitors=monitors)
    header, blocks = trajectory_rows(traj, ["q1", "q2", "p1", "p2"])
    assert header == ["t", "q1", "q2", "p1", "p2", "H", "c_1"]
    blocks = list(blocks)
    assert len(blocks) == -(-length // ROW_BLOCK)
    for block in blocks:
        assert block.dtype == np.float64 and block.ndim == 2
        assert block.shape[1] == len(header) and 0 < len(block) <= ROW_BLOCK
    expected = np.column_stack([traj.times, states, monitors["H"], monitors["c_1"]])
    stacked = np.concatenate([np.empty((0, len(header))), *blocks])
    assert stacked.tobytes() == expected.tobytes()


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
    # every CSV the commands write arrives as 2-D float64 blocks
    seen = []

    def record(path, header, blocks):
        blocks = list(blocks)
        seen.append(Path(path).name)
        for block in blocks:
            assert isinstance(block, np.ndarray) and block.dtype == np.float64, Path(path).name
            assert block.ndim == 2 and block.shape[1] == len(header), Path(path).name
        artifacts.write_csv(path, header, blocks)

    fixtures = {
        "check-jacobi": "check_jacobi_singular_field.json",
        "hodograph": "hodograph_linear_sweep.json",
        "integrate": "integrate_singular_field.json",
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
        "trajectory.csv",
    ]


def test_fixture_csvs_read_back_to_their_bytes(tmp_path):
    # every value of every CSV the fixtures write is a float whose %.17g
    # text is the text on disk, whatever this machine's last digits are
    written = []
    for name, command in sorted(FIXTURE_COMMANDS.items()):
        out_dir = tmp_path / name
        cli.run(command, cli.load_config(FIXTURES / name), out_dir)
        written += sorted(out_dir.glob("*.csv"))
    assert len(written) == 11
    for path in written:
        data = path.read_bytes()
        head, *rows = data.decode("utf-8").splitlines()
        header = head.split(",")
        assert all(n.isidentifier() for n in header), path
        assert len(set(header)) == len(header), path
        assert rows, path
        lines = [head]
        for row in rows:
            values = [float(v) for v in row.split(",")]
            assert len(values) == len(header), path
            lines.append(",".join("%.17g" % v for v in values))
        assert ("\n".join(lines) + "\n").encode("utf-8") == data, path
