"""Three config blocks are checked for every command.

``load_config`` reads ``structure`` (with ``phase_space``), ``hamiltonian``
and ``cloud.filters`` whenever they are present, whatever the command, so
a bad value in one of them is a config error (exit 2) at its JSON path
even for a command that never uses it.  Other fields beyond a command's
needs are ignored."""

import json
from pathlib import Path

import pytest

from noncanon.cli import EXIT_CONFIG, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name, **changes):
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    doc.update(changes)
    return doc


# name: (command, config, JSON path named by the error)
ROWS = {
    "sweep_bad_cloud_filter": (
        "sweep",
        _fixture("sweep_epsilon.json", cloud={"filters": [{"expr": "q1 +* 1"}]}),
        "$.cloud.filters[0].expr",
    ),
    "hodograph_unknown_structure_kind": (
        "hodograph",
        _fixture("hodograph_log.json", phase_space={"n": 2}, structure={"kind": "bogus"}),
        "$.structure.kind",
    ),
    "hodograph_bad_hamiltonian": (
        "hodograph",
        _fixture("hodograph_log.json", hamiltonian="q1 +* 1"),
        "$.hamiltonian",
    ),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_shared_block_is_checked_for_every_command(name, tmp_path, capsys):
    command, doc, json_path = ROWS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith(f"config error: {json_path}: "), err
