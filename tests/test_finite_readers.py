"""Every number a config gives is finite, through one reader.

JSON numbers such as ``1e309`` parse to infinity, and an integer such as
``1`` followed by 400 zeros parses to a Python int too large for a float.
Each float the config reader takes goes through ``cli._as``, which refuses
either one as a config error (exit 2) with "expected a finite number" at
the number's JSON path, and no artifact is written.  An expression literal
that overflows a float is a parse error at its offset in the expression.
Before, these readers let an infinity through: a sweep or hodograph run
ended as a runtime error (exit 3), a filter bound rejected every sample
and an infinite assertion threshold always passed."""

import json
from pathlib import Path

import pytest

from noncanon.cli import EXIT_CONFIG, main
from noncanon.expressions import ParseError, parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NUMBER = "@number@"
HUGE_INTEGER = "1" + "0" * 400


def _config_text(name, *keys, value, literal):
    """Fixture ``name`` as JSON text with ``value`` at the key path ``keys``
    (objects on the way made when missing), where each :data:`NUMBER` in
    ``value`` is written as the number ``literal``."""
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    node = doc
    for key in keys[:-1]:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    node[keys[-1]] = value
    return json.dumps(doc).replace(f'"{NUMBER}"', literal)


def run_text(tmp_path, capsys, command, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.err, out


# name: (command, fixture, key path, value, number as written, JSON path)
CASES = {
    "parameter": ("integrate", "integrate_canonical_oscillator.json", ("parameters", "k"),
                  NUMBER, "1e309", "$.parameters.k"),
    "sweep_theta": ("sweep", "sweep_epsilon.json", ("sweep", "theta"), NUMBER, "1e309",
                    "$.sweep.theta"),
    "hodograph_alpha": ("hodograph", "hodograph_log.json", ("hodograph", "parameters", "alpha"),
                        NUMBER, "1e309", "$.hodograph.parameters.alpha"),
    "grid_band": ("hodograph", "hodograph_log.json", ("hodograph", "grid", "band"), NUMBER,
                  "1e309", "$.hodograph.grid.band"),
    "filter_min_abs": ("check-jacobi", "check_jacobi_canonical.json", ("cloud", "filters"),
                       [{"expr": "q1", "min_abs": NUMBER}], "1e309",
                       "$.cloud.filters[0].min_abs"),
    "filter_min": ("check-jacobi", "check_jacobi_canonical.json", ("cloud", "filters"),
                   [{"expr": "q1", "min": NUMBER}], "-1e309", "$.cloud.filters[0].min"),
    "assertion_threshold": ("sweep", "sweep_epsilon.json", ("assertions", 0, "threshold"),
                            NUMBER, "1e309", "$.assertions[0].threshold"),
    "huge_integer": ("sweep", "sweep_epsilon.json", ("sweep", "theta"), NUMBER, HUGE_INTEGER,
                     "$.sweep.theta"),
    "huge_integer_in_a_list": ("integrate", "integrate_canonical_oscillator.json",
                               ("initial_state", 1), NUMBER, f"-{HUGE_INTEGER}",
                               "$.initial_state[1]"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_non_finite_number_is_refused_at_its_path(tmp_path, capsys, case):
    command, name, keys, value, literal, json_path = CASES[case]
    text = _config_text(name, *keys, value=value, literal=literal)
    code, err, out = run_text(tmp_path, capsys, command, text)
    assert code == EXIT_CONFIG, err
    assert err == f"config error: {json_path}: expected a finite number\n"
    assert not out.exists() or not any(out.iterdir())


def test_an_overflowing_literal_is_a_parse_error_at_its_offset():
    with pytest.raises(ParseError, match="at offset 4 in") as info:
        parse("2 + 1e309*q1")
    assert info.value.position == 4
    assert parse("1.7976931348623157e308").value == 1.7976931348623157e308


def test_an_overflowing_hamiltonian_literal_is_a_config_error(tmp_path, capsys):
    source = "1e309*q1 + p1^2"
    doc = json.loads((FIXTURES / "integrate_canonical_oscillator.json").read_text(encoding="utf-8"))
    doc["hamiltonian"] = source
    code, err, out = run_text(tmp_path, capsys, "integrate", json.dumps(doc))
    assert code == EXIT_CONFIG, err
    assert err == (
        f"config error: $.hamiltonian: number '1e309' overflows a float at offset 0 in "
        f"{source!r}\n"
    )
    assert not out.exists() or not any(out.iterdir())
