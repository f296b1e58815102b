"""One row per bad config input: each ends with a documented exit code, a
config error (2) that names its JSON path, or a runtime error (3), never
with a traceback.  The inputs are shipped fixtures with one value changed;
each row used to end otherwise (a traceback and exit 1, a runtime error
for a config mistake, or a silent misread and exit 0)."""

import json
from pathlib import Path

import pytest

from noncanon.cli import EXIT_CONFIG, MAX_N, MAX_POINTS, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _with(name, *keys, value=None, drop=False):
    """Fixture ``name`` with the value at the key path ``keys`` replaced, or
    dropped."""
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if drop:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return doc


def _custom_fg(**values):
    doc = _with("hodograph_log.json", "hodograph", "kind", value="custom-fg")
    doc["hodograph"].update({"f": "alpha*s", "g": "-alpha*s"}, **values)
    doc["hodograph"]["grid"] = {"x": [0.4, 1.4, 3], "y": [-1.0, 1.0, 3]}
    doc["assertions"] = []
    return doc


def _n(n):
    doc = _with("check_jacobi_canonical.json", "phase_space", "n", value=n)
    doc["cloud"]["count"] = 1
    return doc


CANONICAL = "check_jacobi_canonical.json"
FIELD = "check_jacobi_singular_field.json"
OSCILLATOR = "integrate_canonical_oscillator.json"
CONSTANT = "reduce_constant.json"
SWEEP = "sweep_epsilon.json"
LINEAR = "hodograph_linear_sweep.json"
LOGLOG = "hodograph_loglog.json"

# name: (command, config, exit code, text the error names)
CASES = {
    # tracebacks that exited 1
    "assertions_a_number": ("check-jacobi", _with(CANONICAL, "assertions", value=5), 2,
                            "$.assertions"),
    "assertion_a_number": ("check-jacobi", _with(CANONICAL, "assertions", value=[5]), 2,
                           "$.assertions[0]"),
    "custom_fg_f_a_list": ("hodograph", _custom_fg(f=[1, 2]), 2, "$.hodograph.f"),
    "constants_too_short": ("reduce", _with(CONSTANT, "reduction", "constants", value=[1.0]), 2,
                            "$.reduction.constants"),
    "integrate_too_many_steps": (
        "integrate", _with(OSCILLATOR, "integrator", "t_end", value=1e12), 2, "$.integrator"
    ),
    "sweep_too_many_steps": ("sweep", _with(SWEEP, "integrator", "t_end", value=1e12), 2,
                             "$.integrator"),
    "spectrum_too_many_steps": ("reduce", _with(CONSTANT, "reduction", "t_end", value=1e12), 2,
                                "$.reduction"),
    "sweep_theta_zero": ("sweep", _with(SWEEP, "sweep", "theta", value=0), 2, "$.sweep.theta"),
    "sweep_no_epsilons": ("sweep", _with(SWEEP, "sweep", "epsilons", value=[]), 2,
                          "$.sweep.epsilons"),
    "spectrum_one_crossing": ("reduce", _with(CONSTANT, "reduction", "t_end", value=1.0), 3,
                              "zero crossings"),
    "n_max_beyond_the_cap": (
        "reduce", _with(CONSTANT, "reduction", "n_max", value=MAX_POINTS + 1), 2,
        "$.reduction.n_max",
    ),
    "n_beyond_the_cap": ("check-jacobi", _n(MAX_N + 1), 2, "$.phase_space.n"),
    # config mistakes that were runtime errors
    "family_kind_unknown": ("hodograph", _with(LINEAR, "hodograph", "kind", value="bogus"), 2,
                            "$.hodograph.kind"),
    "loglog_branch_unknown": ("hodograph", _with(LOGLOG, "hodograph", "branch", value="x"), 2,
                              "$.hodograph.branch"),
    "linear_without_alpha": (
        "hodograph", _with(LINEAR, "hodograph", "parameters", "alpha", drop=True), 2,
        "$.hodograph.parameters",
    ),
    "generator_does_not_parse": ("hodograph", _custom_fg(f="s +* 1"), 2, "$.hodograph.f"),
    "generator_undeclared_name": ("hodograph", _custom_fg(f="beta*s"), 2, "$.hodograph.f"),
    "alphas_on_loglog": ("hodograph", _with(LOGLOG, "hodograph", "alphas", value=[1.0, 10.0]), 2,
                         "$.hodograph.alphas"),
    "alphas_on_custom_fg": ("hodograph", _custom_fg(alphas=[1.0, 10.0]), 2, "$.hodograph.alphas"),
    "monitor_undeclared_name": ("integrate", _with(OSCILLATOR, "monitors", value={"m": "q9"}), 2,
                                "$.monitors.m"),
    "cloud_filter_undeclared_name": (
        "check-jacobi", _with(FIELD, "cloud", "filters", 0, "expr", value="z"), 2,
        "$.cloud.filters[0].expr",
    ),
    "grid_filter_undeclared_name": (
        "hodograph", _with(LINEAR, "hodograph", "grid", "filters", value=[{"expr": "z", "min": 0}]),
        2, "$.hodograph.grid.filters[0].expr",
    ),
    # silent misreads that exited 0
    "cloud_count_fractional": ("check-jacobi", _with(CANONICAL, "cloud", "count", value=2.9), 2,
                               "$.cloud.count"),
    "cloud_count_a_bool": ("check-jacobi", _with(CANONICAL, "cloud", "count", value=True), 2,
                           "$.cloud.count"),
    "cloud_count_a_string": ("check-jacobi", _with(CANONICAL, "cloud", "count", value="3"), 2,
                             "$.cloud.count"),
    "seed_fractional": ("check-jacobi", _with(CANONICAL, "seed", value=7.9), 2, "$.seed"),
    "tolerance_a_string": ("check-jacobi", _with(CANONICAL, "tolerance", value="1e-3"), 2,
                           "$.tolerance"),
    "sweep_dt_a_string": ("sweep", _with(SWEEP, "integrator", "dt", value="0.001"), 2,
                          "$.integrator.dt"),
    "spectrum_a_string": ("reduce", _with(CONSTANT, "reduction", "spectrum", value="no"), 2,
                          "$.reduction.spectrum"),
    "grid_count_fractional": (
        "hodograph", _with(LINEAR, "hodograph", "grid", "x", 2, value=30.9), 2,
        "$.hodograph.grid.x[2]",
    ),
    "band_a_bool": ("hodograph", _with(LINEAR, "hodograph", "grid", "band", value=True), 2,
                    "$.hodograph.grid.band"),
    "family_parameter_a_string": (
        "hodograph", _with(LINEAR, "hodograph", "parameters", "alpha", value="1.0"), 2,
        "$.hodograph.parameters.alpha",
    ),
    "initial_state_a_bool": ("integrate", _with(OSCILLATOR, "initial_state", value=[True, 0]), 2,
                             "$.initial_state[0]"),
    "alpha_a_string": ("hodograph", _with(LINEAR, "hodograph", "alphas", value=[1, "10"]), 2,
                       "$.hodograph.alphas[1]"),
}


def run_config(tmp_path, capsys, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_exit_code(tmp_path, capsys, case):
    command, doc, expected, detail = CASES[case]
    code, err = run_config(tmp_path, capsys, command, doc)
    assert code == expected, err
    if expected == EXIT_CONFIG:
        assert err.startswith(f"config error: {detail}"), err
    else:
        assert err.startswith("runtime error: ") and detail in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000, None])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, content):
    # bytes that are not UTF-8, JSON nested beyond the parser's depth, and
    # a directory in place of a file
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = main(["check-jacobi", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith("config error: $: invalid JSON"), err
