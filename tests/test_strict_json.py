"""Every JSON artifact is standard JSON: ``write_json`` converts numpy
values to Python ones and writes a non-finite float as the string
``"NaN"``, ``"Infinity"`` or ``"-Infinity"``, never as a bare token."""

import json
import math
from pathlib import Path

import numpy as np

from noncanon.artifacts import write_json
from noncanon.cli import EXIT_ASSERTION, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _reject(token):
    raise AssertionError(f"bare {token} in a JSON artifact")


def _strict(text):
    return json.loads(text, parse_constant=_reject)


def test_non_finite_and_numpy_values(tmp_path):
    path = tmp_path / "out.json"
    write_json(
        path,
        {
            "nan": math.nan,
            "inf": math.inf,
            "-inf": -math.inf,
            "f64": np.float64(0.1),
            "f64_nan": np.float64("nan"),
            "i64": np.int64(7),
            "flag": np.bool_(True),
            "array": np.array([[1.5, np.inf], [-np.inf, np.nan]]),
            "tuple": (1, 2.5),
            3: "int key",
        },
    )
    text = path.read_text(encoding="utf-8")
    assert _strict(text) == {
        "nan": "NaN",
        "inf": "Infinity",
        "-inf": "-Infinity",
        "f64": 0.1,
        "f64_nan": "NaN",
        "i64": 7,
        "flag": True,
        "array": [[1.5, "Infinity"], ["-Infinity", "NaN"]],
        "tuple": [1, 2.5],
        "3": "int key",
    }
    assert '"f64": 0.1,' in text  # the shortest repr, as for a Python float


def test_finite_values_keep_their_bytes(tmp_path):
    doc = {"b": [0.1, -0.0, 1e-310, 1.7976931348623157e308], "a": {"x": 2, "y": None}}
    write_json(tmp_path / "out.json", doc)
    want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == want


def test_failed_fit_writes_strict_json(tmp_path, capsys):
    # a huge detuning leaves no finite drift to fit: the slope is NaN and
    # the assertion on it fails, so the run exits 1 with its report written
    doc = json.loads((FIXTURES / "sweep_epsilon.json").read_text(encoding="utf-8"))
    doc["sweep"]["epsilons"] = [0.01, 1e300]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = main(["sweep", "--config", str(config), "--out", str(out)])
    assert code == EXIT_ASSERTION
    assert "(observed nan)" in capsys.readouterr().out
    report = _strict((out / "sweep_report.json").read_text(encoding="utf-8"))
    assert report["results"]["slope_error_from_unity"] == "NaN"
    assert report["results"]["fitted_slope"] == "NaN"
    assert report["assertions"][0]["observed"] == "NaN"
