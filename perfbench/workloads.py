"""Seeded job lists for the three benchmark workloads.

A job is one ``noncanon <command> --config <file>`` invocation.  Each
workload is a fixed sequence of slots.  A slot is either a shipped fixture
(read byte for byte from ``fixtures/``), a seeded slot, or one of the tail
jobs that every workload ends with.

A seeded slot has a catalogue of ``VARIANTS`` configs.  Variant ``i`` of a
slot is built from its own generator, ``random.Random("<slot>:<i>")``, so the
catalogue never changes; the benchmark seed only chooses one variant per
slot.  That keeps the set of possible jobs finite, and ``reference.json``
holds a recorded answer for every one of them.  Variants of one slot differ
in coefficients, ranges, initial states and cloud seeds, never in the amount
of work (step counts, point counts and grid sizes are fixed per slot), so
the seed moves the inputs without moving the cost.

Only the standard library is used here: generation must not depend on the
program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8


@dataclass(frozen=True)
class Job:
    job_id: str        # reference key: "fixture:<name>", "<slot>:<i>" or "tail:<name>"
    command: str       # noncanon sub-command
    config_text: str   # exact bytes of the config file, as UTF-8 text

    @property
    def file_name(self) -> str:
        return self.job_id.replace(":", "__").replace(".", "_") + ".json"


def _dump(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def _r(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _quadratic(rng: random.Random, names) -> str:
    """A positive-definite diagonal quadratic Hamiltonian; its level sets are
    bounded, so every flow of it stays in a compact set."""
    terms = [f"{_r(rng, 0.6, 1.4)}*{name}^2" for name in names]
    return "(" + " + ".join(terms) + ")/2"


def _state(rng: random.Random, dim: int, lo: float = -1.0, hi: float = 1.0) -> list:
    return [_r(rng, lo, hi) for _ in range(dim)]


def _energy_assertion(threshold: float) -> dict:
    return {"name": "energy is conserved", "value": "monitors.H.max_drift",
            "op": "<=", "threshold": threshold}


# ---------------------------------------------------------------------------
# trajectory slots: one long sequential flow per job


def _traj_planar(rng: random.Random) -> tuple[str, dict]:
    a, b, c = _r(rng, 0.8, 1.2), _r(rng, 0.2, 0.6), _r(rng, 0.8, 1.2)
    return "integrate", {
        "version": 1,
        "phase_space": {"n": 2},
        "structure": {
            "kind": "general-planar",
            "theta": f"{a} + {b}*q1^2",
            "f": f"{c}/({a} + {b}*q1^2)",
            "g11": "1", "g12": "0", "g21": "0", "g22": f"{_r(rng, 0.8, 1.2)}",
        },
        "hamiltonian": _quadratic(rng, ("q1", "q2", "p1", "p2")),
        "initial_state": _state(rng, 4),
        "integrator": {"method": "rk4", "dt": 0.001, "t_end": 4.0},
        "assertions": [_energy_assertion(1e-7)],
    }


def _traj_field3(rng: random.Random) -> tuple[str, dict]:
    names = ("q1", "q2", "q3", "p1", "p2", "p3")
    return "integrate", {
        "version": 1,
        "phase_space": {"n": 3},
        "structure": {
            "kind": "theta-f-field",
            "theta": {"1,2": f"{_r(rng, 0.3, 0.8)}*cos(q3)", "2,3": f"{_r(rng, 0.2, 0.6)}*p1"},
            "f": {"1,3": f"{_r(rng, 0.2, 0.6)}*sin(q2)"},
        },
        "hamiltonian": _quadratic(rng, names),
        "initial_state": _state(rng, 6),
        "integrator": {"method": "rk4", "dt": 0.001, "t_end": 2.0},
        "assertions": [_energy_assertion(1e-7)],
    }


def _traj_midpoint(rng: random.Random) -> tuple[str, dict]:
    return "integrate", {
        "version": 1,
        "phase_space": {"n": 2},
        "structure": {"kind": "constant-theta-f", "theta": _r(rng, 0.5, 1.5), "f": _r(rng, -1.0, 1.0)},
        "hamiltonian": _quadratic(rng, ("q1", "q2", "p1", "p2")),
        "initial_state": _state(rng, 4),
        "integrator": {"method": "midpoint", "dt": 0.001, "t_end": 3.0},
        # implicit midpoint keeps quadratic invariants up to its solver slack
        "assertions": [_energy_assertion(1e-9)],
    }


# ---------------------------------------------------------------------------
# sweep slots: many independent flows of one structure family


def _sweep(rng: random.Random) -> tuple[str, dict]:
    # With theta*f = 1 - eps the frozen combinations move at rate eps*p, so
    # their drift is eps times an eps-independent integral plus O(eps^2).
    # eps_max * t_end <= 0.1 keeps every detuning in that linear regime.
    t_end = 1.5
    eps_max = _r(rng, 0.01, 0.04)
    epsilons = [float(f"{eps_max * 10 ** (-0.6 * k):.4g}") for k in range(5)]
    x0 = _state(rng, 4, 0.3, 1.0)
    x0 = [v * (1 if rng.random() < 0.5 else -1) for v in x0]
    return "sweep", {
        "version": 1,
        "hamiltonian": _quadratic(rng, ("q1", "q2", "p1", "p2")),
        "initial_state": x0,
        "integrator": {"method": "rk4", "dt": 0.001, "t_end": t_end},
        "sweep": {"theta": _r(rng, 0.5, 2.0), "epsilons": epsilons},
        "assertions": [
            {"name": "drift scales linearly with the detuning",
             "value": "slope_error_from_unity", "op": "<=", "threshold": 0.05},
        ],
    }


# ---------------------------------------------------------------------------
# survey slots: many independent points, no time chain


_JACOBI_HOLDS = {"name": "generic jacobi residual vanishes", "value": "generic_max",
                 "op": "<=", "threshold": 1e-10}


def _survey_singular_cloud(rng: random.Random) -> tuple[str, dict]:
    # ranges straddle q1 = 0 and p2 = 0, so the filters reject part of the draw
    lo_q, lo_p = _r(rng, -0.8, -0.4), _r(rng, -0.8, -0.4)
    return "check-jacobi", {
        "version": 1,
        "phase_space": {"n": 2},
        "structure": {"kind": "theta-f-field", "theta": {"1,2": "-q1/p2"}, "f": {"1,2": "-p2/q1"}},
        "cloud": {
            "count": 2000,
            "ranges": {"q1": [lo_q, 1.8], "q2": [-1.5, 1.5], "p1": [-1.5, 1.5], "p2": [lo_p, 1.8]},
            "filters": [{"expr": "q1", "min_abs": 0.2}, {"expr": "p2", "min_abs": 0.2}],
        },
        "seed": rng.randrange(1, 10**6),
        "assertions": [
            _JACOBI_HOLDS,
            {"name": "structure is degenerate everywhere", "value": "inverse_pairing_max",
             "op": "<=", "threshold": 1e-12},
        ],
    }


def _survey_planar_cloud(rng: random.Random) -> tuple[str, dict]:
    # theta = 1/v and f = u for the linear hodograph pair u, v in x = q1,
    # y = p2 solve the planar transport constraints, so Jacobi holds exactly
    alpha = _r(rng, 0.8, 1.5)
    u = f"(-(p2/q1) + q1/(2*{alpha}))"
    v = f"(-(p2/q1) - q1/(2*{alpha}))"
    return "check-jacobi", {
        "version": 1,
        "phase_space": {"n": 2},
        "structure": {
            "kind": "general-planar",
            "theta": f"1/{v}", "f": u,
            "g11": "1", "g12": "0", "g21": "0", "g22": "1",
        },
        "cloud": {
            "count": 1000,
            "ranges": {"q1": [_r(rng, 0.4, 0.6), 1.5], "p2": [_r(rng, 0.4, 0.6), 1.5]},
        },
        "seed": rng.randrange(1, 10**6),
        "assertions": [_JACOBI_HOLDS],
    }


def _survey_field3_cloud(rng: random.Random) -> tuple[str, dict]:
    # {q1, {q2, p3}} + cyclic = -a exactly, so the residual is at least a
    a = _r(rng, 0.5, 1.5)
    return "check-jacobi", {
        "version": 1,
        "phase_space": {"n": 3},
        "structure": {
            "kind": "theta-f-field",
            "theta": {"1,2": f"{a}*q3", "1,3": f"{_r(rng, 0.2, 0.8)}"},
            "f": {"2,3": f"{_r(rng, 0.2, 0.8)}*sin(p1)"},
        },
        "cloud": {"count": 400},
        "seed": rng.randrange(1, 10**6),
        "assertions": [
            {"name": "violation is detected", "value": "generic_max", "op": ">=", "threshold": 0.4},
        ],
    }


def _survey_surface(rng: random.Random) -> tuple[str, dict]:
    lo1, lo2 = _r(rng, 0.7, 0.9), _r(rng, 0.7, 0.9)
    return "reduce", {
        "version": 1,
        "phase_space": {"n": 2},
        "structure": {"kind": "theta-f-field", "theta": {"1,2": "-q1/p2"}, "f": {"1,2": "-p2/q1"}},
        "seed": rng.randrange(1, 10**6),
        "reduction": {
            "reference_point": [_r(rng, 0.9, 1.2), _r(rng, 0.2, 0.6), _r(rng, 0.1, 0.4), _r(rng, 1.8, 2.2)],
            "surface_points": 2000,
            "surface_parameter_ranges": {"p1": [lo1, lo1 + 0.8], "p2": [lo2, lo2 + 0.8]},
        },
        "assertions": [
            {"name": "degeneracy condition holds", "value": "reduction.condition_residuals.inverse_pairing",
             "op": "<=", "threshold": 1e-12},
            {"name": "reduced bracket is constant on the surface", "value": "reduction.spread",
             "op": "<=", "threshold": 1e-9},
            {"name": "total variations vanish", "value": "total_variation_max", "op": "<=", "threshold": 1e-9},
            {"name": "surface map matches minus theta",
             "value": "reduction.dual_relation_residuals.dq_dp_plus_theta", "op": "<=", "threshold": 1e-6},
        ],
    }


_PDE_HOLDS = [
    {"name": "first transport equation holds", "value": "pde.max_res_u", "op": "<=", "threshold": 1e-8},
    {"name": "second transport equation holds", "value": "pde.max_res_v", "op": "<=", "threshold": 1e-8},
]
_INVERTIBLE = {"name": "variable swap stays invertible", "value": "jacobian_min", "op": ">", "threshold": 1e-12}


def _survey_linear(rng: random.Random) -> tuple[str, dict]:
    alpha = _r(rng, 0.8, 1.5)
    return "hodograph", {
        "version": 1,
        "hodograph": {
            "kind": "linear",
            "parameters": {"alpha": alpha},
            "grid": {"x": [-1.0, _r(rng, 0.8, 1.2), 61], "y": [-1.0, _r(rng, 0.8, 1.2), 61], "band": 0.05},
            "alphas": [alpha, 10 * alpha, 100 * alpha],
        },
        "assertions": [
            *_PDE_HOLDS,
            {"name": "deviation decays at first order", "value": "sweep.fitted_order", "op": ">=", "threshold": 0.99},
            _INVERTIBLE,
        ],
    }


def _survey_log(rng: random.Random) -> tuple[str, dict]:
    return "hodograph", {
        "version": 1,
        "hodograph": {
            "kind": "log",
            "parameters": {"alpha": _r(rng, 0.8, 1.5), "u0": _r(rng, 0.5, 1.5)},
            "grid": {"x": [0.5, _r(rng, 2.5, 3.0), 45], "y": [-2.0, 2.0, 45]},
        },
        "assertions": [*_PDE_HOLDS, _INVERTIBLE],
    }


def _survey_loglog(rng: random.Random) -> tuple[str, dict]:
    return "hodograph", {
        "version": 1,
        "hodograph": {
            "kind": "loglog",
            "parameters": {"alpha": _r(rng, 0.8, 1.5), "u0": _r(rng, 0.2, 0.35), "v0": _r(rng, 0.15, 0.3)},
            "branch": rng.choice(["+", "-"]),
            "grid": {"x": [-1.0, 1.0, 35], "y": [_r(rng, 1.0, 1.3), 3.0, 35]},
        },
        "assertions": [
            *_PDE_HOLDS,
            {"name": "the two roots never merge", "value": "min_u_minus_v", "op": ">", "threshold": 0.001},
            {"name": "root product identity", "value": "root_product_residual", "op": "<=", "threshold": 1e-9},
        ],
    }


def _survey_custom_fg(rng: random.Random) -> tuple[str, dict]:
    lo = _r(rng, 0.3, 0.5)
    return "hodograph", {
        "version": 1,
        "hodograph": {
            "kind": "custom-fg",
            "parameters": {"alpha": _r(rng, 0.8, 1.5)},
            "f": "alpha*s", "g": "-alpha*s",
            "grid": {"x": [lo, lo + 1.0, 11], "y": [-1.0, 1.0, 11]},
        },
        # central differences of the Newton inverse: residual about 1e-8
        "assertions": [
            {"name": "first transport equation holds", "value": "pde.max_res_u", "op": "<=", "threshold": 1e-6},
            {"name": "second transport equation holds", "value": "pde.max_res_v", "op": "<=", "threshold": 1e-6},
            _INVERTIBLE,
        ],
    }


# ---------------------------------------------------------------------------
# tail: the same five small jobs end every workload, so every layer lies on
# every workload's path and no per-layer time is a constant zero


def _tail() -> list[Job]:
    specs = {
        "cloud": ("check-jacobi", {
            "version": 1, "phase_space": {"n": 2},
            "structure": {"kind": "theta-f-field", "theta": {"1,2": "q2"}},
            "cloud": {"count": 10}, "seed": 5,
            "assertions": [{"name": "violation is detected", "value": "generic_max", "op": ">=", "threshold": 0.9}],
        }),
        "reduce": ("reduce", {
            "version": 1, "phase_space": {"n": 2},
            "structure": {"kind": "constant-theta-f", "theta": 1.0, "f": 1.0},
            "hamiltonian": "(p1^2 + p2^2 + q1^2 + q2^2)/2", "seed": 6,
            "reduction": {"reference_point": [1.0, 0.0, 0.0, -1.0], "surface_points": 10,
                          "spectrum": True, "n_max": 3, "dt": 0.01, "t_end": 10.0},
            "assertions": [{"name": "reduced frequency matches orbit frequency",
                            "value": "spectrum.omega_mismatch", "op": "<=", "threshold": 1e-2}],
        }),
        "sweep": ("sweep", {
            "version": 1, "hamiltonian": "(p1^2 + p2^2 + q1^2 + q2^2)/2",
            "initial_state": [1.0, 0.3, -0.2, -0.8],
            "integrator": {"method": "rk4", "dt": 0.001, "t_end": 0.1},
            "sweep": {"theta": 1.0, "epsilons": [0.01, 0.001]},
            "assertions": [{"name": "drift scales linearly with the detuning",
                            "value": "slope_error_from_unity", "op": "<=", "threshold": 0.05}],
        }),
        "linear": ("hodograph", {
            "version": 1,
            "hodograph": {"kind": "linear", "parameters": {"alpha": 1.0},
                          "grid": {"x": [-1.0, 1.0, 6], "y": [-1.0, 1.0, 6], "band": 0.05},
                          "alphas": [1.0, 10.0]},
            "assertions": [{"name": "deviation decays at first order", "value": "sweep.fitted_order",
                            "op": ">=", "threshold": 0.99}],
        }),
        "custom_fg": ("hodograph", {
            "version": 1,
            "hodograph": {"kind": "custom-fg", "parameters": {"alpha": 1.0},
                          "f": "alpha*s", "g": "-alpha*s",
                          "grid": {"x": [0.4, 1.4, 3], "y": [-1.0, 1.0, 3]}},
            "assertions": [{"name": "variable swap stays invertible", "value": "jacobian_min",
                            "op": ">", "threshold": 1e-12}],
        }),
    }
    return [Job(f"tail:{name}", cmd, _dump(cfg)) for name, (cmd, cfg) in specs.items()]


# ---------------------------------------------------------------------------
# workload definitions

SLOTS = {
    "traj.planar": _traj_planar,
    "traj.field3": _traj_field3,
    "traj.midpoint": _traj_midpoint,
    "sweep.a": _sweep,
    "sweep.b": _sweep,
    "survey.singular_cloud": _survey_singular_cloud,
    "survey.planar_cloud": _survey_planar_cloud,
    "survey.field3_cloud": _survey_field3_cloud,
    "survey.surface": _survey_surface,
    "survey.linear": _survey_linear,
    "survey.log": _survey_log,
    "survey.loglog": _survey_loglog,
    "survey.custom_fg": _survey_custom_fg,
}

FIXTURE_COMMANDS = {
    "integrate_canonical_oscillator": "integrate",
    "integrate_constant_identification": "integrate",
    "integrate_singular_field": "integrate",
    "reduce_constant": "reduce",
    "sweep_epsilon": "sweep",
}

# "fixture:<name>" entries are shipped configs; every other entry is a slot
WORKLOADS = {
    "trajectory": [
        "fixture:integrate_canonical_oscillator",
        "fixture:integrate_constant_identification",
        "fixture:integrate_singular_field",
        "traj.planar",
        "traj.field3",
        "traj.midpoint",
        "fixture:reduce_constant",
    ],
    "sweep": ["fixture:sweep_epsilon", "sweep.a", "sweep.b"],
    "survey": [
        "survey.singular_cloud",
        "survey.planar_cloud",
        "survey.field3_cloud",
        "survey.surface",
        "survey.linear",
        "survey.log",
        "survey.loglog",
        "survey.custom_fg",
    ],
}


def variant(slot: str, index: int) -> Job:
    """Catalogue entry ``index`` of a seeded slot."""
    command, cfg = SLOTS[slot](random.Random(f"{slot}:{index}"))
    return Job(f"{slot}:{index}", command, _dump(cfg))


def fixture_job(root: Path, name: str) -> Job:
    path = root / "fixtures" / f"{name}.json"
    return Job(f"fixture:{name}", FIXTURE_COMMANDS[name], path.read_text(encoding="utf-8"))


def jobs_for(workload: str, seed: int, root: Path) -> list[Job]:
    """The workload's jobs for ``seed``, in run order."""
    rng = random.Random(seed)
    jobs = []
    for entry in WORKLOADS[workload]:
        if entry.startswith("fixture:"):
            jobs.append(fixture_job(root, entry.split(":", 1)[1]))
        else:
            jobs.append(variant(entry, rng.randrange(VARIANTS)))
    return jobs + _tail()


def all_jobs(root: Path) -> list[Job]:
    """Every job any seed can produce: the fixtures, every catalogue
    variant and the tail."""
    jobs = [fixture_job(root, name) for name in FIXTURE_COMMANDS]
    jobs += [variant(slot, i) for slot in SLOTS for i in range(VARIANTS)]
    return jobs + _tail()


def write_configs(jobs: list[Job], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = directory / job.file_name
        path.write_text(job.config_text, encoding="utf-8")
        paths.append(path)
    return paths
