"""Batch command-line runner.

    noncanon <command> --config <path> [--out <dir>] [--seed <u64>] [--tol <float>]

Commands: check-jacobi, integrate, reduce, sweep, hodograph.  Every run is
driven by a versioned JSON config, writes deterministic artifacts (CSV at
17 significant digits, JSON with sorted keys) into the output directory,
and evaluates the config's assertion list against the produced report.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 config error,
3 runtime numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import hodograph as hg
from . import reduction as red
from .artifacts import trajectory_rows, write_csv, write_json
from .brackets import (
    DELTA_KINDS,
    PoissonStructure,
    StructureError,
    canonical,
    constant_theta_f,
    custom,
    general_planar,
    phase_variable_names,
    theta_f_field,
)
from .dynamics import FlowProblem, IntegrationError, integrate, zero_crossing_frequency
from .expressions import DomainError, ExpressionError, ParseError, free_names, parse

CONFIG_VERSION = 1
COMMANDS = ("check-jacobi", "integrate", "reduce", "sweep", "hodograph")
RNG_ALGORITHM = "pcg64"
# the most points a config may ask a cloud, a surface sample or a grid for
MAX_POINTS = 1_000_000

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Schema or expression problem, annotated with the JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.json_path = path


# ---------------------------------------------------------------------------
# Config loading


def _require(obj: dict, key: str, kind, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required key")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}.{key}", f"expected a number, got {type(value).__name__}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{key}", f"expected an integer, got {type(value).__name__}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(
            f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _convert(value, convert, path: str):
    """``convert(value)``, as a config error at ``path`` when it does not apply."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"cannot read {value!r} as {convert.__name__}") from None


def _block(obj: dict, key: str, path: str = "$") -> dict:
    """The object at ``key`` of a config block, ``{}`` when absent."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key}", f"expected an object, got {type(value).__name__}")
    return value


def _scalar(block: dict, key: str, convert, default, path: str = "$"):
    """``convert`` applied to an optional value of a config block."""
    return _convert(block.get(key, default), convert, f"{path}.{key}")


def _point_count(block: dict, key: str, default: int, low: int, path: str) -> int:
    """An optional point count of a config block, from ``low`` to
    :data:`MAX_POINTS`."""
    count = _scalar(block, key, int, default, path)
    if not low <= count <= MAX_POINTS:
        raise ConfigError(f"{path}.{key}", f"expected a count from {low} to {MAX_POINTS}")
    return count


def _numbers(values, path: str) -> list[float]:
    """A config list read as floats."""
    if not isinstance(values, list):
        raise ConfigError(path, f"expected a list, got {type(values).__name__}")
    return [_convert(v, float, f"{path}[{i}]") for i, v in enumerate(values)]


def _state(block: dict, key: str, dim: int, path: str) -> list[float]:
    """A required phase-space point of length ``dim``."""
    values = _numbers(_require(block, key, list, path), f"{path}.{key}")
    if len(values) != dim:
        raise ConfigError(f"{path}.{key}", f"expected {dim} numbers, got {len(values)}")
    return values


def _check_integrator(dt: float, t_end: float, method="rk4", path="$.integrator") -> None:
    """The step settings a flow accepts, checked against the config block
    at ``path``."""
    if not dt > 0:
        raise ConfigError(f"{path}.dt", "dt must be positive")
    if not t_end > dt:
        raise ConfigError(f"{path}.t_end", "t_end must exceed dt")
    if not math.isfinite(t_end / dt):
        raise ConfigError(path, "t_end/dt is not a finite number of steps")
    if method not in ("rk4", "midpoint"):
        raise ConfigError(f"{path}.method", f"unknown method {method!r}")


def _ranges(block: dict, key: str, names, default: list, path: str) -> list[list[float]]:
    """``[low, high]`` per name from the optional ``{name: [low, high]}``
    object at ``key`` of a block at ``path``, ``default`` where a name is
    missing."""
    ranges = _block(block, key, path)
    path = f"{path}.{key}"
    out = []
    for name in names:
        pair = _numbers(ranges.get(name, default), f"{path}.{name}")
        if len(pair) != 2:
            raise ConfigError(f"{path}.{name}", f"expected [low, high], got {len(pair)} numbers")
        out.append(pair)
    return out


def _parse_expr(source, path: str):
    if not isinstance(source, str):
        raise ConfigError(path, f"expected an expression string, got {type(source).__name__}")
    try:
        return parse(source)
    except ParseError as err:
        raise ConfigError(path, str(err)) from None


def _hamiltonian(source, path: str, variables, parameters=()):
    """A Hamiltonian at ``path`` that names nothing but the variables and
    parameters of the structure it flows on."""
    expr = _parse_expr(source, path)
    unknown = free_names(expr) - {*variables, *parameters}
    if unknown:
        raise ConfigError(path, f"undeclared names {sorted(unknown)}")
    return expr


@dataclass(eq=False)
class RunConfig:
    raw: dict
    path: Path
    n: int
    parameters: dict
    structure: PoissonStructure | None
    tol: float = 1e-9
    seed: int = 0

    @property
    def digest(self) -> str:
        canonical_bytes = json.dumps(self.raw, sort_keys=True).encode("utf-8")
        return hashlib.sha256(canonical_bytes).hexdigest()


def _build_structure(cfg: dict, n: int, parameters: dict) -> PoissonStructure:
    spec = _require(cfg, "structure", dict, "$")
    kind = _require(spec, "kind", str, "$.structure")
    path = "$.structure"
    try:
        if kind == "canonical":
            return canonical(n, parameters)
        if kind == "constant-theta-f":
            theta = _require(spec, "theta", float, path)
            f = _require(spec, "f", float, path)
            if n != 2:
                raise ConfigError(path, "constant-theta-f requires n = 2")
            return constant_theta_f(theta, f, parameters)
        if kind == "theta-f-field":
            def field_map(key):
                out = {}
                for idx, src in _block(spec, key, path).items():
                    try:
                        i, j = (int(t) for t in idx.split(","))
                    except ValueError:
                        raise ConfigError(
                            f"{path}.{key}", f"entry key {idx!r} must look like 'i,j'"
                        ) from None
                    out[(i, j)] = _parse_expr(src, f"{path}.{key}['{idx}']")
                return out

            return theta_f_field(n, field_map("theta"), field_map("f"), parameters)
        if kind == "general-planar":
            if n != 2:
                raise ConfigError(path, "general-planar requires n = 2")
            exprs = {
                name: _parse_expr(_require(spec, name, str, path), f"{path}.{name}")
                for name in ("theta", "f", "g11", "g12", "g21", "g22")
            }
            return general_planar(parameters=parameters, **exprs)
        if kind == "custom":
            entries = {}
            for idx, src in _require(spec, "entries", dict, path).items():
                try:
                    a, b = (int(t) for t in idx.split(","))
                except ValueError:
                    raise ConfigError(
                        f"{path}.entries", f"entry key {idx!r} must look like 'a,b'"
                    ) from None
                entries[(a, b)] = _parse_expr(src, f"{path}.entries['{idx}']")
            return custom(n, entries, parameters)
    except StructureError as err:
        raise ConfigError(path, str(err)) from None
    raise ConfigError(f"{path}.kind", f"unknown structure kind {kind!r}")


def load_config(path) -> RunConfig:
    """Read, schema-check, and eagerly parse every expression in a config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("$", f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError("$", f"invalid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    version = _require(raw, "version", int, "$")
    if version != CONFIG_VERSION:
        raise ConfigError("$.version", f"unsupported config version {version}")

    parameters = _block(raw, "parameters")
    for name, value in parameters.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"$.parameters.{name}", "expected a number")
    parameters = {k: float(v) for k, v in parameters.items()}

    structure = None
    n = 0
    if "structure" in raw:
        phase = _require(raw, "phase_space", dict, "$")
        n = _require(phase, "n", int, "$.phase_space")
        if n < 1:
            raise ConfigError("$.phase_space.n", "n must be positive")
        structure = _build_structure(raw, n, parameters)

    # eager checks of the remaining expression-bearing blocks
    if "hamiltonian" in raw:
        _parse_expr(raw["hamiltonian"], "$.hamiltonian")
    _filters_from_config(_block(raw, "cloud"), "$.cloud")

    seed = _scalar(raw, "seed", int, 0)
    if seed < 0:
        raise ConfigError("$.seed", "seed must be non-negative")
    cfg = RunConfig(
        raw=raw,
        path=path,
        n=n,
        parameters=parameters,
        structure=structure,
        tol=_scalar(raw, "tolerance", float, 1e-9),
        seed=seed,
    )
    return cfg


# ---------------------------------------------------------------------------
# Clouds and filters


def _filters_from_config(block: dict, path: str) -> list[hg.DomainFilter]:
    """The ``filters`` list of a cloud or grid block: each entry an
    ``expr`` with an optional ``min_abs`` and ``min`` bound."""
    entries = block.get("filters", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{path}.filters", "expected a list of filters")
    filters = []
    for i, flt in enumerate(entries):
        where = f"{path}.filters[{i}]"
        if not isinstance(flt, dict):
            raise ConfigError(where, "expected an object with an expr")
        expr = _parse_expr(flt.get("expr"), f"{where}.expr")
        min_abs, minimum = (
            None if flt.get(key) is None else _require(flt, key, float, where)
            for key in ("min_abs", "min")
        )
        filters.append(hg.DomainFilter(expr, min_abs=min_abs, minimum=minimum))
    return filters


def sample_cloud(cfg: RunConfig, rng: np.random.Generator) -> np.ndarray:
    """Seeded random phase-space cloud honoring the config's ranges and
    domain filters."""
    block = _block(cfg.raw, "cloud")
    count = _point_count(block, "count", 100, 1, "$.cloud")
    names = cfg.structure.variable_names
    lo, hi = np.array(_ranges(block, "ranges", names, [-1.5, 1.5], "$.cloud")).T
    filters = _filters_from_config(block, "$.cloud")
    points = []
    attempts = 0
    env = dict(cfg.parameters)
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count:
            raise ConfigError(
                "$.cloud", "domain filters rejected too many samples"
            )
        x = lo + (hi - lo) * rng.random(len(names))
        for name, v in zip(names, x):
            env[name] = float(v)
        if all(f.admits(env) for f in filters):
            points.append(x)
    return np.array(points)


# ---------------------------------------------------------------------------
# Assertions and the run report


@dataclass(eq=False)
class RunReport:
    command: str
    config_digest: str
    results: dict
    assertions: list[dict] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)


def _resolve(results: dict, dotted: str):
    """The report value at a dotted path; ``None`` where the path runs
    through a value the run did not produce (``null``)."""
    node = results
    for part in dotted.split("."):
        if node is None:
            return None
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                raise ConfigError(
                    "$.assertions", f"no value at '{dotted}' in the report"
                ) from None
        else:
            raise ConfigError(
                "$.assertions", f"no value at '{dotted}' in the report"
            )
    return node


_OPS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    ">": lambda v, t: v > t,
    "==": lambda v, t: v == t,
}


def evaluate_assertions(cfg: RunConfig, results: dict) -> list[dict]:
    out = []
    for i, spec in enumerate(cfg.raw.get("assertions", [])):
        path = f"$.assertions[{i}]"
        name = _require(spec, "name", str, path)
        value_path = _require(spec, "value", str, path)
        op = _require(spec, "op", str, path)
        if op not in _OPS:
            raise ConfigError(f"{path}.op", f"unknown comparison {op!r}")
        threshold = _require(spec, "threshold", float, path)
        observed = _resolve(results, value_path)
        # a value the run did not produce (null) fails the assertion
        if observed is not None and not isinstance(observed, (int, float, np.number, np.bool_)):
            raise ConfigError(
                f"{path}.value", f"'{value_path}' is a {type(observed).__name__}, not a number"
            )
        passed = observed is not None and bool(_OPS[op](observed, threshold))
        out.append(
            {
                "name": name,
                "check": value_path,
                "op": op,
                "threshold": threshold,
                "observed": observed,
                "passed": passed,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Commands


def _cmd_check_jacobi(cfg: RunConfig, out_dir: Path, rng) -> tuple[dict, list[str]]:
    structure = cfg.structure
    if structure is None:
        raise ConfigError("$.structure", "check-jacobi needs a structure")
    cloud = sample_cloud(cfg, rng)
    generic_max = 0.0
    identity_max: dict[str, float] = {}
    det_min = np.inf
    det_max = -np.inf
    pairing_max = 0.0
    rows = []
    for x in cloud:
        rep = structure.jacobi_report(x)
        generic_max = max(generic_max, rep.generic_max)
        for k, v in rep.identities.items():
            identity_max[k] = max(identity_max.get(k, 0.0), v)
        deg = structure.degeneracy_of(rep.theta)
        det_min = min(det_min, deg.det)
        det_max = max(det_max, deg.det)
        if deg.inverse_pairing_residual is not None:
            pairing_max = max(pairing_max, deg.inverse_pairing_residual)
        rows.append([*x.tolist(), float(rep.generic_max), float(deg.det)])
    results = {
        "cloud": {"count": len(cloud), "seed": cfg.seed, "rng": RNG_ALGORITHM},
        "generic_max": generic_max,
        "identities": identity_max,
        "identity_max": max(identity_max.values()) if identity_max else 0.0,
        "det_min": float(det_min),
        "det_max": float(det_max),
        "inverse_pairing_max": pairing_max,
    }
    header = [*structure.variable_names, "generic_residual", "det"]
    write_csv(out_dir / "jacobi_points.csv", header, rows)
    return results, ["jacobi_points.csv"]


def _cmd_integrate(cfg: RunConfig, out_dir: Path, rng) -> tuple[dict, list[str]]:
    structure = cfg.structure
    if structure is None:
        raise ConfigError("$.structure", "integrate needs a structure")
    ham = _hamiltonian(
        _require(cfg.raw, "hamiltonian", str, "$"),
        "$.hamiltonian",
        structure.variable_names,
        structure.parameters,
    )
    integ = _require(cfg.raw, "integrator", dict, "$")
    x0 = _state(cfg.raw, "initial_state", structure.dim, "$")
    dt = _require(integ, "dt", float, "$.integrator")
    t_end = _require(integ, "t_end", float, "$.integrator")
    method = integ.get("method", "rk4")
    _check_integrator(dt, t_end, method)
    problem = FlowProblem(structure, ham, x0, dt, t_end, method)
    extra = {
        name: _parse_expr(src, f"$.monitors.{name}")
        for name, src in _block(cfg.raw, "monitors").items()
    }
    traj = integrate(problem, extra_monitors=extra)
    monitors = {}
    for name in traj.monitors:
        mx, final = traj.monitor_drift(name)
        monitors[name] = {"max_drift": mx, "final_drift": final}
    results = {
        "steps": len(traj.times) - 1,
        "truncated": traj.truncated,
        "warnings": list(traj.warnings),
        "monitors": monitors,
        "final_state": [float(v) for v in traj.states[-1]],
    }
    header, rows = trajectory_rows(traj, structure.variable_names)
    write_csv(out_dir / "trajectory.csv", header, rows)
    return results, ["trajectory.csv"]


def _cmd_reduce(cfg: RunConfig, out_dir: Path, rng) -> tuple[dict, list[str]]:
    structure = cfg.structure
    if structure is None:
        raise ConfigError("$.structure", "reduce needs a structure")
    block = _block(cfg.raw, "reduction")
    n = structure.n
    reference = np.array(_state(block, "reference_point", structure.dim, "$.reduction"))

    spectrum = block.get("spectrum", False)
    ham = None
    if spectrum:
        n_max = _scalar(block, "n_max", int, 5, "$.reduction")
        dt = _scalar(block, "dt", float, 1e-3, "$.reduction")
        t_end = _scalar(block, "t_end", float, 10.0, "$.reduction")
        _check_integrator(dt, t_end, path="$.reduction")
        constants = block.get("constants")
        if constants is not None:
            constants = _numbers(constants, "$.reduction.constants")
        if "hamiltonian" in cfg.raw:
            ham = _hamiltonian(
                cfg.raw["hamiltonian"],
                "$.hamiltonian",
                structure.variable_names,
                structure.parameters,
            )

    if structure.kind in DELTA_KINDS:
        count = _point_count(block, "surface_points", 200, 0, "$.reduction")
        ranges = _ranges(
            block,
            "surface_parameter_ranges",
            [f"p{j + 1}" for j in range(n)],
            [0.8, 1.6],
            "$.reduction",
        )
        p_pts = np.empty((count, n))
        for j, (lo, hi) in enumerate(ranges):
            p_pts[:, j] = lo + (hi - lo) * rng.random(count)
        cloud = red.surface_cloud(structure, reference, p_pts)
        points = cloud.points
    else:
        path = "$.reduction.leaf_hamiltonians"
        sources = block.get(
            "leaf_hamiltonians",
            ["q1*p2 + q2^2/2", "p1*p2 + q1*q2/3", "q2*p1 - q1*p2/2"],
        )
        if not isinstance(sources, list):
            raise ConfigError(path, f"expected a list, got {type(sources).__name__}")
        hams = [
            _hamiltonian(src, f"{path}[{i}]", structure.variable_names, structure.parameters)
            for i, src in enumerate(sources)
        ]
        points = red.leaf_cloud(structure, reference, hams)
        cloud = points

    report = red.check_reduction(structure, cloud, tol=cfg.tol)
    results = {"reduction": report.to_json_dict(), "rng": RNG_ALGORITHM, "seed": cfg.seed}

    if structure.kind in DELTA_KINDS:
        # null when the structure does not reduce, so an assertion on it fails
        tv_max = None
        if report.reduced:
            tv_max = 0.0
            for x in points[: min(len(points), 50)]:
                tv = red.total_variation_residual(structure, x)
                if tv:
                    tv_max = max(tv_max, max(tv.values()))
        results["total_variation_max"] = tv_max

    artifacts = []
    if len(points) > 0:
        write_csv(
            out_dir / "surface_points.csv",
            list(structure.variable_names),
            [list(map(float, x)) for x in points],
        )
        artifacts.append("surface_points.csv")

    if report.reduced and ham is not None:
        system = red.build_reduced(
            structure, ham, constants=constants, reference=reference, tol=cfg.tol
        )
        spec_rep = red.spectrum_and_frequency(system, n_max)
        times, qs = red.integrate_reduced(system, system.reference, dt, t_end)
        omega_measured = zero_crossing_frequency(times, qs[:, 0])
        results["spectrum"] = {
            "omega_red": spec_rep.omega_red,
            "omega_zero_crossing": omega_measured,
            "omega_mismatch": abs(spec_rep.omega_red - omega_measured),
            "levels": spec_rep.levels,
        }

    write_json(out_dir / "reduction_report.json", results)
    artifacts.append("reduction_report.json")
    return results, artifacts


def _cmd_sweep(cfg: RunConfig, out_dir: Path, rng) -> tuple[dict, list[str]]:
    block = _block(cfg.raw, "sweep")
    theta = _scalar(block, "theta", float, 1.0, "$.sweep")
    epsilons = _numbers(block.get("epsilons", [1e-1, 1e-2, 1e-3, 1e-4]), "$.sweep.epsilons")
    ham = _hamiltonian(
        _require(cfg.raw, "hamiltonian", str, "$"),
        "$.hamiltonian",
        phase_variable_names(2),
        cfg.parameters,
    )
    x0 = _state(cfg.raw, "initial_state", 4, "$")
    integ = _block(cfg.raw, "integrator")
    dt = _scalar(integ, "dt", float, 1e-3, "$.integrator")
    t_end = _scalar(integ, "t_end", float, 10.0, "$.integrator")
    method = integ.get("method", "rk4")
    _check_integrator(dt, t_end, method)
    sweep = red.epsilon_sweep(
        theta,
        ham,
        x0,
        epsilons,
        dt=dt,
        t_end=t_end,
        method=method,
        parameters=cfg.parameters,
    )
    results = sweep.to_json_dict()
    results["slope_error_from_unity"] = abs(sweep.fitted_slope - 1.0)
    header = ["epsilon", *(f"c_{m}_drift" for m in range(1, 3)), "max_drift"]
    rows = [[float(r[key]) for key in header] for r in sweep.rows]
    write_csv(out_dir / "epsilon_sweep.csv", header, rows)
    return results, ["epsilon_sweep.csv"]


def _grid_axis(grid_cfg: dict, key: str, path: str) -> tuple[float, float, int]:
    axis = _require(grid_cfg, key, list, path)
    try:
        lo, hi, count = axis
        lo, hi, count = float(lo), float(hi), int(count)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}.{key}", "expected [low, high, count]") from None
    if count < 1:
        raise ConfigError(f"{path}.{key}", "the point count must be at least 1")
    return lo, hi, count


def _grid_from_config(block: dict, kind: str, path: str) -> hg.Grid2D:
    grid_cfg = _require(block, "grid", dict, path)
    x_lo, x_hi, nx = _grid_axis(grid_cfg, "x", f"{path}.grid")
    y_lo, y_hi, ny = _grid_axis(grid_cfg, "y", f"{path}.grid")
    if nx * ny > MAX_POINTS:
        raise ConfigError(f"{path}.grid", f"expected at most {MAX_POINTS} grid points")
    band = _scalar(grid_cfg, "band", float, 1e-3, f"{path}.grid")
    filters = (
        *hg.default_filters(kind, band=band),
        *_filters_from_config(grid_cfg, f"{path}.grid"),
    )
    return hg.Grid2D((x_lo, x_hi), (y_lo, y_hi), nx, ny, filters)


# physical-dimension tags per family parameter; report labels only, the
# computation itself is dimensionless
_UNIT_TAGS = {
    "linear": {"alpha": "length^3"},
    "log": {"alpha": "length", "u0": "length^-2"},
    "loglog": {"alpha": "length", "u0": "length^-2", "v0": "length^-2"},
}


def _cmd_hodograph(cfg: RunConfig, out_dir: Path, rng) -> tuple[dict, list[str]]:
    block = _require(cfg.raw, "hodograph", dict, "$")
    kind = _require(block, "kind", str, "$.hodograph")
    params = {
        k: _convert(v, float, f"$.hodograph.parameters.{k}")
        for k, v in _block(block, "parameters", "$.hodograph").items()
    }
    branch = block.get("branch", "+")
    family = hg.build_family(
        kind,
        params,
        branch=branch,
        f=block.get("f"),
        g=block.get("g"),
    )
    grid = _grid_from_config(block, kind, "$.hodograph")
    results: dict = {"kind": kind, "parameters": params, "branch": branch}
    results["parameter_units"] = _UNIT_TAGS.get(kind, {})
    checks = hg.grid_checks(family, grid)
    results["pde"] = pde = checks.pde
    pde["max_res"] = max(pde["max_res_u"], pde["max_res_v"])
    results["jacobian_min"] = checks.jacobian_min
    artifacts = []

    if kind == "loglog":
        # both root assignments are reported, whichever one the config picked
        results["branches"] = {}
        for label in ("+", "-"):
            fam_b = hg.build_family(kind, params, branch=label)
            min_uv = np.inf
            product_residual = 0.0
            for x, y in checks.points:
                u, v = fam_b.evaluate_uv(x, y)
                min_uv = min(min_uv, abs(u - v))
                product_residual = max(
                    product_residual,
                    abs(u * v - params["u0"] * params["v0"] * np.exp(x / params["alpha"])),
                )
            results["branches"][label] = {
                "min_u_minus_v": float(min_uv),
                "root_product_residual": float(product_residual),
            }
        results["min_u_minus_v"] = results["branches"][branch]["min_u_minus_v"]
        results["root_product_residual"] = results["branches"][branch][
            "root_product_residual"
        ]

    alphas = block.get("alphas")
    if alphas:
        alphas = _numbers(alphas, "$.hodograph.alphas")
        sweep = hg.limit_sweep(kind, params, alphas, grid, branch)
        results["sweep"] = sweep.to_json_dict()
        header = ["alpha", "max_dev_u", "max_dev_v", "max_u_minus_v", "fitted_order"]
        order = float(sweep.fitted_order)
        rows = [[*(float(r[key]) for key in header[:-1]), order] for r in sweep.rows]
        write_csv(out_dir / "alpha_sweep.csv", header, rows)
        artifacts.append("alpha_sweep.csv")
    return results, artifacts


_COMMAND_TABLE = {
    "check-jacobi": _cmd_check_jacobi,
    "integrate": _cmd_integrate,
    "reduce": _cmd_reduce,
    "sweep": _cmd_sweep,
    "hodograph": _cmd_hodograph,
}


def run(command: str, cfg: RunConfig, out_dir, seed=None, tol=None) -> RunReport:
    """Execute one command; artifacts land in ``out_dir``.

    The summary report (with wall time) goes to the caller; artifact files
    contain no timing so fixed seeds give byte-identical output."""
    if command not in _COMMAND_TABLE:
        raise ConfigError("$", f"unknown command {command!r}")
    if seed is not None:
        seed = int(seed)
        if seed < 0:
            raise ConfigError("--seed", "seed must be non-negative")
        cfg.seed = seed
    if tol is not None:
        cfg.tol = float(tol)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    results, artifacts = _COMMAND_TABLE[command](cfg, out_dir, rng)
    assertions = evaluate_assertions(cfg, results)
    report_doc = {
        "command": command,
        "config_digest": cfg.digest,
        "seed": cfg.seed,
        "rng": RNG_ALGORITHM,
        "tolerance": cfg.tol,
        "results": results,
        "assertions": assertions,
        "artifacts": sorted(set(artifacts) | {f"{command}_report.json"}),
    }
    write_json(out_dir / f"{command}_report.json", _plain(report_doc))
    wall = time.perf_counter() - started
    return RunReport(
        command=command,
        config_digest=cfg.digest,
        results=results,
        assertions=assertions,
        artifacts=report_doc["artifacts"],
        wall_time=wall,
    )


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noncanon",
        description="bracket-consistency checks, non-canonical integration, "
        "degenerate-limit reduction, and hodograph families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or f"out_{args.command.replace('-', '_')}"
    try:
        report = run(args.command, cfg, out_dir, seed=args.seed, tol=args.tol)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        DomainError,
        ExpressionError,
        StructureError,
        IntegrationError,
        red.ReductionError,
        hg.HodographError,
        FloatingPointError,
        np.linalg.LinAlgError,
    ) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME

    for entry in report.assertions:
        status = "pass" if entry["passed"] else "FAIL"
        observed = "null" if entry["observed"] is None else f"{entry['observed']:.6g}"
        print(
            f"[{status}] {entry['name']}: {entry['check']} {entry['op']} "
            f"{entry['threshold']:g} (observed {observed})"
        )
    print(
        f"{report.command}: {len(report.assertions)} assertion(s), "
        f"artifacts {report.artifacts} in {out_dir}, "
        f"wall time {report.wall_time:.3f}s"
    )
    return EXIT_OK if report.all_passed else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
