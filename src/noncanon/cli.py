"""Batch command-line runner.

    noncanon <command> --config <path> [--out <dir>] [--seed <u64>] [--tol <float>]

Commands: check-jacobi, integrate, reduce, sweep, hodograph.  Every run is
driven by a versioned JSON config, writes deterministic artifacts (CSV at
17 significant digits, JSON with sorted keys) into the output directory,
and evaluates the config's assertion list against the produced report.

Every config value is read through one typed reader, :func:`_read` (and
:func:`_as` for a list element): a number is any JSON number and an
integer a JSON integer, neither of them a bool; a count is an integer in
its bounds; a flag, a string, a list and an object are exactly that JSON
type.  Every expression is read by :func:`_expr`, which parses it and
rejects names it may not use and trees deeper than :data:`MAX_DEPTH`.  A
value that does not read is a config error that names its JSON path.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 config error,
3 runtime numeric error (an arithmetic failure such as an underflowed
quotient included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
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
from .dynamics import (
    _DET_BLOCK,
    FlowProblem,
    IntegrationError,
    integrate,
    zero_crossing_frequency,
)
from .expressions import ExpressionError, ParseError, _depth, free_names, parse

CONFIG_VERSION = 1
COMMANDS = ("check-jacobi", "integrate", "reduce", "sweep", "hodograph")
RNG_ALGORITHM = "pcg64"
# the most points a config may ask a cloud, a surface sample or a grid
# for, the most steps it may ask a flow for, and the largest n_max
MAX_POINTS = 1_000_000
# the most degrees of freedom (phase_space.n) a config may ask for
MAX_N = 32
# the most values in one check-jacobi block's (k, dim, dim, dim) gradient
# stack, so a large phase space is checked fewer points at a time
_GRADIENT_VALUES = 2**20
# the deepest expression tree a config may give, in nodes from the root to
# the deepest leaf; generated code and the tree walker recurse on each level
MAX_DEPTH = 300

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

_REQUIRED = object()
_TYPE_NAMES = {
    float: "a number",
    int: "an integer",
    bool: "true or false",
    str: "a string",
    list: "a list",
    dict: "an object",
}
# a count is read with the range of values it may take as its kind
_POINTS = range(1, MAX_POINTS + 1)
_SEEDS = range(2**64)


def _as(value, kind, path: str):
    """``value`` read as ``kind``, a config error at ``path`` otherwise.

    ``float`` takes any JSON number and ``int`` a JSON integer, neither of
    them a bool; a ``range`` takes an integer in it; ``bool``, ``str``,
    ``list`` and ``dict`` take exactly that JSON type."""
    if isinstance(kind, range):
        value = _as(value, int, path)
        if value not in kind:
            raise ConfigError(path, f"expected an integer from {kind.start} to {kind.stop - 1}")
        return value
    types = (int, float) if kind is float else kind
    if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(path, f"expected {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(path, "expected a number within the range of a float") from None
    return value


def _tolerance(value, path: str) -> float:
    """A tolerance from the config or ``--tol``: finite and at least 0."""
    tol = _as(value, float, path)
    if not 0.0 <= tol < math.inf:
        raise ConfigError(path, "expected a finite number, at least 0")
    return tol


def _read(obj: dict, key: str, kind, path: str, default=_REQUIRED):
    """The value at ``key`` of the config object at ``path``, read by
    :func:`_as`; ``default`` when the key is absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    return _as(obj[key], kind, f"{path}.{key}")


def _numbers(values, path: str, length: int | None = None) -> list[float]:
    """A config list of numbers, of ``length`` numbers when given."""
    numbers = [_as(v, float, f"{path}[{i}]") for i, v in enumerate(_as(values, list, path))]
    if length is not None and len(numbers) != length:
        raise ConfigError(path, f"expected {length} numbers, got {len(numbers)}")
    return numbers


def _finite(x: float, path: str) -> float:
    """``x``, a number read from the config at ``path``, if it is finite."""
    if not math.isfinite(x):
        raise ConfigError(path, "expected a finite number")
    return x


def _point(values, path: str, length: int) -> list[float]:
    """A config phase-space point: ``length`` finite numbers."""
    return [_finite(x, f"{path}[{i}]") for i, x in enumerate(_numbers(values, path, length))]


def _fit_abscissae(values, path: str) -> list[float]:
    """A config list of numbers that a log-log fit takes as its abscissae:
    each finite and above 0, and at least two distinct values."""
    numbers = _numbers(values, path)
    for i, x in enumerate(numbers):
        if not 0.0 < x < math.inf:
            raise ConfigError(f"{path}[{i}]", "expected a finite number above 0")
    if len(set(numbers)) < 2:
        raise ConfigError(path, "expected at least two distinct values")
    return numbers


def _expr(source, path: str, names=None):
    """The expression string at ``path``, parsed; it may name nothing but
    ``names`` when they are given."""
    if not isinstance(source, str):
        raise ConfigError(path, f"expected an expression string, got {type(source).__name__}")
    try:
        expr = parse(source)
    except ParseError as err:
        raise ConfigError(path, str(err)) from None
    except RecursionError:
        # the parser recurses about five frames per parenthesis or call, so
        # this can happen to a tree well within MAX_DEPTH
        raise ConfigError(
            path, "expression nests parentheses or calls too deeply to parse"
        ) from None
    if _depth(expr) > MAX_DEPTH:
        raise ConfigError(path, f"expected an expression at most {MAX_DEPTH} levels deep")
    unknown = set() if names is None else free_names(expr) - set(names)
    if unknown:
        raise ConfigError(path, f"undeclared names {sorted(unknown)}")
    return expr


def _entries(fields: dict, path: str, names) -> dict:
    """``{(i, j): expression}`` read from the ``{"i,j": expression}``
    object at ``path``."""
    out = {}
    for key, src in fields.items():
        try:
            i, j = (int(t) for t in key.split(","))
        except ValueError:
            raise ConfigError(path, f"entry key {key!r} must look like 'i,j'") from None
        out[(i, j)] = _expr(src, f"{path}['{key}']", names)
    return out


def _check_integrator(dt: float, t_end: float, method="rk4", path="$.integrator") -> None:
    """The step settings a flow accepts, checked against the config block
    at ``path``: at most :data:`MAX_POINTS` steps."""
    if not dt > 0:
        raise ConfigError(f"{path}.dt", "dt must be positive")
    if not t_end > dt:
        raise ConfigError(f"{path}.t_end", "t_end must exceed dt")
    if not t_end / dt <= MAX_POINTS:
        raise ConfigError(path, f"t_end/dt must be at most {MAX_POINTS} steps")
    if method not in ("rk4", "midpoint"):
        raise ConfigError(f"{path}.method", f"unknown method {method!r}")


def _span(values, path: str) -> list[float]:
    """The ``[low, high]`` sampling bounds at ``path``; ``high - low`` must be
    finite (so no NaN, no infinity, no overflow), and ``low > high`` is fine."""
    low, high = _numbers(values, path, 2)
    if not math.isfinite(high - low):
        raise ConfigError(path, "expected [low, high] with a finite difference")
    return [low, high]


def _ranges(block: dict, key: str, names, default: list, path: str) -> list[list[float]]:
    """``[low, high]`` per name from the optional ``{name: [low, high]}``
    object at ``key`` of a block at ``path``, ``default`` where a name is
    missing."""
    ranges = _read(block, key, dict, path, {})
    return [_span(ranges.get(name, default), f"{path}.{key}.{name}") for name in names]


@dataclass(eq=False)
class RunConfig:
    raw: dict
    parameters: dict
    structure: PoissonStructure | None
    tol: float
    seed: int

    @property
    def digest(self) -> str:
        canonical_bytes = json.dumps(self.raw, sort_keys=True).encode("utf-8")
        return hashlib.sha256(canonical_bytes).hexdigest()


def _build_structure(cfg: dict, n: int, parameters: dict) -> PoissonStructure:
    path = "$.structure"
    spec = _read(cfg, "structure", dict, "$")
    kind = _read(spec, "kind", str, path)
    names = {*phase_variable_names(n), *parameters}
    try:
        if kind == "canonical":
            return canonical(n, parameters)
        if kind == "constant-theta-f":
            theta = _finite(_read(spec, "theta", float, path), f"{path}.theta")
            f = _finite(_read(spec, "f", float, path), f"{path}.f")
            if n != 2:
                raise ConfigError(path, "constant-theta-f requires n = 2")
            return constant_theta_f(theta, f, parameters)
        if kind == "theta-f-field":
            theta, f = (
                _entries(_read(spec, key, dict, path, {}), f"{path}.{key}", names)
                for key in ("theta", "f")
            )
            return theta_f_field(n, theta, f, parameters)
        if kind == "general-planar":
            if n != 2:
                raise ConfigError(path, "general-planar requires n = 2")
            exprs = {
                name: _expr(_read(spec, name, str, path), f"{path}.{name}", names)
                for name in ("theta", "f", "g11", "g12", "g21", "g22")
            }
            return general_planar(parameters=parameters, **exprs)
        if kind == "custom":
            entries = _entries(_read(spec, "entries", dict, path), f"{path}.entries", names)
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
    except (OSError, ValueError, RecursionError) as err:
        raise ConfigError("$", f"invalid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    version = _read(raw, "version", int, "$")
    if version != CONFIG_VERSION:
        raise ConfigError("$.version", f"unsupported config version {version}")
    parameters = {
        name: _as(value, float, f"$.parameters.{name}")
        for name, value in _read(raw, "parameters", dict, "$", {}).items()
    }

    structure = None
    if "structure" in raw:
        phase = _read(raw, "phase_space", dict, "$")
        n = _read(phase, "n", range(1, MAX_N + 1), "$.phase_space")
        structure = _build_structure(raw, n, parameters)

    # eager checks of the remaining expression-bearing blocks
    if "hamiltonian" in raw:
        _expr(raw["hamiltonian"], "$.hamiltonian")
    _filters_from_config(_read(raw, "cloud", dict, "$", {}), "$.cloud")

    return RunConfig(
        raw=raw,
        parameters=parameters,
        structure=structure,
        tol=_tolerance(raw.get("tolerance", red.DEFAULT_TOL), "$.tolerance"),
        seed=_read(raw, "seed", _SEEDS, "$", 0),
    )


# ---------------------------------------------------------------------------
# Clouds and filters


def _filters_from_config(block: dict, path: str, names=None) -> list[hg.DomainFilter]:
    """The ``filters`` list of a cloud or grid block: each entry an
    ``expr`` (naming only ``names``, when given) with an optional
    ``min_abs`` and ``min`` bound."""
    filters = []
    for i, flt in enumerate(_read(block, "filters", list, path, [])):
        where = f"{path}.filters[{i}]"
        flt = _as(flt, dict, where)
        expr = _expr(flt.get("expr"), f"{where}.expr", names)
        min_abs, minimum = (
            None if flt.get(key) is None else _read(flt, key, float, where)
            for key in ("min_abs", "min")
        )
        filters.append(hg.DomainFilter(expr, min_abs=min_abs, minimum=minimum))
    return filters


def sample_cloud(cfg: RunConfig, rng: np.random.Generator) -> np.ndarray:
    """Seeded random phase-space cloud honoring the config's ranges and
    domain filters."""
    block = _read(cfg.raw, "cloud", dict, "$", {})
    count = _read(block, "count", _POINTS, "$.cloud", 100)
    names = cfg.structure.variable_names
    lo, hi = np.array(_ranges(block, "ranges", names, [-1.5, 1.5], "$.cloud")).T
    filters = _filters_from_config(block, "$.cloud", {*names, *cfg.parameters})
    admits = hg.admission(filters, names, cfg.parameters)
    blocks = []
    kept = attempts = 0
    while kept < count:
        # a block of draws never exceeds the points still missing, so the
        # stream is used as by one draw per attempt
        k = min(count - kept, 200 * count - attempts)
        if k == 0:
            raise ConfigError("$.cloud", "domain filters rejected too many samples")
        attempts += k
        draws = lo + (hi - lo) * rng.random((k, len(names)))
        blocks.append(draws[list(map(admits, draws.tolist()))])
        kept += len(blocks[-1])
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# Assertions and the run report


@dataclass(eq=False)
class RunReport:
    command: str
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
        elif isinstance(node, (list, tuple, np.ndarray)):
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


def read_assertions(cfg: RunConfig) -> list[tuple[str, str, str, float]]:
    """The config's assertions as ``(name, value, op, threshold)``, read
    before the command runs, so a malformed one costs no computation."""
    specs = []
    for i, spec in enumerate(_read(cfg.raw, "assertions", list, "$", [])):
        path = f"$.assertions[{i}]"
        spec = _as(spec, dict, path)
        name = _read(spec, "name", str, path)
        value_path = _read(spec, "value", str, path)
        op = _read(spec, "op", str, path)
        if op not in _OPS:
            raise ConfigError(f"{path}.op", f"unknown comparison {op!r}")
        specs.append((name, value_path, op, _read(spec, "threshold", float, path)))
    return specs


def evaluate_assertions(specs: list[tuple[str, str, str, float]], results: dict) -> list[dict]:
    """Each assertion of :func:`read_assertions` against the run's report."""
    out = []
    for i, (name, value_path, op, threshold) in enumerate(specs):
        path = f"$.assertions[{i}]"
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
    cloud = sample_cloud(cfg, rng)
    # a block's gradient stack holds dim**3 values per point
    size = max(1, min(_DET_BLOCK, _GRADIENT_VALUES // structure.dim**3))
    generic_max = 0.0
    identity_max: dict[str, float] = {}
    det_min = np.inf
    det_max = -np.inf
    pairing_max = 0.0
    rows = []
    for start in range(0, len(cloud), size):
        block = cloud[start : start + size]
        rep = structure.jacobi_report(block)
        # residuals are never negative, so np.fmax folds them as a running
        # max() does: a NaN never wins
        generic_max = np.fmax.reduce(rep.generic_max, initial=generic_max)
        for k, v in rep.identities.items():
            identity_max[k] = np.fmax.reduce(v, initial=identity_max.get(k, 0.0))
        deg = structure.degeneracy_of(rep.theta)
        # min() and max() over a list keep the first of equal values, so a
        # zero determinant keeps its sign as in a running fold; np.fmin
        # does not promise which of 0.0 and -0.0 it returns
        dets = deg.det.tolist()
        det_min = min([det_min, *dets])
        det_max = max([det_max, *dets])
        if deg.inverse_pairing_residual is not None:
            pairing_max = np.fmax.reduce(deg.inverse_pairing_residual, initial=pairing_max)
        rows += np.column_stack([block, rep.generic_max, deg.det]).tolist()
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
    names = {*structure.variable_names, *cfg.parameters}
    ham = _expr(_read(cfg.raw, "hamiltonian", str, "$"), "$.hamiltonian", names)
    integ = _read(cfg.raw, "integrator", dict, "$")
    x0 = _point(_read(cfg.raw, "initial_state", list, "$"), "$.initial_state", structure.dim)
    dt = _read(integ, "dt", float, "$.integrator")
    t_end = _read(integ, "t_end", float, "$.integrator")
    method = _read(integ, "method", str, "$.integrator", "rk4")
    _check_integrator(dt, t_end, method)
    problem = FlowProblem(structure, ham, x0, dt, t_end, method)
    extra = {
        name: _expr(src, f"$.monitors.{name}", names)
        for name, src in _read(cfg.raw, "monitors", dict, "$", {}).items()
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
    path = "$.reduction"
    block = _read(cfg.raw, "reduction", dict, "$", {})
    n = structure.n
    names = {*structure.variable_names, *cfg.parameters}
    reference = _read(block, "reference_point", list, path)
    reference = np.array(_point(reference, f"{path}.reference_point", structure.dim))

    ham = None
    if _read(block, "spectrum", bool, path, False):
        n_max = _read(block, "n_max", range(MAX_POINTS + 1), path, 5)
        dt = _read(block, "dt", float, path, 1e-3)
        t_end = _read(block, "t_end", float, path, 10.0)
        _check_integrator(dt, t_end, path=path)
        constants = block.get("constants")
        if constants is not None:
            constants = _point(constants, f"{path}.constants", n)
        if "hamiltonian" in cfg.raw:
            ham = _expr(cfg.raw["hamiltonian"], "$.hamiltonian", names)

    if structure.kind in DELTA_KINDS:
        count = _read(block, "surface_points", range(MAX_POINTS + 1), path, 200)
        p_names = [f"p{j + 1}" for j in range(n)]
        ranges = _ranges(block, "surface_parameter_ranges", p_names, [0.8, 1.6], path)
        p_pts = np.empty((count, n))
        for j, (lo, hi) in enumerate(ranges):
            p_pts[:, j] = lo + (hi - lo) * rng.random(count)
        cloud = red.surface_cloud(structure, reference, p_pts)
        points = cloud.points
    else:
        default = ["q1*p2 + q2^2/2", "p1*p2 + q1*q2/3", "q2*p1 - q1*p2/2"]
        sources = _read(block, "leaf_hamiltonians", list, path, default)
        hams = [
            _expr(src, f"{path}.leaf_hamiltonians[{i}]", names) for i, src in enumerate(sources)
        ]
        points = red.leaf_cloud(structure, reference, hams)
        cloud = points

    report = red.check_reduction(structure, cloud, tol=cfg.tol)
    results = {"reduction": asdict(report), "rng": RNG_ALGORITHM, "seed": cfg.seed}

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

    if report.reduced and ham is not None:
        system = red.build_reduced(
            structure, ham, constants=constants, reference=reference, tol=cfg.tol
        )
        spec_rep = red.spectrum_and_frequency(system, n_max)
        times, qs = red.integrate_reduced(system, system.reference, dt, t_end)
        try:
            omega_measured = zero_crossing_frequency(times, qs[:, 0])
        except ValueError as err:
            raise red.ReductionError(f"reduced orbit: {err}") from None
        results["spectrum"] = {
            "omega_red": spec_rep.omega_red,
            "omega_zero_crossing": omega_measured,
            "omega_mismatch": abs(spec_rep.omega_red - omega_measured),
            "levels": spec_rep.levels,
        }

    # written once nothing can fail, so a failed run leaves no artifact
    artifacts = []
    if len(points) > 0:
        write_csv(
            out_dir / "surface_points.csv",
            list(structure.variable_names),
            [list(map(float, x)) for x in points],
        )
        artifacts.append("surface_points.csv")
    write_json(out_dir / "reduction_report.json", results)
    artifacts.append("reduction_report.json")
    return results, artifacts


def _cmd_sweep(cfg: RunConfig, out_dir: Path, rng) -> tuple[dict, list[str]]:
    block = _read(cfg.raw, "sweep", dict, "$", {})
    theta = _read(block, "theta", float, "$.sweep", 1.0)
    if theta == 0.0:
        raise ConfigError("$.sweep.theta", "theta must be nonzero")
    epsilons = _fit_abscissae(block.get("epsilons", [1e-1, 1e-2, 1e-3, 1e-4]), "$.sweep.epsilons")
    for i, eps in enumerate(epsilons):
        # theta*f = 1 - eps must lie between the degenerate limit and f = 0
        if eps >= 1.0:
            raise ConfigError(f"$.sweep.epsilons[{i}]", "expected a number below 1")
    names = {*phase_variable_names(2), *cfg.parameters}
    ham = _expr(_read(cfg.raw, "hamiltonian", str, "$"), "$.hamiltonian", names)
    x0 = _point(_read(cfg.raw, "initial_state", list, "$"), "$.initial_state", 4)
    integ = _read(cfg.raw, "integrator", dict, "$", {})
    dt = _read(integ, "dt", float, "$.integrator", 1e-3)
    t_end = _read(integ, "t_end", float, "$.integrator", 10.0)
    method = _read(integ, "method", str, "$.integrator", "rk4")
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
    results = asdict(sweep)
    results["slope_error_from_unity"] = abs(sweep.fitted_slope - 1.0)
    header = ["epsilon", *(f"c_{m}_drift" for m in range(1, 3)), "max_drift"]
    rows = [[float(r[key]) for key in header] for r in sweep.rows]
    write_csv(out_dir / "epsilon_sweep.csv", header, rows)
    return results, ["epsilon_sweep.csv"]


def _grid_axis(grid_cfg: dict, key: str, path: str) -> tuple[float, float, int]:
    axis = _read(grid_cfg, key, list, path)
    path = f"{path}.{key}"
    if len(axis) != 3:
        raise ConfigError(path, "expected [low, high, count]")
    lo, hi = _span(axis[:2], path)
    return lo, hi, _as(axis[2], _POINTS, f"{path}[2]")


def _grid_from_config(block: dict, kind: str, path: str) -> hg.Grid2D:
    grid_cfg = _read(block, "grid", dict, path)
    x_lo, x_hi, nx = _grid_axis(grid_cfg, "x", f"{path}.grid")
    y_lo, y_hi, ny = _grid_axis(grid_cfg, "y", f"{path}.grid")
    if nx * ny > MAX_POINTS:
        raise ConfigError(f"{path}.grid", f"expected at most {MAX_POINTS} grid points")
    band = _read(grid_cfg, "band", float, f"{path}.grid", 1e-3)
    names = {"x", "y", *_read(block, "parameters", dict, path, {})}
    filters = (
        *hg.default_filters(kind, band=band),
        *_filters_from_config(grid_cfg, f"{path}.grid", names),
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
    path = "$.hodograph"
    block = _read(cfg.raw, "hodograph", dict, "$")
    kind = _read(block, "kind", str, path)
    if kind not in hg.FAMILY_KINDS:
        raise ConfigError(f"{path}.kind", f"unknown family kind {kind!r}")
    params = {
        k: _as(v, float, f"{path}.parameters.{k}")
        for k, v in _read(block, "parameters", dict, path, {}).items()
    }
    branch = _read(block, "branch", str, path, "+")
    if branch not in ("+", "-"):
        raise ConfigError(f"{path}.branch", "branch must be '+' or '-'")
    f = g = None
    if kind == "custom-fg":
        f, g = (
            _expr(_read(block, key, str, path), f"{path}.{key}", {"s", *params})
            for key in ("f", "g")
        )
    alphas = block.get("alphas", [])
    alphas = _fit_abscissae(alphas, f"{path}.alphas") if alphas != [] else []
    if alphas and kind not in ("linear", "log"):
        raise ConfigError(f"{path}.alphas", f"a {kind} family has no degenerate-limit sweep")
    try:
        family = hg.build_family(kind, params, branch=branch, f=f, g=g)
    except hg.HodographError as err:
        # with kind, branch and generators read, only a parameter is missing
        raise ConfigError(f"{path}.parameters", str(err)) from None
    grid = _grid_from_config(block, kind, path)
    results: dict = {"kind": kind, "parameters": params, "branch": branch}
    results["parameter_units"] = _UNIT_TAGS.get(kind, {})
    checks = hg.grid_checks(family, grid)
    results["pde"] = pde = checks.pde
    pde["max_res"] = max(pde["max_res_u"], pde["max_res_v"])
    results["jacobian_min"] = checks.jacobian_min
    artifacts = []

    if kind == "loglog":
        # the two root assignments swap u and v, and |u - v| and u*v are
        # symmetric bit for bit, so the grid pass gives both branches' numbers
        min_uv = np.inf
        product_residual = 0.0
        for (x, y), (u, v) in zip(checks.points, checks.values):
            min_uv = min(min_uv, abs(u - v))
            product_residual = max(
                product_residual,
                abs(u * v - params["u0"] * params["v0"] * np.exp(x / params["alpha"])),
            )
        stats = {
            "min_u_minus_v": float(min_uv),
            "root_product_residual": float(product_residual),
        }
        results["branches"] = {label: dict(stats) for label in ("+", "-")}
        results.update(stats)

    if alphas:
        sweep = hg.limit_sweep(kind, params, alphas, grid)
        results["sweep"] = asdict(sweep)
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
    specs = read_assertions(cfg)
    if seed is not None:
        cfg.seed = _as(int(seed), _SEEDS, "--seed")
    if tol is not None:
        cfg.tol = _tolerance(tol, "--tol")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    if cfg.structure is None and command in ("check-jacobi", "integrate", "reduce"):
        raise ConfigError("$.structure", f"{command} needs a structure")
    results, artifacts = _COMMAND_TABLE[command](cfg, out_dir, rng)
    assertions = evaluate_assertions(specs, results)
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
    write_json(out_dir / f"{command}_report.json", report_doc)
    wall = time.perf_counter() - started
    return RunReport(
        command=command,
        results=results,
        assertions=assertions,
        artifacts=report_doc["artifacts"],
        wall_time=wall,
    )


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

    out_dir = args.out or f"out_{args.command.replace('-', '_')}"
    try:
        cfg = load_config(args.config)
        report = run(args.command, cfg, out_dir, seed=args.seed, tol=args.tol)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        ExpressionError,
        StructureError,
        IntegrationError,
        red.ReductionError,
        hg.HodographError,
        ArithmeticError,
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
