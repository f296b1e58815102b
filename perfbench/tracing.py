"""Span recorder that wraps the library's public functions from outside.

``install(tracer)`` replaces each traced name with a wrapper that records
one span per call: name, start, end, parent span and job id (unique per
job and pass).  Names bound
by ``from ... import`` are separate references, so every importing module
gets the same wrapper as the defining module.  Class methods are replaced
on the class.  Spans are kept in memory in flat arrays and written out by
``Tracer.save`` after the run; ``restore`` puts the originals back.
Aggregates (calls, inclusive and self time, and counts read from return
values) are kept as spans close.

Self time is a span's duration minus the durations of its direct
children.  There is one thread, so spans nest strictly.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from noncanon import artifacts, brackets, cli, dynamics, expressions, hodograph, reduction

# span cap, about 30 bytes each; aggregates keep counting past it
MAX_SPANS = 5_000_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.dropped = 0
        self.job_id = -1
        self._stack: list[list] = []  # [span index, child time, name]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def open(self, name: str) -> float:
        if len(self.start) < MAX_SPANS:
            idx = len(self.start)
            name_id = self._name_id.get(name)
            if name_id is None:
                name_id = self._name_id[name] = len(self.names)
                self.names.append(name)
            self.name.append(name_id)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        self._stack.append([idx, 0.0, name])
        t0 = time.perf_counter()
        if idx >= 0:
            self.start[idx] = t0
        return t0

    def close(self, t0: float) -> None:
        t1 = time.perf_counter()
        idx, child, name = self._stack.pop()
        if idx >= 0:
            self.end[idx] = t1
        duration = t1 - t0
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child

    def parent_name(self) -> str | None:
        return self._stack[-1][2] if self._stack else None

    def wrap(self, name: str, fn, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            t0 = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(t0)
            if on_return is not None:
                on_return(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            dropped=np.array(self.dropped),
        )


# ---------------------------------------------------------------------------
# counts read from return values


def _steps(tr, traj, args, kwargs):
    tr.count("dynamics.integrate.steps", len(traj.times) - 1)


def _reduced_steps(tr, result, args, kwargs):
    times, _ = result
    tr.count("reduction.integrate_reduced.steps", len(times) - 1)


def _cloud_points(tr, points, args, kwargs):
    tr.count("cli.sample_cloud.points", len(points))


def _surface(tr, sample, args, kwargs):
    tr.count("reduction.surface_cloud.points", len(sample.points) + sample.rejected)
    tr.count("reduction.surface_cloud.rejected", sample.rejected)


def _check_points(tr, report, args, kwargs):
    tr.count("reduction.check_reduction.points", report.total_count)


def _grid(tr, points, args, kwargs):
    grid = args[0]
    tr.count("hodograph.Grid2D.points.kept", len(points))
    tr.count("hodograph.Grid2D.points.total", grid.nx * grid.ny)
    owner = tr.parent_name()
    if owner is not None:
        # grid points visited by the calling layer (pde_residual, ...)
        tr.count(f"{owner}.points", len(points))


def _csv_bytes(tr, result, args, kwargs):
    tr.count("artifacts.write_csv.bytes", Path(args[0]).stat().st_size)


# (owner, attribute, span name, counter); the owner is a module or a class
def targets():
    e, b, d, r, h, a = expressions, brackets, dynamics, reduction, hodograph, artifacts
    return [
        (cli, "run", "cli.run", None),
        (cli, "load_config", "cli.load_config", None),
        (cli, "sample_cloud", "cli.sample_cloud", _cloud_points),
        # the parser and evaluator under every name they are bound to
        *[(m, "parse", "expressions.parse", None) for m in (e, cli, b, d, r, h)],
        *[(m, "evaluate", "expressions.evaluate", None) for m in (e, b, r, h)],
        *[(m, "gradient", "expressions.gradient", None) for m in (e, b)],
        *[(m, "derivative", "expressions.derivative", None) for m in (e, r, h)],
        (b.PoissonStructure, "jacobi_report", "brackets.jacobi_report", None),
        (b.PoissonStructure, "degeneracy", "brackets.degeneracy", None),
        (b.PoissonStructure, "theta_matrix", "brackets.theta_matrix", None),
        *[(m, "integrate", "dynamics.integrate", _steps) for m in (d, cli, r)],
        (r, "surface_cloud", "reduction.surface_cloud", _surface),
        (r, "check_reduction", "reduction.check_reduction", _check_points),
        (r, "total_variation_residual", "reduction.total_variation_residual", None),
        (r, "integrate_reduced", "reduction.integrate_reduced", _reduced_steps),
        (r, "epsilon_sweep", "reduction.epsilon_sweep", None),
        (h.Grid2D, "points", "hodograph.Grid2D.points", _grid),
        (h, "pde_residual", "hodograph.pde_residual", None),
        (h, "jacobian_minimum", "hodograph.jacobian_minimum", None),
        (h, "limit_sweep", "hodograph.limit_sweep", None),
        (h.HodographFamily, "evaluate_uv", "hodograph.HodographFamily.evaluate_uv", None),
        (h, "adaptive_simpson", "hodograph.adaptive_simpson", None),
        *[(m, "write_csv", "artifacts.write_csv", _csv_bytes) for m in (a, cli)],
        *[(m, "write_json", "artifacts.write_json", None) for m in (a, cli)],
    ]


def install(tracer: Tracer) -> list:
    """Wrap every target.  One wrapper per original function, so all
    aliases of a function share it.  Returns what ``restore`` needs."""
    wrappers: dict[int, object] = {}
    saved = []
    for owner, attr, span, counter in targets():
        original = owner.__dict__[attr]
        if id(original) not in wrappers:
            wrappers[id(original)] = tracer.wrap(span, original, counter)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrappers[id(original)])
    return saved


def restore(saved: list) -> None:
    """Put back the originals that ``install`` replaced."""
    for owner, attr, original in saved:
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass values of the per-layer metrics from the aggregates."""
    calls, total, self_t, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts

    def per_pass(value):
        return value / passes

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def c(name):
        return per_pass(calls.get(name, 0))

    def s(name):
        return per_pass(self_t.get(name, 0.0))

    def us_per(name, unit_count):
        return ratio(total.get(name, 0.0), unit_count, 1e6)

    out = {
        "cli.load_config.us_per_call": us_per("cli.load_config", calls.get("cli.load_config", 0)),
        "cli.sample_cloud.self_s": s("cli.sample_cloud"),
        "cli.sample_cloud.us_per_point": us_per("cli.sample_cloud", counts.get("cli.sample_cloud.points", 0)),
        "cli.run.self_s": s("cli.run"),
    }
    for name in ("expressions.parse", "expressions.evaluate", "expressions.gradient",
                 "expressions.derivative"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = s(name)
    for name in ("brackets.jacobi_report", "brackets.degeneracy"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.us_per_call"] = us_per(name, calls.get(name, 0))
    out["brackets.theta_matrix.calls"] = c("brackets.theta_matrix")
    out["brackets.theta_matrix.self_s"] = s("brackets.theta_matrix")

    steps = counts.get("dynamics.integrate.steps", 0)
    out["dynamics.integrate.calls"] = c("dynamics.integrate")
    out["dynamics.integrate.steps"] = per_pass(steps)
    out["dynamics.integrate.self_s"] = s("dynamics.integrate")
    out["dynamics.integrate.us_per_step"] = us_per("dynamics.integrate", steps)

    surf = counts.get("reduction.surface_cloud.points", 0)
    out["reduction.surface_cloud.self_s"] = s("reduction.surface_cloud")
    out["reduction.surface_cloud.us_per_point"] = us_per("reduction.surface_cloud", surf)
    out["reduction.surface_cloud.rejected_ratio"] = ratio(
        counts.get("reduction.surface_cloud.rejected", 0), surf)
    out["reduction.check_reduction.self_s"] = s("reduction.check_reduction")
    out["reduction.check_reduction.us_per_point"] = us_per(
        "reduction.check_reduction", counts.get("reduction.check_reduction.points", 0))
    out["reduction.total_variation_residual.calls"] = c("reduction.total_variation_residual")
    out["reduction.total_variation_residual.self_s"] = s("reduction.total_variation_residual")
    out["reduction.integrate_reduced.self_s"] = s("reduction.integrate_reduced")
    out["reduction.integrate_reduced.us_per_step"] = us_per(
        "reduction.integrate_reduced", counts.get("reduction.integrate_reduced.steps", 0))
    out["reduction.epsilon_sweep.self_s"] = s("reduction.epsilon_sweep")

    out["hodograph.Grid2D.points.calls"] = c("hodograph.Grid2D.points")
    out["hodograph.Grid2D.points.self_s"] = s("hodograph.Grid2D.points")
    out["hodograph.Grid2D.points.kept_ratio"] = ratio(
        counts.get("hodograph.Grid2D.points.kept", 0), counts.get("hodograph.Grid2D.points.total", 0))
    for name in ("hodograph.pde_residual", "hodograph.jacobian_minimum"):
        out[f"{name}.self_s"] = s(name)
        out[f"{name}.us_per_point"] = us_per(name, counts.get(f"{name}.points", 0))
    out["hodograph.limit_sweep.self_s"] = s("hodograph.limit_sweep")
    out["hodograph.HodographFamily.evaluate_uv.calls"] = c("hodograph.HodographFamily.evaluate_uv")
    out["hodograph.adaptive_simpson.calls"] = c("hodograph.adaptive_simpson")
    out["hodograph.adaptive_simpson.self_s"] = s("hodograph.adaptive_simpson")

    out["artifacts.write_csv.calls"] = c("artifacts.write_csv")
    out["artifacts.write_csv.self_s"] = s("artifacts.write_csv")
    out["artifacts.write_csv.mb"] = per_pass(counts.get("artifacts.write_csv.bytes", 0)) / 1e6
    out["artifacts.write_json.self_s"] = s("artifacts.write_json")
    return out
