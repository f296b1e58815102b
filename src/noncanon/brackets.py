"""Poisson structures with state-dependent brackets.

A structure stores the upper triangle of the antisymmetric coefficient
matrix Theta_ab = {x_a, x_b} as expression trees over the phase-space
names q1..qn, p1..pn, plus any parameter values those expressions use.
Antisymmetry is structural: only a < b entries exist, the mirror entry is
the negation.  Everything here is a pure function of (structure, point).

Supported kinds:

* ``canonical``          {q_i,p_j} = delta_ij, all else zero
* ``constant-theta-f``   planar, {q1,q2} = theta and {p1,p2} = f constant
* ``theta-f-field``      {q_i,q_j} and {p_i,p_j} state-dependent,
                         {q_i,p_j} = delta_ij
* ``general-planar``     planar with all six brackets free functions
* ``custom``             explicit upper-triangle entries

With canonical mixed brackets the Jacobi identities are transport
constraints.  Their operator pair (``_total_dq``, ``_total_dp``) also gives
the surface total variations of :mod:`reduction`; both read it from one
entry-gradient pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from typing import Mapping

import numpy as np

# ``parse`` and ``evaluate`` stay bound here: perfbench/tracing.py wraps them
# under these names
from .expressions import (  # noqa: F401
    Const,
    Expression,
    Unary,
    _row_pass,
    as_expression,
    evaluate,
    free_names,
    gradient,
    is_constant_over,
    parse,
)

__all__ = [
    "PoissonStructure",
    "entry_label",
    "StructureError",
    "JacobiReport",
    "DegeneracyReport",
    "DELTA_KINDS",
    "phase_variable_names",
    "canonical",
    "constant_theta_f",
    "theta_f_field",
    "general_planar",
    "custom",
    "omega_matrix",
    "planar_entries",
    "d_operator_values",
]

#: kinds whose coordinate-momentum brackets are exactly delta_ij
DELTA_KINDS = frozenset({"canonical", "constant-theta-f", "theta-f-field"})

_ZERO = Const(0.0)

#: the six planar bracket functions and the upper-triangle entry of each
_PLANAR_ENTRIES = (
    ("theta", (0, 1)),
    ("f", (2, 3)),
    ("g11", (0, 2)),
    ("g12", (0, 3)),
    ("g21", (1, 2)),
    ("g22", (1, 3)),
)


class StructureError(ValueError):
    """Invalid structure description."""


def phase_variable_names(n: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(1, n + 1)) + tuple(
        f"p{i}" for i in range(1, n + 1)
    )


@dataclass(frozen=True, eq=False)
class JacobiReport:
    """Pointwise Jacobi residuals: the generic triple sum plus, where the
    structure names its bracket functions, each constraint separately.
    ``theta`` is the bracket matrix the residuals were computed from, for
    :meth:`PoissonStructure.degeneracy_of` at the same point.  For a block
    of points each value is an array over the block, ``theta`` a stack."""

    generic_max: float
    identities: dict[str, float] = field(default_factory=dict)
    theta: np.ndarray | None = field(default=None, repr=False)

    @property
    def max_identity(self) -> float:
        """The largest identity residual of a one-point report."""
        return max(self.identities.values()) if self.identities else 0.0


@dataclass(frozen=True, eq=False)
class DegeneracyReport:
    """Degeneracy measures at one point, or arrays of them over a stack."""

    det: float
    inverse_pairing_residual: float | None = None
    planar_condition: float | None = None


@dataclass(frozen=True, eq=False)
class PoissonStructure:
    """Antisymmetric bracket coefficient matrix over a 2n phase space."""

    n: int
    kind: str
    entries: Mapping[tuple[int, int], Expression]
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise StructureError("need at least one degree of freedom")
        dim = 2 * self.n
        for (a, b) in self.entries:
            if not (0 <= a < b < dim):
                raise StructureError(
                    f"entry index ({a},{b}) outside the upper triangle of a "
                    f"{dim}x{dim} matrix; only a < b entries may be supplied"
                )
        allowed = set(phase_variable_names(self.n)) | set(self.parameters)
        for expr in self.entries.values():
            unknown = free_names(expr) - allowed
            if unknown:
                raise StructureError(
                    f"entry references undeclared names {sorted(unknown)}"
                )

    # -- naming ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def variable_names(self) -> tuple[str, ...]:
        return phase_variable_names(self.n)

    def _coordinates(self, x) -> list[float]:
        """One phase point as a list of Python floats, once its shape and
        the finiteness of every coordinate are checked."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise StructureError(
                f"phase point must have length {self.dim}, got shape {x.shape}"
            )
        values = x.tolist()
        if not all(map(math.isfinite, values)):
            raise StructureError("phase point has non-finite entries")
        return values

    def env_at(self, x) -> dict:
        return {**self.parameters, **dict(zip(self.variable_names, self._coordinates(x)))}

    def entry_expression(self, a: int, b: int) -> Expression:
        """Signed expression for Theta_ab, including the implicit zeros."""
        if a == b:
            return _ZERO
        if a < b:
            return self.entries.get((a, b), _ZERO)
        expr = self.entries.get((b, a), _ZERO)
        return _ZERO if expr is _ZERO else Unary("neg", expr)

    # -- evaluation ----------------------------------------------------------
    #
    # A (k, dim) block of points runs one generated pass over the state
    # tuples the flows' rows read (``expressions._row_pass``), built on
    # first use: every stored entry's value, or its value and then its
    # partials, at each point in order; one point is a block of one.  A
    # point whose generated code raises is redone on the tree walker, entry
    # by entry, value before partials, so errors, and which of them wins,
    # are the tree walker's.  Each round of the surface solve is one pass
    # over its running points with a redo of its own, which rejects a
    # point that leaves the domain (``reduction._surface_q``).

    @cached_property
    def _value_pass(self):
        """A pass over a block of points for every stored entry's value, in
        entry order."""
        return _row_pass(self, self.entries.values())

    @cached_property
    def _dual_pass(self):
        """A pass over a block of points for every stored entry's value and
        then its partials with respect to every phase-space name."""
        return _row_pass(self, self.entries.values(), self.variable_names)

    def _at_points(self, x, variables=(), redo=None) -> tuple[bool, np.ndarray]:
        """Whether ``x`` is a block, and the (k, entries, 1 + len(variables))
        stack of every entry's value and partials with respect to
        ``variables`` (none, or every phase-space name) at its k points;
        k = 1 for one point.  The points before the first that
        :meth:`_coordinates` refuses, of the wrong shape or not finite, are
        evaluated before it is refused, so their errors win.  A ``redo``
        takes the place of the pass's own, the tree walker's row
        (``expressions._redo``), at the points whose generated code raises."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            valid = x.shape[1:] == (self.dim,) and np.isfinite(x).all(axis=1)
            k = len(x) if np.all(valid) else int(np.argmin(valid))
            points = zip(*x[:k].T.tolist())
        else:
            k, points = 1, [self._coordinates(x)]
        rows = np.empty((k, len(self.entries), 1 + len(variables)))
        fill = self._dual_pass if variables else self._value_pass
        fill.func(redo or fill.args[0], self.parameters, points, memoryview(rows.reshape(-1)))
        if x.ndim == 2 and k < len(x):
            self._coordinates(x[k])
        return x.ndim == 2, rows

    @cached_property
    def _flat_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat positions in a dim x dim matrix of the stored entries
        and of their mirror entries, in entry order."""
        dim = self.dim
        keys = np.array(list(self.entries), dtype=np.intp).reshape(-1, 2)
        return keys[:, 0] * dim + keys[:, 1], keys[:, 1] * dim + keys[:, 0]

    def _antisymmetric(self, values: np.ndarray) -> np.ndarray:
        """The (k, dim, dim, ...) stack holding ``values[:, e]`` at the e-th
        stored entry and its negation at the mirror entry."""
        k, rest = len(values), values.shape[2:]
        upper, lower = self._flat_entries
        out = np.zeros((k, self.dim * self.dim, *rest))
        out[:, upper] = values
        out[:, lower] = -values
        return out.reshape(k, self.dim, self.dim, *rest)

    def theta_matrix(self, x) -> np.ndarray:
        """Numeric antisymmetric matrix Theta_ab(x); over a (k, dim) block,
        the (k, dim, dim) stack of them."""
        many, rows = self._at_points(x)
        m = self._antisymmetric(rows[..., 0])
        return m if many else m[0]

    def theta_block(self, x) -> np.ndarray:
        """The n x n coordinate-coordinate block {q_i, q_j}."""
        return self.theta_matrix(x)[: self.n, : self.n]

    def f_block(self, x) -> np.ndarray:
        """The n x n momentum-momentum block {p_i, p_j}."""
        return self.theta_matrix(x)[self.n :, self.n :]

    def bracket(self, a_expr, b_expr, x) -> float:
        """{A, B}(x) = Theta_ab dA/dx_a dB/dx_b."""
        a_expr = as_expression(a_expr)
        b_expr = as_expression(b_expr)
        env = self.env_at(x)
        names = self.variable_names
        ga = np.array(gradient(a_expr, names, env))
        gb = np.array(gradient(b_expr, names, env))
        return float(ga @ self.theta_matrix(x) @ gb)

    # -- consistency ---------------------------------------------------------

    def _entry_gradients(self, x):
        """Values and gradients of every Theta_ab at x, with antisymmetry:
        ``m[a, b]`` and ``grads[a, b, c]`` = d Theta_ab / d x_c, stacked
        over a (k, dim) block."""
        many, rows = self._at_points(x, self.variable_names)
        m, grads = self._antisymmetric(rows[..., 0]), self._antisymmetric(rows[..., 1:])
        return (m, grads) if many else (m[0], grads[0])

    def jacobi_report(self, x) -> JacobiReport:
        """Residuals of {x_a,{x_b,x_c}} + cyclic over all index triples,
        plus the named constraints for kinds with named bracket functions,
        at one point or over a (k, dim) block.

        Each triple's residual is three stacked dot products, ``m[a] @
        grads[b, c]`` at every point of the block."""
        x = np.asarray(x, dtype=float)
        m, grads = self._entry_gradients(x if x.ndim == 2 else x[None])
        generic = np.zeros(len(m))
        identities: dict[str, float] = {}
        # silent on overflow, as the same arithmetic on Python floats
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b, c in combinations(range(self.dim), 3):
                r = (
                    m[:, a, None, :] @ grads[:, b, c, :, None]
                    + m[:, b, None, :] @ grads[:, c, a, :, None]
                    + m[:, c, None, :] @ grads[:, a, b, :, None]
                )
                # a NaN never wins, as in a running max()
                generic = np.fmax(generic, np.abs(r[:, 0, 0]))
            if self.kind in DELTA_KINDS:
                identities = self._delta_kind_identities(x, m, grads)
            elif self.kind == "general-planar":
                identities = _planar_identities(m, grads)
        if x.ndim == 2:
            return JacobiReport(generic, identities, m)
        return JacobiReport(generic[0], {name: v[0] for name, v in identities.items()}, m[0])

    def _delta_kind_identities(self, x, m, grads) -> dict[str, float]:
        """The transport and cyclic identities from :meth:`_entry_gradients`
        at one point, or from stacks of them (arrays over the stack)."""
        n = self.n
        ids: dict[str, float] = {}
        if n == 2:
            # planar transport constraints on theta = {q1,q2}, f = {p1,p2}
            tg = grads[..., 0, 1, :]
            fg = grads[..., 2, 3, :]
            tv = m[..., 0, 1]
            fv = m[..., 2, 3]
            ids["theta_transport_q1"] = abs(tg[..., 0] - fv * tg[..., 3])
            ids["theta_transport_q2"] = abs(tg[..., 1] + fv * tg[..., 2])
            ids["f_transport_p2"] = abs(fg[..., 3] - tv * fg[..., 0])
            ids["f_transport_p1"] = abs(fg[..., 2] + tv * fg[..., 1])
            # the halved pair valid on the degenerate locus theta*f = 1
            ids["reduced_transport_q1"] = abs(tv * tg[..., 0] - tg[..., 3])
            ids["reduced_transport_q2"] = abs(tv * tg[..., 1] + tg[..., 2])
            return ids
        # arbitrary n: aggregate the transport and cyclic constraints
        points = m.shape[:-2]
        pairs = list(combinations(range(n), 2))
        ids["theta_transport"] = _max_abs(
            points,
            (_total_dq(grads[..., i, j, :], m, n, k) for i, j in pairs for k in range(n)),
        )
        ids["f_transport"] = _max_abs(
            points,
            (_total_dp(grads[..., n + i, n + j, :], m, n, k) for i, j in pairs for k in range(n)),
        )
        if n >= 3:
            cycles = [((i, j, k), (j, k, i), (k, i, j)) for i, j, k in combinations(range(n), 3)]
            ids["theta_cyclic"] = _max_abs(
                points,
                (
                    sum(_total_dp(grads[..., a, b, :], m, n, c) for a, b, c in cyc)
                    for cyc in cycles
                ),
            )
            ids["f_cyclic"] = _max_abs(
                points,
                (
                    sum(_total_dq(grads[..., n + a, n + b, :], m, n, c) for a, b, c in cyc)
                    for cyc in cycles
                ),
            )
        return ids

    def degeneracy(self, x) -> DegeneracyReport:
        """det Theta plus the kind-specific degeneracy measure."""
        return self.degeneracy_of(self.theta_matrix(x))

    def degeneracy_of(self, m: np.ndarray) -> DegeneracyReport:
        """:meth:`degeneracy` from a Theta matrix already built at the point,
        or from a (k, dim, dim) stack of them."""
        stack = m if m.ndim == 3 else m[None]
        pairing = None
        planar = None
        # silent on overflow, as the same arithmetic on Python floats
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            det = np.linalg.det(stack)
            if self.kind in DELTA_KINDS:
                n = self.n
                product = stack[:, :n, :n] @ stack[:, n:, n:]
                pairing = np.abs(product + np.eye(n)).max(axis=(1, 2))
            elif self.kind == "general-planar":
                theta, field, g11, g12, g21, g22 = _planar_columns(stack)
                planar = theta * field - g11 * g22 + g12 * g21
        if m.ndim == 3:
            return DegeneracyReport(det, pairing, planar)
        return DegeneracyReport(
            det=float(det[0]),
            inverse_pairing_residual=None if pairing is None else float(pairing[0]),
            planar_condition=None if planar is None else float(planar[0]),
        )

    def nonconstant_entry_names(self) -> tuple[str, ...]:
        """Labels of stored entries that depend on phase-space variables."""
        names = self.variable_names
        labels = []
        for (a, b), expr in sorted(self.entries.items()):
            if not is_constant_over(expr, names):
                labels.append(entry_label(self.n, a, b))
        return tuple(labels)


# ---------------------------------------------------------------------------
# The transport operator pair: total variations along the constraint surface
# of a function E with gradient ``g`` over (q, p), for the bracket matrix
# ``m`` (as ``_entry_gradients`` gives them) with canonical mixed brackets.
# Over stacks of gradients and matrices they give arrays over the stack.


def _total_dq(g, m, n: int, k: int):
    """dE/dq_k + f_sk dE/dp_s, that is {E, p_k}."""
    return g[..., k] + sum(g[..., n + s] * m[..., n + s, n + k] for s in range(n))


def _total_dp(g, m, n: int, k: int):
    """dE/dp_k - theta_sk dE/dq_s, that is -{E, q_k}."""
    return g[..., n + k] - sum(g[..., s] * m[..., s, k] for s in range(n))


def _max_abs(shape, values):
    """The fold max(acc, |v|) from 0.0, elementwise over arrays of
    ``shape``: 0.0 for no values, and a NaN never wins."""
    return reduce(np.fmax, map(abs, values), np.zeros(shape))


def entry_label(n: int, a: int, b: int) -> str:
    """Human-readable name for the (a, b) bracket entry: theta_ij, f_ij, g_ij."""
    def side(c):
        return ("q", c + 1) if c < n else ("p", c - n + 1)

    (sa, ia), (sb, ib) = side(a), side(b)
    if sa == "q" and sb == "q":
        return f"theta_{ia}{ib}"
    if sa == "p" and sb == "p":
        return f"f_{ia}{ib}"
    return f"g_{ia}{ib}"


# ---------------------------------------------------------------------------
# Builders


def canonical(n: int, parameters: Mapping[str, float] | None = None) -> PoissonStructure:
    entries = {(i, n + i): Const(1.0) for i in range(n)}
    return PoissonStructure(n, "canonical", entries, dict(parameters or {}))


def constant_theta_f(
    theta: float, f: float, parameters: Mapping[str, float] | None = None
) -> PoissonStructure:
    """Planar structure with constant {q1,q2} = theta and {p1,p2} = f."""
    entries = {
        (0, 1): Const(float(theta)),
        (0, 2): Const(1.0),
        (1, 3): Const(1.0),
        (2, 3): Const(float(f)),
    }
    return PoissonStructure(2, "constant-theta-f", entries, dict(parameters or {}))


def _field_entries(n, offset, fields, label):
    entries = {}
    for key, src in (fields or {}).items():
        i, j = key
        if not (1 <= i <= n and 1 <= j <= n):
            raise StructureError(f"{label} index {key} outside 1..{n}")
        if i >= j:
            raise StructureError(
                f"{label} entries must be given for i < j only (antisymmetry "
                f"is structural); got {key}"
            )
        entries[(offset + i - 1, offset + j - 1)] = as_expression(src)
    return entries


def theta_f_field(
    n: int,
    theta: Mapping[tuple[int, int], object] | None = None,
    f: Mapping[tuple[int, int], object] | None = None,
    parameters: Mapping[str, float] | None = None,
) -> PoissonStructure:
    """Structure with {q_i,q_j} = theta_ij(q,p), {p_i,p_j} = f_ij(q,p) and
    canonical mixed brackets.  Field mappings are keyed by (i, j), i < j."""
    entries = {(i, n + i): Const(1.0) for i in range(n)}
    entries.update(_field_entries(n, 0, theta, "theta"))
    entries.update(_field_entries(n, n, f, "f"))
    return PoissonStructure(n, "theta-f-field", entries, dict(parameters or {}))


def general_planar(
    theta, f, g11, g12, g21, g22, parameters: Mapping[str, float] | None = None
) -> PoissonStructure:
    """Planar structure with all six bracket functions user-supplied."""
    functions = (theta, f, g11, g12, g21, g22)
    entries = {
        key: e
        for (_, key), src in zip(_PLANAR_ENTRIES, functions)
        if (e := as_expression(src)) != _ZERO
    }
    return PoissonStructure(2, "general-planar", entries, dict(parameters or {}))


def custom(
    n: int,
    entries: Mapping[tuple[int, int], object],
    parameters: Mapping[str, float] | None = None,
) -> PoissonStructure:
    """Explicit upper-triangle entries keyed by 1-based flat indices (a, b)."""
    converted = {}
    for (a, b), src in entries.items():
        if not (1 <= a < b <= 2 * n):
            raise StructureError(
                f"custom entry ({a},{b}) must satisfy 1 <= a < b <= {2*n}"
            )
        converted[(a - 1, b - 1)] = as_expression(src)
    return PoissonStructure(n, "custom", converted, dict(parameters or {}))


# ---------------------------------------------------------------------------
# Constant planar helpers


def omega_matrix(theta: float, f: float) -> np.ndarray:
    """Closed-form inverse of the constant planar bracket matrix, with the
    1/(1 - theta*f) prefactor.  The product theta_matrix @ omega_matrix is
    the identity whenever theta*f != 1."""
    denom = 1.0 - theta * f
    if denom == 0.0:
        raise StructureError("omega undefined at the degenerate limit theta*f = 1")
    return (1.0 / denom) * np.array(
        [
            [0.0, f, -1.0, 0.0],
            [-f, 0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0, theta],
            [0.0, 1.0, -theta, 0.0],
        ]
    )


def planar_entries(m: np.ndarray) -> tuple[float, ...]:
    """(theta, f, g11, g12, g21, g22) read from a planar Theta matrix."""
    return tuple(m.item(key) for _, key in _PLANAR_ENTRIES)


def _d_operators(theta, f, g11, g12, g21, g22, partials) -> tuple[float, ...]:
    """D1..D4 (see :func:`d_operator_values`) from the entry values and the
    partials (d/dq1, d/dq2, d/dp1, d/dp2) of the target function."""
    eq1, eq2, ep1, ep2 = partials
    return (
        -theta * eq2 - g11 * ep1 - g12 * ep2,
        -theta * eq1 + g21 * ep1 + g22 * ep2,
        -f * ep2 + g11 * eq1 + g21 * eq2,
        f * ep1 + g12 * eq1 + g22 * eq2,
    )


def _planar_columns(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`planar_entries` over a (k, 4, 4) stack, as arrays."""
    return tuple(stack[:, a, b] for _, (a, b) in _PLANAR_ENTRIES)


def _planar_identities(m: np.ndarray, grads: np.ndarray) -> dict[str, np.ndarray]:
    """The four general-planar Jacobi identities, each a sum of D operators
    applied to the bracket functions, from the stacked values and gradients
    of :meth:`PoissonStructure._entry_gradients`."""
    values = _planar_columns(m)
    d = {name: _d_operators(*values, grads[:, a, b].T) for name, (a, b) in _PLANAR_ENTRIES}
    return {
        "theta_d3": abs(d["theta"][2] + d["g21"][0] + d["g11"][1]),
        "theta_d4": abs(d["theta"][3] + d["g22"][0] + d["g12"][1]),
        "f_d1": abs(d["f"][0] - d["g12"][2] + d["g11"][3]),
        "f_d2": abs(d["f"][1] - d["g22"][2] + d["g21"][3]),
    }


def d_operator_values(structure: PoissonStructure, expr, x) -> np.ndarray:
    """Values of the four planar first-order operators applied to ``expr``.

    With entry values (theta, f, g11, g12, g21, g22) at x and partials
    (f_q1, f_q2, f_p1, f_p2) of the target function:

        D1 = -theta d/dq2 - g11 d/dp1 - g12 d/dp2
        D2 = -theta d/dq1 + g21 d/dp1 + g22 d/dp2
        D3 = -f d/dp2 + g11 d/dq1 + g21 d/dq2
        D4 = +f d/dp1 + g12 d/dq1 + g22 d/dq2

    Any two of them span the time-derivative of the reduced flow; see the
    dynamics module for the combination rule.
    """
    if structure.n != 2:
        raise StructureError("the D operators are defined for planar structures")
    expr = as_expression(expr)
    values = planar_entries(structure.theta_matrix(x))
    partials = gradient(expr, structure.variable_names, structure.env_at(x))
    return np.array(_d_operators(*values, partials))
