"""The constraint surface is solved in blocks of at most ``_DET_BLOCK``
momentum points, each point seeing the iterates it would see alone.

``surface_cloud`` must give the points of a point-by-point loop over
``reference_surface_q`` (the former one-point solve, kept in
``tests/test_fixed_point.py``) bit for bit and in the same order, and reject
the same number of points: points whose plain iteration diverges and
restarts damped, points that never converge and points that leave the
expression domain.  The clouds straddle the block size."""

import math

import numpy as np
import pytest

from noncanon.brackets import StructureError, theta_f_field
from noncanon.dynamics import _DET_BLOCK
from noncanon.expressions import DomainError
from noncanon.reduction import (
    FixedPointError,
    _damped_fixed_point,
    reduction_constants,
    surface_cloud,
)
from test_fixed_point import SURFACES, reference_surface_q

SIZES = [1, _DET_BLOCK - 1, _DET_BLOCK, _DET_BLOCK + 1, 600]

# one reference point per surface of ``SURFACES``; between them they give
# plain and damped convergence, divergence in both passes and ``log(q1)``
# domain rejects
REFERENCES = [
    [0.7, 0.4, 0.3, -0.5],
    [1.2, -0.3, 0.8, 0.6],
    [0.7, 0.4, 0.3, -0.5],
    [0.7, 0.4, 0.3, -0.5],
]


def _momenta(seed, count, n=2):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, (count, n))


def _reference_solves(structure, reference, p_points):
    """Each point of a loop over the momenta, one ``reference_surface_q``
    solve each, or None where it was rejected."""
    reference = np.asarray(reference, dtype=float)
    constants = reduction_constants(structure, reference)
    theta_ref = structure.theta_block(reference)
    solved = []
    # the reference's own numpy arithmetic may overflow; only the library's
    # must stay silent
    with np.errstate(all="ignore"):
        for p in p_points:
            try:
                q = reference_surface_q(structure, constants, theta_ref, p, 1e-12, 200)
            except (FixedPointError, DomainError):
                solved.append(None)
                continue
            solved.append(np.concatenate([q, p]))
    return solved


def _assert_same_cloud(sample, solved, dim):
    """``sample`` holds the points of ``solved`` in order, bit for bit, and
    counts its rejects."""
    points = np.array([x for x in solved if x is not None]).reshape(-1, dim)
    assert sample.rejected == sum(x is None for x in solved)
    assert sample.points.shape == points.shape
    assert sample.points.tobytes() == points.tobytes()


@pytest.mark.parametrize("index", range(len(SURFACES)))
def test_blocked_cloud_matches_the_point_by_point_loop(index):
    structure, reference = SURFACES[index], REFERENCES[index]
    p_points = _momenta(index, max(SIZES))
    solved = _reference_solves(structure, reference, p_points)
    for size in SIZES:
        sample = surface_cloud(structure, reference, p_points[:size])
        _assert_same_cloud(sample, solved[:size], structure.dim)
    if index >= 1:
        assert 0 < sample.rejected < len(p_points)


def test_blocked_cloud_matches_at_three_degrees_of_freedom():
    structure = theta_f_field(
        3, {(1, 2): "0.2*q3 + 0.1*p1", (1, 3): "0.1*q2*q1", (2, 3): "0.3*q1 - 0.2*p3"}
    )
    reference = [0.7, 0.4, -0.2, 0.3, -0.5, 0.6]
    p_points = _momenta(3, _DET_BLOCK + 45, n=3)
    sample = surface_cloud(structure, reference, p_points)
    _assert_same_cloud(sample, _reference_solves(structure, reference, p_points), 6)
    assert len(sample.points) > _DET_BLOCK


def test_a_point_whose_f_entry_leaves_the_domain_is_rejected():
    # the theta entry is defined everywhere; only the f entry, log(q1),
    # rejects points, so a row of theta entries alone would admit them
    theta = {(1, 2): "0.5*q2 + 0.3"}
    with_f = theta_f_field(2, theta, {(1, 2): "log(q1)"})
    reference = [0.2, 0.4, 0.3, -0.5]
    p_points = _momenta(5, 300)
    sample = surface_cloud(with_f, reference, p_points)
    _assert_same_cloud(sample, _reference_solves(with_f, reference, p_points), 4)
    theta_only = surface_cloud(theta_f_field(2, theta), reference, p_points)
    assert sample.rejected > theta_only.rejected
    assert len(sample.points) > 0


def test_an_empty_cloud_has_no_points():
    sample = surface_cloud(SURFACES[1], REFERENCES[1], np.empty((0, 2)))
    assert sample.points.shape == (0, 4)
    assert sample.rejected == 0


def test_an_error_other_than_a_domain_error_propagates():
    # an infinite momentum gives a non-finite seed, which no point-by-point
    # loop could evaluate either
    p_points = [[0.5, 0.5], [math.inf, 0.5], [0.6, 0.5]]
    with pytest.raises(StructureError, match="phase point has non-finite entries"):
        surface_cloud(SURFACES[1], REFERENCES[1], p_points)


def test_failed_points_keep_their_last_iterate():
    # point 0 runs out of steps in both passes and fails with the damped
    # pass's last iterate; point 1 converges on its second step
    def targets(running, x):
        return np.array(
            [(3.0 * xi[0] + 1.0 if i == 0 else 0.25,) for i, xi in zip(running, x.tolist())]
        )

    x, failed = _damped_fixed_point(targets, np.array([[1.0], [1.0]]), 1e-12, 3)
    assert failed == {0: None}
    last = 1.0
    for _ in range(3):
        last = last + 0.5 * (3.0 * last + 1.0 - last)
    assert x.tolist() == [[last], [0.25]]
