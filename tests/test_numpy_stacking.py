"""The stacked numpy operations that check a cloud in blocks give the bits
of the one-point operations they replace.

``PoissonStructure.jacobi_report`` takes each dot product of a block as one
stacked ``(k, 1, d) @ (k, d, 1)`` product, and ``degeneracy_of`` takes the
determinants and the pairing products of a ``(k, d, d)`` stack at once.
``cli.sample_cloud`` draws a cloud as ``(k, dim)`` blocks of the random
stream and scales each block onto the cloud's ranges at once.  numpy gives these the kernels of the one-point calls, but does not promise
it; if a numpy release changes that, these tests fail first.  They use the
exact views the library passes, at d = 4 and 6, with signed zeros,
subnormals, infinities and NaNs among the values (any NaN equals any
other)."""

import math
import struct

import numpy as np
import pytest

K = 500
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.7e-309, math.inf, -math.inf, math.nan, 1e308]


def _values(rng, shape):
    """Random doubles of mixed magnitude.  A third of the leading slices
    hold no special value, a third one in fifty, a third one in eight."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, shape)
    # small integers make exact cancellations
    ints = rng.random(shape) < 0.1
    out[ints] = rng.integers(-3, 4, ints.sum())
    rate = rng.choice([0.0, 0.02, 0.125], shape[0]).reshape(-1, *[1] * (len(shape) - 1))
    special = rng.random(shape) < rate
    out[special] = rng.choice(SPECIALS, special.sum())
    return out


def _bits(values):
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in np.ravel(values).tolist()]


def _compare(what, got, want):
    """Every value of ``got`` has the bits of ``want``, and at least a
    third of them are finite, so the comparison is not vacuous."""
    count = sum(g != w for g, w in zip(_bits(got), _bits(want)))
    assert count == 0, f"{what}: {count} of {len(_bits(got))} differ under numpy {np.__version__}"
    assert np.isfinite(got).mean() > 1 / 3, what


@pytest.mark.parametrize("dim", [4, 6])
def test_stacked_dot_matches_np_dot(dim):
    rng = np.random.default_rng(dim)
    m = _values(rng, (K, dim, dim))
    grads = _values(rng, (K, dim, dim, dim))
    with np.errstate(all="ignore"):
        for a, b, c in [(0, 1, 2), (dim - 1, 0, dim - 2), (1, dim - 1, 0)]:
            stacked = (m[:, a, None, :] @ grads[:, b, c, :, None])[:, 0, 0]
            one_point = [np.dot(m[j, a], grads[j, b, c]) for j in range(K)]
            matmul = [m[j][a] @ grads[j][b, c] for j in range(K)]
            _compare(f"(k,1,d)@(k,d,1) against np.dot at {a, b, c}", stacked, one_point)
            _compare(f"(k,1,d)@(k,d,1) against 1-d @ at {a, b, c}", stacked, matmul)


@pytest.mark.parametrize("dim", [4, 6])
def test_stacked_det_matches_one_matrix_det(dim):
    rng = np.random.default_rng(10 + dim)
    stack = _values(rng, (K, dim, dim))
    with np.errstate(all="ignore"):
        # antisymmetric stacks, as the bracket matrices are, and general ones
        for matrices in (stack - stack.transpose(0, 2, 1), _values(rng, (K, dim, dim))):
            stacked = np.linalg.det(matrices)
            one_matrix = [np.linalg.det(matrices[j]) for j in range(K)]
            _compare("stacked det against one-matrix det", stacked, one_matrix)


@pytest.mark.parametrize("dim", [4, 6])
def test_stacked_pairing_matches_one_matrix_pairing(dim):
    rng = np.random.default_rng(20 + dim)
    stack = _values(rng, (K, dim, dim))
    n = dim // 2
    with np.errstate(all="ignore"):
        stacked = stack[:, :n, :n] @ stack[:, n:, n:]
        one_matrix = [stack[j][:n, :n] @ stack[j][n:, n:] for j in range(K)]
        _compare("stacked pairing product against one-matrix product", stacked, one_matrix)
        stacked = np.abs(stacked + np.eye(n)).max(axis=(1, 2))
        one_matrix = [np.max(np.abs(m[:n, :n] @ m[n:, n:] + np.eye(n))) for m in stack]
        _compare("stacked pairing residual against one-matrix residual", stacked, one_matrix)


@pytest.mark.parametrize("seed", [0, 7, 2101])
def test_block_draw_matches_one_draw_per_point(seed):
    # ``cli.sample_cloud`` draws a (k, dim) block where it drew k rows of
    # dim, and scales the block onto the cloud's ranges at once
    k, dim = 97, 4
    lo = np.array([-1.5, 0.3, -2.0, 1e-3])
    hi = np.array([1.5, 1.8, 2.5, 1e3])
    block = np.random.default_rng(seed).random((k, dim))
    rng = np.random.default_rng(seed)
    rows = [rng.random(dim) for _ in range(k)]
    _compare("block draw against one draw per point", block, rows)
    _compare(
        "scaled block against scaled rows",
        lo + (hi - lo) * block,
        [lo + (hi - lo) * row for row in rows],
    )
    # the stream goes on where the rows left it
    assert np.random.default_rng(seed).random((k + 1, dim))[-1].tolist() == rng.random(dim).tolist()
