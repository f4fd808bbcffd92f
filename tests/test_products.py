"""Every small product of the control step is ``ndarray.dot``, which must
give the bits of the ``@`` it replaced for each operand layout the step
passes, and every row-wise dot of the stacked survey and the QP's blocking
scan is one ``np.vecdot``, which must give each row the bits of its 1-D
dot. All reach the same BLAS routine (ddot or dgemv, dgemm for a Gram
matrix); a numpy or BLAS upgrade that splits them fails here first, before
the trace digests do."""

import itertools

import numpy as np
import pytest

from helpers import assert_same_bits
from coneguard.cone import Obstacle, input_map
from coneguard.dynamics import MOMENT_MIX, QuadrotorParams, rotation_matrix
from coneguard.tracking import ALLOCATION_INV

DRAWS = 1500


def _wide(rng, shape):
    """Signed draws with magnitudes from 1e-300 to 1e300, about one entry in
    ten a signed zero, an inf or a nan."""
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)
    kind = rng.integers(0, 50, shape)
    for k, special in enumerate((0.0, -0.0, np.inf, -np.inf, np.nan)):
        x[kind == k] = special
    return x


def _operands(rng, shape):
    """A wide draw, or on every other draw a plain normal one (the step's
    own scale, where BLAS's rounding differences would show)."""
    return _wide(rng, shape) if rng.integers(2) else rng.normal(size=shape)


def _assert_dot_is_matmul(a, x, context):
    with np.errstate(all="ignore"):
        got, want = a.dot(x), a @ x
    assert_same_bits(got, want, context)


def _cylinder_projector(rng):
    axis = rng.normal(size=3)
    return Obstacle(
        kind="cylinder", center=(0, 0, 0), radius_raw=0.1, axis=axis / np.linalg.norm(axis)
    )._projector


def test_vehicle_matrices_dot_as_matmul():
    """R (C-contiguous) and its transposed view R.T, the cached -M^T, the
    allocation and moment-mixing matrices, a cylinder projector, each on a
    fresh 3- or 4-vector and on a view into a 12-vector."""
    rng = np.random.default_rng(2301)
    neg_mt = input_map(QuadrotorParams())
    assert neg_mt.flags.f_contiguous and not neg_mt.flags.writeable
    for i in range(DRAWS):
        if i % 2:
            R = rotation_matrix(rng.uniform(-3.0, 3.0, 3))
        else:
            R = _wide(rng, (3, 3))
        assert R.flags.c_contiguous
        P = _cylinder_projector(rng)
        state = _operands(rng, 12)
        for name, matrix, x in (
            ("R", R, _operands(rng, 3)),
            ("R.T", R.T, _operands(rng, 3)),
            ("R body rates", R, state[9:12]),
            ("-M^T", neg_mt, _operands(rng, 3)),
            ("ALLOCATION_INV", ALLOCATION_INV, _operands(rng, 4)),
            ("MOMENT_MIX", MOMENT_MIX, _operands(rng, 4)),
            ("projector", P, _operands(rng, 3)),
        ):
            _assert_dot_is_matmul(matrix, x, (name, matrix, x))


def test_vector_dots_as_matmul():
    """1-D dots of 3- and 4-vectors, of two vectors and of one with itself,
    and of every sign pattern of zeros, whose sum is -0.0 only if each
    product is."""
    for n in (3, 4):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            zeros = np.array(signs) * 0.0
            _assert_dot_is_matmul(zeros, np.ones(n), zeros)
            _assert_dot_is_matmul(zeros, -np.ones(n), zeros)
    rng = np.random.default_rng(2302)
    for _ in range(DRAWS):
        for n in (3, 4):
            x, y = _operands(rng, n), _operands(rng, n)
            _assert_dot_is_matmul(x, y, (x, y))
            _assert_dot_is_matmul(x, x, (x, x))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_qp_rows_dot_as_matmul(m):
    """(m, 4) rows times a 4-vector, as the step builds them: a [None] view
    of one fresh row, np.array of the rows and barrier_stack's input rows;
    and the certificate's products W u and W^T lambda on a working set W of
    two to four rows, as fancy indexing copies it. (One row's W^T lambda
    differs: ``.dot`` keeps a -0.0 product that matmul's sum from +0.0 turns
    into +0.0, so the subset projection keeps ``@``.)"""
    rng = np.random.default_rng(2303 + m)
    neg_mt = input_map(QuadrotorParams())
    for _ in range(DRAWS // 5):
        rows = [_operands(rng, 4) for _ in range(m)]
        with np.errstate(all="ignore"):
            stacked = np.matmul(neg_mt, _operands(rng, (m, 3, 1)))[:, :, 0]
        layouts = [("np.array(rows)", np.array(rows)), ("input_rows", stacked)]
        if m == 1:
            layouts.append(("row[None]", rows[0][None]))
        x = _operands(rng, 4)
        for name, A in layouts:
            _assert_dot_is_matmul(A, x, (name, A, x))
            for k in range(2, min(m, 4) + 1):
                W = A[list(range(k))]
                _assert_dot_is_matmul(W, x, (name, "W u", W, x))
                lam = _operands(rng, k)
                _assert_dot_is_matmul(W.T, lam, (name, "W^T lambda", W, lam))


@pytest.mark.parametrize("n", range(1, 10))
def test_row_dots_by_vecdot(n):
    """np.vecdot over n rows as the step passes them, each row against the
    1-D dot and against the (n, 1, k) by (n, k, 1) matmul it replaced:
    p . v, v . v and p . p on the two halves of one (2n, 3) array (the
    stacked survey's p and v), w . v on separate arrays, the norms of
    barrier_stack's input rows, w . a_d against one 3-vector, and the
    blocking scan's (n, 4) rows, fresh or input rows, against a 4-vector."""
    rng = np.random.default_rng(2600 + n)
    neg_mt = input_map(QuadrotorParams())
    for _ in range(DRAWS // 5):
        pv = _operands(rng, (2 * n, 3))
        p, v, w = pv[:n], pv[n:], _operands(rng, (n, 3))
        with np.errstate(all="ignore"):
            input_rows = np.matmul(neg_mt, _operands(rng, (n, 3, 1)))[:, :, 0]
        a_d, x = _operands(rng, 3), _operands(rng, 4)
        for name, a, b in (
            ("p.v", p, v),
            ("v.v", v, v),
            ("p.p", p, p),
            ("w.v", w, v),
            ("input row norms", input_rows, input_rows),
            ("w.a_d", w, a_d),
            ("rows.x", _operands(rng, (n, 4)), x),
            ("input rows.x", input_rows, x),
        ):
            with np.errstate(all="ignore"):
                got = np.vecdot(a, b)
                others = np.broadcast_to(b, a.shape)
                rows = [row.dot(other) for row, other in zip(a, others)]
                stacked = np.matmul(a[:, None, :], b[..., None])[:, 0, 0]
            assert_same_bits(got, np.array(rows), (name, "1-D dots", a, b))
            assert_same_bits(got, stacked, (name, "stacked matmul", a, b))
