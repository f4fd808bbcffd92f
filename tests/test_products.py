"""Every small product of the control step is ``ndarray.dot``, which must
give the bits of the ``@`` it replaced for each operand layout the step
passes, every row-wise dot of the stacked survey and the QP's blocking
scan is one ``np.vecdot``, which must give each row the bits of its 1-D
dot, and every broadcast matmul of the batched paths must give each row
the bits of the scalar path's product, as must each system of the QP
search's stacked lstsq. All reach the same BLAS routine (ddot or dgemv,
dgemm for a Gram matrix) or the same LAPACK call (dgelsd); a numpy or BLAS
upgrade that splits them fails here first, before the trace digests do."""

import itertools

import numpy as np
import pytest

from helpers import assert_same_bits, random_state
from test_qp import FAMILIES
from coneguard import qp
from coneguard.cone import BodyFrame, Obstacle, input_map
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


def _moderate(rng, shape):
    """Signed draws whose magnitudes span 1e-8 to 1e8."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


def test_batched_products_are_bit_equal_to_per_row_ones():
    """_phi_ratio and cone.barrier_stack rely on these: the projector as a
    broadcast matmul over (N, 3, 1), one projector per row stacked, and one
    per column of an (n, k, 3, 1) grid, broadcast over its n rows, R^T w and
    -M^T y with the step's matrices broadcast over (N, 3, 1), and arccos over
    an array, each equal to the per-row call of the scalar path. The
    operands keep the scalar path's layout (a contiguous projector, a
    transposed R and -M^T, rows of p), since BLAS may sum in another order
    for another layout."""
    rng = np.random.default_rng(12)
    n = 4000
    p = _moderate(rng, (n, 3))
    projectors = []
    for _ in range(5):
        P = _cylinder_projector(rng)
        projectors.append(P)
        projected = np.matmul(P, p[:, :, None])[:, :, 0]
        assert_same_bits(projected, np.array([P @ row for row in p]))
    cos_phi = np.concatenate(
        [rng.uniform(0.0, 1.0, n), 10.0 ** rng.uniform(-300.0, 0.0, n), [0.0, 1.0]]
    )
    angles = np.arccos(cos_phi)
    assert_same_bits(angles, np.array([float(np.arccos(c)) for c in cos_phi.tolist()]))
    v = _moderate(rng, (n, 3))
    _moderate(rng, (n, 4))  # unused, so that the states below keep their draws
    stacked = np.array([projectors[i % 5] for i in range(n)])
    assert_same_bits(
        np.matmul(stacked, p[:, :, None])[:, :, 0],
        np.array([P @ row for P, row in zip(stacked, p)]),
    )
    grid = p.reshape(-1, 5, 3)
    assert_same_bits(
        np.matmul(np.array(projectors), grid[..., None])[..., 0],
        np.array([[P @ row for P, row in zip(projectors, rows)] for rows in grid]),
    )
    for _ in range(5):
        frame = BodyFrame(random_state(rng, att_max=1.4, rate=50.0), QuadrotorParams())
        y = np.matmul(frame.R.T, v[:, :, None])
        assert_same_bits(y[:, :, 0], np.array([frame.R.T @ w for w in v]))
        input_rows = np.matmul(frame.input_map, y)[:, :, 0]
        assert_same_bits(input_rows, np.array([frame.input_map @ x for x in y[:, :, 0]]))


def _lstsq_alone(M, y):
    """lstsq's solution of one system, rcond=None, or all nan where an entry
    is not finite, which LAPACK refuses."""
    if np.isfinite(M).all() and np.isfinite(y).all():
        return np.linalg.lstsq(M, y, rcond=None)[0]
    return np.full(M.shape[1], np.nan)


def _alone(u_des, A, b, rows):
    """(Gram, right-hand side, mu, candidate) of the projection onto the
    subset rows in that order, solved on its own."""
    A_s, b_s = A[list(rows)], b[list(rows)]
    gram, r = A_s @ A_s.T, -(A_s @ u_des + b_s)
    mu = _lstsq_alone(gram, r)
    return gram, r, mu, u_des + A_s.T @ mu


def _assert_stacks_are_per_subset(u_des, A, b, context):
    """The QP's feasible-start candidates, size by size as it stacks them,
    against every subset on its own: the single rows' closed forms (size 1)
    and each size of 2-4 rows as one ``qp._project_stack``, its Grams A_S
    A_S^T, right-hand sides -(A_S u_des + b_S) and lstsq solutions mu. Each
    candidate u_des + A_S^T mu, its slacks A c + b and its squared distance
    from u_des; the first subset of each size as a stack of one; and each
    subset of 2 or more rows in reverse, as a working set of the active-set
    loop may order it, through ``qp._project_equalities``."""
    singles = [qp._project_equalities(u_des, A, b, (i,)) for i in range(len(b))]
    for subsets, index in qp._subsets(len(b)):
        if index.shape[1] == 1:
            cands = np.array(singles)
        else:
            A_S = A[index]
            grams = np.matmul(A_S, A_S.transpose(0, 2, 1))
            rhs = -(np.matmul(A_S, u_des) + b[index])
            mu = qp._lstsq(grams, rhs)
            cands = qp._project_stack(u_des, A, b, index)
        slacks = np.matmul(A, cands[..., None])[..., 0] + b
        steps = cands - u_des
        squares = np.vecdot(steps, steps)
        for i, rows in enumerate(subsets):
            where = (context, rows)
            gram, r, solution, alone = _alone(u_des, A, b, rows)
            if len(rows) > 1:
                assert_same_bits(grams[i], gram, where)
                assert_same_bits(rhs[i], r, where)
                assert_same_bits(mu[i], solution, where)
                turned = rows[::-1]  # such as (3, 1)
                got = qp._project_equalities(u_des, A, b, turned)
                assert_same_bits(got, _alone(u_des, A, b, turned)[3], (context, turned))
            assert_same_bits(cands[i], alone, where)
            if i == 0:
                one = qp._project_stack(u_des, A, b, index[:1])
                assert_same_bits(one, alone[None], where)
            assert_same_bits(slacks[i], A.dot(cands[i]) + b, where)
            assert_same_bits(squares[i], steps[i].dot(steps[i]), where)


def test_stacked_subset_projections_are_the_per_subset_ones():
    """The feasible-start search stacks its candidates size by size; each
    item has the bits of its subset solved alone, on the QP test families
    (3 to 8 rows) and on wide draws (2 to 8 rows, zeros of either sign,
    infs, nans and overflowing Grams)."""
    rng = np.random.default_rng(32)
    with np.errstate(all="ignore"):
        for family in FAMILIES:
            for _ in range(20):
                m = int(rng.integers(3, 9))  # near_singular_triple needs 3
                u_des, A, b = family(rng, m)
                _assert_stacks_are_per_subset(u_des, A, b, family.__name__)
        for _ in range(150):
            m = int(rng.integers(2, 9))
            u_des, A, b = _wide(rng, 4), _wide(rng, (m, 4)), _wide(rng, m)
            _assert_stacks_are_per_subset(u_des, A, b, "wide")
