"""Minimal-deviation safety QP.

    minimize ||u - u_des||^2
    subject to a_i . u + b_i >= 0   (one affine row per obstacle)

Solved exactly with a dense primal active-set iteration; u has 4 components,
so every subproblem is tiny closed-form linear algebra. Multipliers follow
the convention u* - u_des = sum_i lambda_i a_i^T (lambda_i >= 0), which is the
KKT stationarity of the objective 0.5 ||u - u_des||^2.

If u_des satisfies every row (slack >= -FEAS_TOL), it is the optimum and
``solve`` returns it at once, with no active rows, no multipliers and the
KKT residual max(0, -min slack): what the active-set loop returns on its
first iteration from that start, without building it. Those slacks,
A u_des + b, are computed once; the feasible start and the infeasibility
report read them.

If u_des is infeasible, the loop starts from c, the projection of u_des
onto the row w most violated at u_des (slack over ||a_w||), when c passes
the feasibility test. In exact arithmetic c is then the optimum: every
feasible point lies in w's halfspace {a_w . u + b_w >= 0}, which u_des
does not, and c is that halfspace's closest point to u_des. The test
admits slacks down to -FEAS_TOL, so the subset search below could accept a
point that violates w within that band and is closer to u_des than c, by
at most FEAS_TOL / ||a_w|| plus rounding; the start is c, the exact
optimum, instead. If c fails the test, the start is the closest feasible
candidate among the projections of u_des onto the affine sets
{A_S u = -b_S}, one per subset S of at most 4 rows, each the solution of
the Gram system. The search builds every candidate into one array in
``itertools.combinations`` order, size by size: the single rows in closed
form (below), c reused, then one ``_project_stack`` per size of two or
more rows, whose Grams go to LAPACK in one call of the gufunc ``lstsq``
itself calls. The slacks and distances of all candidates are broadcast
products, each with the bits of its own candidate's, and one rule picks
the winner: the first feasible candidate of strictly smallest distance,
the one a sequential strict ``dist < best_dist`` scan picks. Every other
projection, of two or more rows or of one outside the closed form's range,
is ``_project_stack``: an item of a size's stack, or a stack of one.
If the problem is feasible, the optimum's linearly independent active
subset yields exactly the optimum under this projection, so the winner
both certifies feasibility and starts the active-set loop at (or next to)
the solution.
If no candidate is feasible the problem is infeasible and the violated
labels are reported, most violated first and tied rows in row order.

One ``solve`` projects each row tuple at most once. Every projection, of
c, a search candidate or a working set of the loop, is kept under its row
tuple, a stacked candidate as its row of the stack, and the loop reuses one
only for the same rows in the same order: the same ``lstsq`` input, so the
same bits. Most often the start is c, and its row is the loop's first
working set.

Single rows in closed form. The projection onto one row a is u_des + a mu
with the 1x1 Gram system g mu = r, g = a . a and r = -(a . u_des + b), and
``_project_equalities`` computes it as u_des + (a (r * (1.0 / g)) + 0.0)
without calling ``lstsq``. Those are the lstsq path's own bits. numpy takes
the 1-row products A_S A_S^T and A_S u_des to the 1-D dots of the
(contiguous) row. LAPACK's dgelsd leaves the system unscaled when g and |r|
lie in [SAFE_MIN, 1 / SAFE_MIN] (SAFE_MIN being its SMLNUM, the smallest
normal double over eps), and then rescales r by the reciprocal 1.0 / g
(dlascl), a signed zero included (``_row_multiplier``). The one-term sum
A_S^T mu starts from +0.0, so a zero product a_i mu adds as +0.0, hence the
+ 0.0. Outside that range dgelsd scales first, which moves the last bits,
so ``lstsq`` is called there. A 1-row working set's multiplier, the
least-squares lambda of a lambda = u - u_des, is taken as
(a . (u - u_des)) / (a . a). Its last bits can differ from the 4x1
``lstsq``, but only the returned multipliers and KKT residual read them;
u* and the active set do not.

The blocking scan. The loop holds u, its target u_eq and the step d =
u_eq - u as lists of four Python floats, and makes each update (d, u +
alpha d, u - u_des) elementwise in the operation order of its array form:
numpy's elementwise operations round each IEEE operation once, as Python
does, so every float has the array's bits. Only the dot products go to
numpy, on arrays built from those floats. Each step of the loop needs,
for every row j outside the working set, the rate a_j . d and the slack
a_j . u + b_j. Each comes from one ``np.vecdot(A, d)`` (``_row_dots``),
which takes every row to its 1-D dot, so entry j has the bits of a_j @ d,
which the scan reads. A plain A @ d does not: BLAS may sum a
matrix-vector product in another order. A single row takes its 1-D dot
directly, the same bits for less call overhead; every 1-D dot is
``ndarray.dot``, the ddot ``@`` calls, for less still. A d of four zeros
skips its norm, as d . d is +0.0 in any summation order. Only the
selection, the first strictly smaller step and its tie rule, runs in
Python, over the rows whose rate is not >= -1e-14 (nan included), in row
order as before.

The certificate. Every answer that leaves u_des is checked against its own
KKT residual (stationarity, feasibility, complementarity): above
KKT_RTOL (1 + ||u_des||) (1 + max_i ||a_i||) ``solve`` raises
``UncertifiedSolutionError`` rather than return it. A returned u_des has a
residual of at most FEAS_TOL, below any such bound. With one active row a,
the loop's last answer on most intervening steps, the residual is built
from the loop's floats: the multiplier max(lambda, 0) as np.maximum gives
it (+0.0 for -0.0, nan kept), the gap (u - u_des) - a lambda elementwise,
whose one-term product has the bits of W^T lambda up to the sign of a
zero, which the gap's square drops, and the row's slack a . u + b as a
1-D dot. The gap's squared norm is a 1-D dot and the feasibility the min
of A u + b, both as in the array form. With two or more active rows, the
gap and the slacks of the active rows stay array expressions, as BLAS
sums their products over rows.

Validation. ``QpProblem(u_des, A, b, labels)``, the public constructor,
copies u_des, A and b with the ``records`` array checks and then checks
each row in order, its label (``records.check_label``), ||a|| >
GRADIENT_MIN and ``_check_finite``, each a ``ConfigError``; a row that
vanished in a run is the survey's ``DegenerateGradientError`` instead.
``checked_problem`` takes arrays already checked where they were made (the
rows by ``cone.barrier_row`` or ``cone.barrier_stack``, u_des by the
tracking controller) and holds them without a copy or a second check
(``records.prebuilt``), so ``solve`` checks nothing on entry.
A problem holds u_des, the rows A (m, 4), the offsets b (m,) and the
labels, read-only; its ``constraints`` are records rebuilt from those
arrays when something reads them (the benchmark's tracer), never by a step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGradientError,
    InfeasibleQpError,
    IterationLimitError,
    UncertifiedSolutionError,
)
from .records import check_label, checked_array, checked_type, prebuilt

_gufunc_lstsq = np.linalg._umath_linalg.lstsq  # the solver of np.linalg.lstsq

GRADIENT_MIN = 1e-10  # below this, a safety row contradicts the barrier theory
FEAS_TOL = 1e-10  # feasibility slack used by the active-set bookkeeping
MAX_ITER = 100
MAX_SUBSET = 4  # rows per feasible-start subset; u has 4 components
EPS = float(np.finfo(float).eps)
# dgelsd's SMLNUM: a Gram entry or right-hand side below it (or above its
# reciprocal) is rescaled before the solve.
SAFE_MIN = float(np.finfo(float).tiny / EPS)
# Residual allowed per unit of (1 + ||u_des||)(1 + max ||a_i||). The recorded
# runs' largest residual is 7.1e-15 on scales of at least 1.
KKT_RTOL = 1e-9


# The rows (A, b, labels) of a problem with none.
_NO_ROWS = (np.empty((0, 4)), np.empty(0), ())
for _array in _NO_ROWS[:2]:
    _array.setflags(write=False)


def _check_gradient(norm: float, label: str) -> None:
    """Refuse a row whose ||a|| is at most GRADIENT_MIN."""
    if norm <= GRADIENT_MIN:
        raise DegenerateGradientError(f"obstacle {label!r}: barrier gradient vanished")


def _check_finite(row: list[float], offset: float) -> None:
    """Refuse a row with a non-finite entry or offset."""
    if not (math.isfinite(offset) and all(map(math.isfinite, row))):
        raise ConfigError("constraint row must be finite")


@dataclass(frozen=True, eq=False)
class AffineSafetyConstraint:
    """One row a.u + b >= 0 of the safety QP, as QpProblem.constraints gives it."""

    gradient_row: np.ndarray
    offset: float
    label: str = ""


@dataclass(frozen=True, init=False, eq=False)
class QpProblem:
    """The QP of u_des and its rows a_i . u + b_i >= 0, held as arrays.

    ``QpProblem(u_des, A, b, labels)`` copies and checks u_des (4 numbers),
    the rows A (m, 4), the offsets b (m,) and one label per row, with no
    rows by default; ``checked_problem`` takes those arrays as they are.
    ``constraints`` gives the rows back as records, built when first read.

    Raises:
        ConfigError: an argument is not numbers of its shape or not finite,
            labels is not a tuple or list of one label per row, each one
            that ``records.check_label`` accepts, or a row has ||a|| <=
            GRADIENT_MIN.
    """

    u_des: np.ndarray  # (4,), read-only
    A: np.ndarray  # (m, 4), read-only
    b: np.ndarray  # (m,), read-only
    labels: tuple[str, ...]

    def __init__(self, u_des, A=_NO_ROWS[0], b=_NO_ROWS[1], labels=()):
        u_des = checked_array(u_des, 4, "u_des")
        A = checked_array(A, (-1, 4), "constraint rows", finite=False)
        b = checked_array(b, len(A), "constraint offsets", finite=False)
        labels = tuple(checked_type(labels, (tuple, list), "QP labels"))
        if len(labels) != len(A):
            raise ConfigError(f"{len(labels)} QP labels for {len(A)} rows, not one each")
        for row, offset, label in zip(A.tolist(), b.tolist(), labels):
            check_label(label)
            if math.hypot(*row) <= GRADIENT_MIN:  # hypot: a . a may overflow
                raise ConfigError(f"QP row {label!r}: ||a|| <= {GRADIENT_MIN:g}")
            _check_finite(row, offset)
        for name, value in zip(("u_des", "A", "b", "labels"), (u_des, A, b, labels)):
            object.__setattr__(self, name, value)

    @cached_property
    def constraints(self) -> tuple[AffineSafetyConstraint, ...]:
        """The rows as records, each a read-only row of A."""
        rows = zip(self.A, self.b.tolist(), self.labels)
        return tuple(AffineSafetyConstraint(a, b, label) for a, b, label in rows)


_problem = prebuilt(QpProblem)


def checked_problem(
    u_des: np.ndarray, A: np.ndarray, b: np.ndarray, labels: tuple[str, ...]
) -> QpProblem:
    """The problem of a read-only finite 4-vector u_des, read-only rows A
    (m, 4), each row contiguous, and offsets b (m,), all finite with
    ||a_i|| > GRADIENT_MIN, and one label per row, held as given; nothing is
    checked."""
    return _problem(u_des, A, b, labels)


@dataclass(frozen=True, eq=False)
class QpSolution:
    u_star: np.ndarray
    active_set: tuple[str, ...]
    multipliers: tuple[float, ...]
    kkt_residual: float


_solution = prebuilt(QpSolution)


def _project_equalities(
    u_des: np.ndarray, A: np.ndarray, b: np.ndarray, rows: tuple[int, ...]
) -> np.ndarray:
    """``_project_stack`` onto S = rows: one row in closed form where LAPACK
    leaves its 1x1 system unscaled (module docstring), else a stack of one."""
    if len(rows) == 1:
        # contiguous, as the stack's copy A[index]: a strided row's dot may
        # sum in another order
        a = np.ascontiguousarray(A[rows[0]])
        mu = _row_multiplier(float(a.dot(a)), -(float(a.dot(u_des)) + float(b[rows[0]])))
        if mu is not None:
            # + 0.0: the one-term sum A_S^T mu starts from +0.0, so a zero
            # product adds as +0.0 (module docstring)
            return u_des + (a * mu + 0.0)
    return _project_stack(u_des, A, b, np.array([rows], dtype=np.intp))[0]


def _row_multiplier(g: float, r: float) -> float | None:
    """lstsq([[g]], [r], rcond=None)[0][0] in closed form, r * (1 / g),
    where LAPACK leaves the system unscaled (module docstring); None
    elsewhere, where lstsq itself is called."""
    if SAFE_MIN <= g <= 1.0 / SAFE_MIN and (
        r == 0.0 or SAFE_MIN <= abs(r) <= 1.0 / SAFE_MIN
    ):
        return r * (1.0 / g)
    return None


def _row_dots(A: np.ndarray, x: np.ndarray) -> list[float]:
    """[A[j] @ x for every row j], each with the 1-D dot's bits: one
    ``np.vecdot`` (a plain A @ x may sum in another order), or for a single
    row the dot itself, which costs less than the vecdot call."""
    if len(A) == 1:
        return [float(A[0].dot(x))]
    return np.vecdot(A, x).tolist()


def _min_slack(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """min (A x + b) over m >= 1 rows; a single row takes the 1-D dot, which
    numpy takes the 1-row product to, so the same bits without the matmul."""
    if len(b) == 1:
        return float(A[0].dot(x)) + float(b[0])
    return float((A.dot(x) + b).min())


def _multipliers(W: np.ndarray, step: np.ndarray) -> list[float]:
    """Least-squares lambda of W^T lambda = step; for one row a, in closed
    form (a . step) / (a . a)."""
    if W.shape[0] == 1:
        a = W[0]
        return [float(a.dot(step)) / float(a.dot(a))]
    return _lstsq(W.T, step).tolist()


def _svd_failed(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


@np.errstate(
    call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"
)
def _lstsq(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """lstsq's solution of M x = y for one system or a stack, M (..., r, c)
    and y (..., r), by the gufunc ``np.linalg.lstsq`` calls, with its rcond
    (eps max(r, c)) and its LinAlgError on a result LAPACK marks invalid. A
    system that an overflowed product gave an inf or nan, which LAPACK
    refuses with a stderr line, is solved as zeros and answered all nan."""
    bad = not (np.isfinite(M).all() and np.isfinite(y).all())
    if bad:
        finite = np.isfinite(M).all(axis=(-2, -1)) & np.isfinite(y).all(axis=-1)
        M = np.where(finite[..., None, None], M, 0.0)
        y = np.where(finite[..., None], y, 0.0)
    x = _gufunc_lstsq(M, y[..., None], EPS * max(M.shape[-2:]), signature="ddd->ddid")[0]
    if bad:
        x[~finite] = np.nan
    return x[..., 0]


@lru_cache(maxsize=None)
def _subsets(m: int) -> tuple[tuple[tuple[tuple[int, ...], ...], np.ndarray], ...]:
    """The subsets of at most MAX_SUBSET of m rows in search order, per
    size: its row tuples in combinations order, and as an index array."""
    sizes = [tuple(itertools.combinations(range(m), k)) for k in range(1, MAX_SUBSET + 1)]
    return tuple((rows, np.array(rows, dtype=np.intp)) for rows in sizes if rows)


def _project_stack(
    u_des: np.ndarray, A: np.ndarray, b: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """The closest point to u_des on {u : A_S u = -b_S} (least-squares if
    inconsistent), u_des + A_S^T mu with A_S A_S^T mu = -(A_S u_des + b_S),
    for each row tuple S of an (n, k) index array, k >= 1. Each product is
    the subset's matmul broadcast over the stack, so every row has the bits
    of its subset projected alone, and the Grams are one ``_lstsq``. Not
    ndarray.dot: with one row, A_S^T mu by dot is a plain product, which
    keeps a -0.0 that matmul's sum from +0.0 turns into +0.0."""
    A_S = A[index]  # (n, k, 4), each subset contiguous
    A_T = A_S.transpose(0, 2, 1)
    mu = _lstsq(np.matmul(A_S, A_T), -(np.matmul(A_S, u_des) + b[index]))
    return u_des + np.matmul(A_T, mu[..., None])[..., 0]


def _feasible_start(
    u_des: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    labels: tuple[str, ...],
    resid: np.ndarray,
    projections: dict[tuple[int, ...], np.ndarray],
) -> np.ndarray:
    """A feasible start for the active-set loop (module docstring).

    c, the projection of u_des onto the row w most violated at u_des, if
    it passes the feasibility test: every feasible point lies in w's
    halfspace, whose closest point to u_des is c. Otherwise the closest
    feasible projection of u_des onto a subset of at most MAX_SUBSET rows.
    resid holds the row slacks at u_des, A u_des + b. Every projection
    made is stored in ``projections`` under its row tuple, where the
    active-set loop finds it.
    """
    w = int(np.argmin(resid / np.sqrt((A * A).sum(axis=1)))) if len(b) > 1 else 0
    c = projections[(w,)] = _project_equalities(u_des, A, b, (w,))
    if _min_slack(A, b, c) >= -FEAS_TOL:
        return c
    (singles, _), *sizes = _subsets(len(b))
    # the single rows' closed forms (c among them), then one stack per size
    cands = np.concatenate(
        [[c if rows == (w,) else _project_equalities(u_des, A, b, rows) for rows in singles]]
        + [_project_stack(u_des, A, b, index) for _, index in sizes]
    )
    projections.update(zip(itertools.chain(singles, *(s for s, _ in sizes)), cands))
    slacks = np.matmul(A, cands[..., None])[..., 0] + b  # each A.dot(cand) + b
    steps = cands - u_des
    dists = np.sqrt(np.vecdot(steps, steps))
    # the first feasible candidate of strictly smallest finite distance, as a
    # strict dist < best_dist from inf; a nan entry would make a slack nan
    dists = np.where(slacks.min(axis=1) >= -FEAS_TOL, dists, np.inf)
    best = int(np.argmin(dists))
    if not dists[best] < math.inf:
        order = np.argsort(resid, kind="stable")
        worst = [labels[i] for i in order if resid[i] < 0.0]
        raise InfeasibleQpError(
            "safety QP infeasible; blocking constraints: " + ", ".join(worst),
            blocking_labels=worst,
        )
    return cands[best]


@np.errstate(all="ignore")
def solve(problem: QpProblem) -> QpSolution:
    """Exact minimizer via primal active-set iteration on 4 variables.

    When u_des already satisfies every row (and with no rows) the problem's
    own read-only u_des is returned, with an empty active set and the
    residual max(0, -min slack); only otherwise are the feasible start and
    the loop run, and their answer certified.

    Blocking-constraint ties are broken toward the fastest-violating row and
    then by label order, keeping the iteration deterministic. numpy's
    warnings are off, as in a run: an overflow is the inf or nan it makes.

    Raises:
        InfeasibleQpError: empty feasible set (with blocking labels).
        IterationLimitError: no convergence within 100 iterations.
        UncertifiedSolutionError: the answer's KKT residual exceeds
            KKT_RTOL (1 + ||u_des||) (1 + max_i ||a_i||).
    """
    u_des, A, b, labels = problem.u_des, problem.A, problem.b, problem.labels
    m = len(b)
    if m > 1:
        resid = A.dot(u_des) + b  # row slacks at u_des
        min_slack = float(resid.min())
    else:  # one row, most steps' problem, takes no matmul
        min_slack = _min_slack(A, b, u_des) if m else math.inf
    if min_slack >= -FEAS_TOL:
        # u_des is the unconstrained optimum: the loop would stop at once
        return _solution(u_des, (), (), max(0.0, -min_slack))
    if m == 1:
        resid = np.array([min_slack])  # the bits of A @ u_des + b

    projections: dict[tuple[int, ...], np.ndarray] = {}
    u = _feasible_start(u_des, A, b, labels, resid, projections)

    # u, u_eq, d and u - u_des as floats; u and d also as arrays for the
    # dots (module docstring, the blocking scan)
    ud, uf, offsets = u_des.tolist(), u.tolist(), b.tolist()
    working: list[int] = []
    lam_w: list[float] = []
    for _ in range(MAX_ITER):
        if working:
            rows = tuple(working)
            u_eq = projections.get(rows)
            if u_eq is None:
                u_eq = projections[rows] = _project_equalities(u_des, A, b, rows)
            goal = u_eq.tolist()
        else:
            goal = ud
        df = [g - x for g, x in zip(goal, uf)]  # d = u_eq - u
        if any(df):  # nan is true
            d = np.array(df)
            arrived = math.sqrt(float(d.dot(d))) <= 1e-12
        else:
            arrived = True  # d @ d is +0.0 in any summation order
        if arrived:
            # At the working-set minimizer: check signs of the multipliers.
            sf = [x - y for x, y in zip(uf, ud)]  # u - u_des
            if not working:
                break
            j = working[0]  # one row is taken as a view, not a copy
            W = A[j : j + 1] if len(working) == 1 else A[working]
            lam_w = _multipliers(W, np.array(sf))
            if all(lam >= -1e-12 for lam in lam_w):  # nan fails, as in min()
                break
            working.pop(int(np.argmin(lam_w)))
            continue
        # Step toward u_eq, blocked by rows outside the working set that
        # d moves toward their bound (a rate that is not >= -1e-14, nan too).
        rates = _row_dots(A, d)
        closing = [
            j for j, rate in enumerate(rates) if not rate >= -1e-14 and j not in working
        ]
        alpha = 1.0
        block = -1
        block_rate = 0.0
        if closing:
            slacks = [dot + offset for dot, offset in zip(_row_dots(A, u), offsets)]
        for j in closing:
            rate = rates[j]
            alpha_j = max(slacks[j], 0.0) / (-rate)
            if alpha_j < alpha - 1e-14:
                alpha, block, block_rate = alpha_j, j, rate
            elif abs(alpha_j - alpha) <= 1e-14 and block >= 0:
                # Tie: prefer the faster-violating row, then label order.
                if rate < block_rate - 1e-14 or (
                    abs(rate - block_rate) <= 1e-14 and labels[j] < labels[block]
                ):
                    block, block_rate = j, rate
        uf = [x + alpha * y for x, y in zip(uf, df)]
        u = np.array(uf)
        if block >= 0 and alpha < 1.0:
            working.append(block)
    else:
        raise IterationLimitError("active-set iteration exceeded 100 iterations")

    # The certificate, from the loop's floats with at most one active row
    act_labels = tuple(labels[i] for i in working)
    if len(working) > 1:
        lam = np.maximum(lam_w, 0.0)
        W = A[working]
        gap = np.array(sf) - W.T.dot(lam)
        comp = float(np.abs(lam * (W.dot(u) + b[working])).max())
        multipliers = tuple(lam.tolist())
    elif working:
        (j,) = working
        lam = 0.0 if lam_w[0] <= 0.0 else lam_w[0]  # np.maximum's bits, +0.0 and nan
        gap = np.array([s - x * lam for s, x in zip(sf, A[j].tolist())])
        comp = abs(lam * (float(A[j].dot(u)) + offsets[j]))
        multipliers = (float(lam),)
    else:
        gap = np.array(sf)
        comp = 0.0
        multipliers = ()
    stationarity = math.sqrt(float(gap.dot(gap)))
    feas = max(0.0, -_min_slack(A, b, u))
    kkt = max(stationarity, feas, comp)
    if not kkt <= KKT_RTOL:  # the bound is at least KKT_RTOL; nan fails too
        u_norm = math.sqrt(float(u_des.dot(u_des)))
        a_max = math.sqrt(float((A * A).sum(axis=1).max()))
        bound = KKT_RTOL * (1.0 + u_norm) * (1.0 + a_max)
        if not kkt <= bound:
            raise UncertifiedSolutionError(
                f"safety QP answer uncertified: KKT residual {kkt:.3g} > {bound:.3g}"
                f" (active: {', '.join(act_labels) or 'none'})",
                labels=act_labels,
                residual=kkt,
                bound=bound,
            )
    return _solution(u, act_labels, multipliers, kkt)
