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
first iteration from that start, without building it.

If u_des is infeasible, the loop starts from the closest feasible candidate
among the projections of u_des onto the affine sets {A_S u = -b_S}, one per
subset S of at most 4 rows, each computed by ``lstsq`` on the Gram system and
visited in ``itertools.combinations`` order with a strict ``dist <
best_dist`` rule. If the problem is feasible, the optimum's linearly
independent active subset yields exactly the optimum under this projection,
so the winner both certifies feasibility and starts the active-set loop at
(or next to) the solution. If no candidate is feasible the problem is
infeasible and the most-violated labels are reported.

With three or more rows the search is capped. Its reference is c, the
projection onto the row w most violated at u_des (slack over ||a_w||),
computed as the search computes it; in exact arithmetic only such a row's
projection can be feasible. If c fails the feasibility test, every subset
is solved. Otherwise let delta = ||c - u_des||, c - u_des = lam a_w + r
(lam > 0, r the rounding of c off the line of a_w) and s = A c + b. A
candidate u that can still win is feasible, a_w . u + b_w >= -FEAS_TOL,
and no farther from u_des than c, up to the rounding eps_d of both
distances, so

    ||u - c||^2 = ||u - u_des||^2 - 2 (u - u_des) . (c - u_des) + delta^2
               <= (delta + eps_d)^2 - delta^2 + 2 lam (s_w - a_w . u - b_w)
                  + 2 ||r|| (||r|| + delta + eps_d)
               <= 2 delta eps_d + eps_d^2 + 2 lam (s_w + FEAS_TOL + rounding)
                  + 2 ||r|| (||r|| + delta + eps_d) = rho^2,

a cap of radius rho, about sqrt(2 lam FEAS_TOL), around c. The lstsq
candidate u_S = u_des + A_S^T mu of a subset S leaves residuals
e_S = A_S u_S + b_S = G_S mu - r_S, with r_S = -(A_S u_des + b_S), that
A_S^T all but annihilates: lstsq leaves G_S mu - r_S only along the
directions it drops, on which A_S^T has norm at most sqrt(cut-off), so

    ||A_S^T e_S|| <= sqrt(eta) ||r_S|| + ||A_S||^2 kappa + rounding,

eta = k eps s_1 (the cut-off) + e_G, e_G = 10 k eps s_1 bounding the
Gram's rounding and lstsq's backward error, and kappa that backward error
acting on mu, to first order: a winner has ||A_S^T mu|| <= delta + eps_d
and every direction lstsq keeps has a singular value above the cut-off,
so ||mu|| <= (delta + eps_d) / sqrt(cut-off). If u_S lies in the cap, then
A_S^T s_S = A_S^T e_S + A_S^T A_S (c - u_S), so

    ||sum_{j in S} s_j a_j|| <= ||A_S||^2 rho + ||A_S^T e_S||.

A subset whose left side exceeds the bound on the right (with ||A_S||^2
<= sum_{j in S} ||a_j||^2) cannot win and is not solved; the left side
and the bound of every subset come from one matrix product with the
subset membership table. The survivors are solved in the search order
with the same strict rule: the winner is a survivor, and no survivor
before it is as close (or it would have won), so the capped search
returns the very array of the exhaustive one, and the start, and every
trace byte after it, do not depend on the cap. kappa is first order:
where lstsq keeps a direction within its own backward error of singular,
mu is undetermined along it, and such a candidate lands in the cap only
by chance (the tests compare the recorded field runs' starts with the
exhaustive search). With one or two rows (at most three subsets) every
subset is solved.

One ``solve`` projects each row tuple at most once. Every projection, of
the reference, a survivor or a working set of the loop, is kept under its
row tuple, and the loop reuses one only for the same rows in the same
order: the same ``lstsq`` input, so the same array. Most often the winner
is the single row of c, and that row is the loop's first working set.

Single rows in closed form. The Gram system of a 1-row subset is 1x1,
g mu = rhs, and ``_gram_solve`` returns mu = rhs * (1.0 / g) without calling
``lstsq``. Those are lstsq's own bits: LAPACK's dgelsd leaves the system
unscaled when g and |rhs| lie in [SAFE_MIN, 1 / SAFE_MIN] (SAFE_MIN being
its SMLNUM, the smallest normal double over eps), and then rescales rhs by
the reciprocal 1.0 / g (dlascl), a signed zero included. Outside that range
dgelsd scales first, which moves the last bits, so ``lstsq`` is called
there. A 1-row working set's multiplier, the least-squares lambda of
a lambda = u - u_des, is taken as (a . (u - u_des)) / (a . a). Its last bits
can differ from the 4x1 ``lstsq``, but only the returned multipliers and
KKT residual read them; u* and the active set do not.

The certificate. Every answer that leaves u_des is checked against its own
KKT residual (stationarity, feasibility, complementarity): above
KKT_RTOL (1 + ||u_des||) (1 + max_i ||a_i||) ``solve`` raises
``UncertifiedSolutionError`` rather than return it. A returned u_des has a
residual of at most FEAS_TOL, below any such bound.

Validation. The public constructors of ``AffineSafetyConstraint`` and
``QpProblem`` copy and check what they are given with the ``records``
checks; ``QpProblem`` also rejects rows with ||a|| <= GRADIENT_MIN.
``checked_row`` and ``checked_problem`` take values already checked where
they were made (a barrier row by ``cone.barrier_row``, u_des by the tracking
controller) and build the same records (``records.prebuilt``) without a
copy or a second check, so ``solve`` checks nothing on entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateGradientError,
    InfeasibleQpError,
    IterationLimitError,
    UncertifiedSolutionError,
)
from .records import checked_array, checked_real, checked_records, prebuilt

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


@dataclass(frozen=True)
class AffineSafetyConstraint:
    """One row a.u + b >= 0 of the safety QP."""

    gradient_row: np.ndarray
    offset: float
    label: str = ""

    def __post_init__(self):
        a = checked_array(self.gradient_row, 4, "constraint row")
        object.__setattr__(self, "gradient_row", a)
        object.__setattr__(self, "offset", checked_real(self.offset, "constraint row"))


@dataclass(frozen=True)
class QpProblem:
    """The QP of u_des and its rows.

    Raises:
        ConfigError: u_des is not 4 finite numbers, or a row is not an
            AffineSafetyConstraint.
        DegenerateGradientError: a row with ||a|| <= GRADIENT_MIN.
    """

    u_des: np.ndarray
    constraints: tuple[AffineSafetyConstraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "u_des", checked_array(self.u_des, 4, "u_des"))
        constraints = checked_records(
            self.constraints, AffineSafetyConstraint, "QP rows"
        )
        object.__setattr__(self, "constraints", constraints)
        for c in constraints:
            if float(c.gradient_row @ c.gradient_row) <= GRADIENT_MIN**2:
                raise DegenerateGradientError(
                    f"constraint {c.label!r} has ||a|| <= {GRADIENT_MIN}"
                )


def checked_row(
    gradient_row: np.ndarray, offset: float, label: str
) -> AffineSafetyConstraint:
    """The row a.u + b >= 0 of a fresh finite 4-vector a, which it takes
    (read-only, no copy), and a finite float offset b; nothing is checked."""
    gradient_row.setflags(write=False)
    return prebuilt(
        AffineSafetyConstraint, gradient_row=gradient_row, offset=offset, label=label
    )


def checked_problem(
    u_des: np.ndarray, constraints: tuple[AffineSafetyConstraint, ...]
) -> QpProblem:
    """The problem of a read-only finite 4-vector u_des and rows with finite
    entries and ||a|| > GRADIENT_MIN, held as given; nothing is checked."""
    return prebuilt(QpProblem, u_des=u_des, constraints=constraints)


@dataclass(frozen=True)
class QpSolution:
    u_star: np.ndarray
    active_set: tuple[str, ...]
    multipliers: tuple[float, ...]
    kkt_residual: float


def _stack_rows(
    rows: tuple[AffineSafetyConstraint, ...],
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The rows a.u + b >= 0 as (A, b, labels)."""
    A = np.array([c.gradient_row for c in rows]).reshape(len(rows), 4)
    b = np.array([c.offset for c in rows], dtype=float)
    return A, b, [c.label for c in rows]


def _project_equalities(
    u_des: np.ndarray, A: np.ndarray, b: np.ndarray, rows: tuple[int, ...]
) -> np.ndarray:
    """Closest point to u_des on {u : A_S u = -b_S}, S = rows (least-squares
    if inconsistent)."""
    # u = u_des + A_S^T mu with A_S A_S^T mu = -(A_S u_des + b_S)
    A_S, b_S = A[list(rows)], b[list(rows)]
    gram = A_S @ A_S.T
    rhs = -(A_S @ u_des + b_S)
    return u_des + A_S.T @ _gram_solve(gram, rhs)


def _gram_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lstsq(gram, rhs, rcond=None)[0], in closed form for a 1x1 system in
    LAPACK's no-rescale range (module docstring)."""
    if gram.shape[0] == 1:
        g, r = float(gram[0, 0]), float(rhs[0])
        if SAFE_MIN <= g <= 1.0 / SAFE_MIN and (
            r == 0.0 or SAFE_MIN <= abs(r) <= 1.0 / SAFE_MIN
        ):
            return np.array([r * (1.0 / g)])
    return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def _multipliers(W: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Least-squares lambda of W^T lambda = step; for one row a, in closed
    form (a . step) / (a . a)."""
    if W.shape[0] == 1:
        a = W[0]
        return np.array([float(a @ step) / float(a @ a)])
    return np.linalg.lstsq(W.T, step, rcond=None)[0]


class _Search(NamedTuple):
    """The subsets of at most MAX_SUBSET of m rows, in search order."""

    keys: tuple[tuple[int, ...], ...]  # by size, then combinations order
    member: np.ndarray  # (m, N) 1.0 where row i is in subset n, else 0.0


@lru_cache(maxsize=None)
def _search(m: int) -> _Search:
    """The feasible-start search over m rows, built once per m."""
    sizes = range(1, min(MAX_SUBSET, m) + 1)
    keys = tuple(itertools.chain(*(itertools.combinations(range(m), k) for k in sizes)))
    member = np.zeros((m, len(keys)))
    for n, key in enumerate(keys):
        member[list(key), n] = 1.0
    member.setflags(write=False)
    return _Search(keys, member)


def _capped(
    u_des: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    projections: dict[tuple[int, ...], np.ndarray],
) -> range | list[int]:
    """Positions, in search order, of the subsets the cap cannot exclude.

    The reference c is the projection onto the row w most violated at
    u_des, stored in ``projections``. If c is infeasible, every position.
    Otherwise the subsets S with ||A_S^T s_S|| <= ||A_S||^2 (rho + kappa)
    + sqrt(eta) ||r_S|| + rounding (module docstring), where s are the
    slacks at c, r the negated slacks at u_des, ||A_S||^2 <= sigma_S =
    sum_{j in S} ||a_j||^2 and eta = 11 k eps sigma_S: the cut-off k eps
    s_1 plus e_G = 10 k eps s_1, with k = MAX_SUBSET for every size. Every
    per-subset sum is one product of an (8, m) table with ``member``.
    """
    m = A.shape[0]
    search = _search(m)
    resid = A @ u_des + b  # row slacks at u_des
    norm2 = (A * A).sum(axis=1)
    w = int(np.argmin(resid / np.sqrt(norm2)))
    c = projections[(w,)] = _project_equalities(u_des, A, b, (w,))
    s = A @ c + b
    if not s.min() >= -FEAS_TOL:
        return range(len(search.keys))
    step = c - u_des
    delta = math.sqrt(float(step @ step))
    u_norm = math.sqrt(float(u_des @ u_des))
    a_w = math.sqrt(float(norm2[w]))
    eps_d = 16.0 * EPS * delta  # the rounding of both distances
    reach = delta + eps_d  # no winner is farther from u_des
    lam = (1.0 + 16.0 * EPS) * delta / a_w  # c - u_des = lam a_w + r
    r_off = 3.0 * EPS * (u_norm + delta)  # ||r||, the rounding of c
    e_slack = 12.0 * EPS * (a_w * (u_norm + 2.0 * delta) + abs(float(b[w])))
    rho2 = (
        2.0 * reach * eps_d
        + eps_d * eps_d
        + 2.0 * lam * (float(s[w]) + FEAS_TOL + e_slack)
        + 2.0 * r_off * (r_off + reach)
    )
    rho = math.sqrt(max(rho2, 0.0))
    k = MAX_SUBSET
    # per subset S: A_S^T s_S, then ||A_S||_F^2, ||r_S||^2, ||b_S||^2, ||s_S||^2
    table = np.vstack([(A * s[:, None]).T, norm2, resid * resid, b * b, s * s])
    sums = table @ search.member
    pull = np.sqrt(np.sum(sums[:4] * sums[:4], axis=0))
    root, r_norm, b_norm, s_norm = np.sqrt(sums[4:])
    radius = (
        rho
        + 12.0 * k * math.sqrt(EPS) * reach  # kappa: lstsq's error through mu
        + 22.0 * EPS * (u_norm + reach)  # rounding of u_S and of both slacks
    )
    bound = root * (
        root * radius
        + math.sqrt(11.0 * k * EPS) * r_norm  # sqrt(eta) ||r_S||
        + 22.0 * EPS * b_norm
        + m * EPS * s_norm  # the product itself
    )
    return np.flatnonzero(~(pull > bound)).tolist()


def _feasible_start(
    u_des: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    labels: list[str],
    projections: dict[tuple[int, ...], np.ndarray],
) -> np.ndarray:
    """Closest feasible equality-projection of u_des over row subsets.

    Every subset of at most MAX_SUBSET rows is a candidate (module
    docstring). With three or more rows, and a feasible single-row
    reference c, a subset S is solved only if the cap cannot exclude it:
    a winner u_S is feasible and no farther from u_des than c, so

        ||A_S^T s_S|| <= ||A_S^T e_S|| + ||A_S||^2 ||u_S - c||
                      <= sqrt(eta) ||r_S|| + ||A_S||^2 (kappa + rho) + rounding,

    s being the slacks at c. That returns the same array as solving every
    subset, which is done when c is infeasible. Every projection made is
    stored in ``projections`` under its row tuple, where the active-set
    loop finds it.
    """
    m = A.shape[0]
    keys = _search(m).keys
    # at most three subsets with two rows: solving them all costs less than a cap
    order = range(len(keys)) if m <= 2 else _capped(u_des, A, b, projections)
    best = None
    best_dist = np.inf
    for n in order:
        rows = keys[n]
        cand = projections.get(rows)
        if cand is None:
            cand = projections[rows] = _project_equalities(u_des, A, b, rows)
        if (A @ cand + b).min() >= -FEAS_TOL:
            step = cand - u_des
            dist = math.sqrt(float(step @ step))
            if dist < best_dist:
                best, best_dist = cand, dist
    if best is None:
        slack = A @ u_des + b
        order = np.argsort(slack)
        worst = [labels[i] for i in order if slack[i] < 0.0]
        raise InfeasibleQpError(
            "safety QP infeasible; blocking constraints: " + ", ".join(worst),
            blocking_labels=worst,
        )
    return best


def solve(problem: QpProblem) -> QpSolution:
    """Exact minimizer via primal active-set iteration on 4 variables.

    When u_des already satisfies every row (and with no rows) the problem's
    own read-only u_des is returned, with an empty active set and the
    residual max(0, -min slack); only otherwise are the feasible-start
    search and the loop run, and their answer certified.

    Blocking-constraint ties are broken toward the fastest-violating row and
    then by label order, keeping the iteration deterministic.

    Raises:
        InfeasibleQpError: empty feasible set (with blocking labels).
        IterationLimitError: no convergence within 100 iterations.
        UncertifiedSolutionError: the answer's KKT residual exceeds
            KKT_RTOL (1 + ||u_des||) (1 + max_i ||a_i||).
    """
    u_des = problem.u_des
    constraints = problem.constraints
    if len(constraints) == 1:
        # the one-row case, most steps' problem, skips stacking its row:
        # numpy takes a 1-row matrix product to the dot product, so this is
        # the bits of (A @ u_des + b)[0]
        row = constraints[0]
        min_slack = float(row.gradient_row @ u_des) + float(row.offset)
    else:
        A, b, labels = _stack_rows(constraints)
        min_slack = float((A @ u_des + b).min(initial=np.inf))
    if min_slack >= -FEAS_TOL:
        # u_des is the unconstrained optimum: the loop would stop at once
        return QpSolution(u_des, (), (), max(0.0, -min_slack))
    if len(constraints) == 1:
        A, b, labels = _stack_rows(constraints)
    m = A.shape[0]

    projections: dict[tuple[int, ...], np.ndarray] = {}
    u = _feasible_start(u_des, A, b, labels, projections)

    working: list[int] = []
    lam_w = np.zeros(0)
    for _ in range(MAX_ITER):
        if working:
            rows = tuple(working)
            u_eq = projections.get(rows)
            if u_eq is None:
                u_eq = projections[rows] = _project_equalities(u_des, A, b, rows)
        else:
            u_eq = u_des
        d = u_eq - u
        if math.sqrt(float(d @ d)) <= 1e-12:
            # At the working-set minimizer: check signs of the multipliers.
            if working:
                lam_w = _multipliers(A[working], u - u_des)
            else:
                lam_w = np.zeros(0)
            if lam_w.size == 0 or lam_w.min() >= -1e-12:
                break
            drop = int(np.argmin(lam_w))
            working.pop(drop)
            continue
        # Step toward u_eq, blocked by rows outside the working set.
        alpha = 1.0
        block = -1
        block_rate = 0.0
        for j in range(m):
            if j in working:
                continue
            rate = float(A[j] @ d)
            if rate >= -1e-14:
                continue
            slack = float(A[j] @ u) + b[j]
            alpha_j = max(slack, 0.0) / (-rate)
            if alpha_j < alpha - 1e-14:
                alpha, block, block_rate = alpha_j, j, rate
            elif abs(alpha_j - alpha) <= 1e-14 and block >= 0:
                # Tie: prefer the faster-violating row, then label order.
                if rate < block_rate - 1e-14 or (
                    abs(rate - block_rate) <= 1e-14 and labels[j] < labels[block]
                ):
                    block, block_rate = j, rate
        u = u + alpha * d
        if block >= 0 and alpha < 1.0:
            working.append(block)
    else:
        raise IterationLimitError("active-set iteration exceeded 100 iterations")

    lam = np.maximum(lam_w, 0.0) if lam_w.size else np.zeros(0)
    act_labels = tuple(labels[i] for i in working)
    W = A[working]
    gap = (u - u_des) - (W.T @ lam if working else 0.0)
    stationarity = math.sqrt(float(gap @ gap))
    feas = max(0.0, -float((A @ u + b).min()))
    comp = float(np.abs(lam * (W @ u + b[working])).max()) if working else 0.0
    kkt = max(stationarity, feas, comp)
    if not kkt <= KKT_RTOL:  # the bound is at least KKT_RTOL; nan fails too
        u_norm = math.sqrt(float(u_des @ u_des))
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
    return QpSolution(u, act_labels, tuple(float(v) for v in lam), kkt)
