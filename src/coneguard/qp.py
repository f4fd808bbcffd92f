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

With three or more rows that search is done as a screen and an exact
re-check. The screen factors every subset's Gram system, truncated where
``lstsq`` truncates: a 1-row Gram is its own SVD, and the Grams of each
larger size go through one batched SVD. Everything after the SVDs runs once
over all subsets: the candidates, and bounds, from each subset's
conditioning, on how far its candidate's slack and distance can lie from
the ``lstsq`` values. Only the finalists, subsets that may be feasible and
may be closest within those bounds, are solved again with ``lstsq``, in the
original order and with the same strict rule. The winner of the full search
is always a finalist, and no finalist before it in the order has a smaller
or equal distance (or it would have won), so the re-check returns the very
same array: the start, and every trace byte after it, do not depend on the
screen. With one or two rows (at most three subsets) every subset is a
finalist and nothing is screened.

One ``solve`` projects each row tuple at most once. Every projection, of a
finalist or of a working set of the loop, is kept under its row tuple, and
the loop reuses one only for the same rows in the same order: the same
``lstsq`` input, so the same array. Most often the winner is a single row,
and that row is the loop's first working set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGradientError,
    InfeasibleQpError,
    IterationLimitError,
)

GRADIENT_MIN = 1e-10  # below this, a safety row contradicts the barrier theory
FEAS_TOL = 1e-10  # feasibility slack used by the active-set bookkeeping
MAX_ITER = 100
MAX_SUBSET = 4  # rows per feasible-start subset; u has 4 components
EPS = float(np.finfo(float).eps)
# Relative half-width of the band around lstsq's rank cut-off in which the
# screen leaves the rank decision to lstsq. Bidiagonal QR computes each
# singular value to a relative error near 90 k^2 eps (LAPACK dbdsqr), so the
# ratios s_j / s_1 of two runs on the same Gram agree to well inside 1e-12.
RANK_BAND = 1e-12


@dataclass(frozen=True)
class ClassKappa:
    """Extended class-K function in linear form kappa(h) = gamma * h."""

    gamma: float = 1.0

    def __post_init__(self):
        try:
            valid = math.isfinite(self.gamma) and self.gamma > 0.0
        except TypeError:  # not a real number
            valid = False
        if not valid:
            raise ConfigError(f"kappa gamma must be finite and > 0, got {self.gamma!r}")

    def __call__(self, h: float) -> float:
        return self.gamma * h


@dataclass(frozen=True)
class AffineSafetyConstraint:
    """One row a.u + b >= 0 of the safety QP."""

    gradient_row: np.ndarray
    offset: float
    label: str = ""

    def __post_init__(self):
        try:
            a = np.array(self.gradient_row, dtype=float).reshape(4)
            finite = all(map(math.isfinite, a.tolist())) and math.isfinite(self.offset)
        except (TypeError, ValueError) as exc:
            message = f"constraint row must be 4 numbers and an offset: {exc}"
            raise ConfigError(message) from None
        a.setflags(write=False)
        object.__setattr__(self, "gradient_row", a)
        if not finite:
            raise ConfigError("constraint row must be finite")


@dataclass(frozen=True)
class QpProblem:
    u_des: np.ndarray
    constraints: tuple[AffineSafetyConstraint, ...] = ()

    def __post_init__(self):
        try:
            u = np.array(self.u_des, dtype=float).reshape(4)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"u_des must be 4 numbers: {exc}") from None
        u.setflags(write=False)
        object.__setattr__(self, "u_des", u)
        object.__setattr__(self, "constraints", tuple(self.constraints))


@dataclass(frozen=True)
class QpSolution:
    u_star: np.ndarray
    active_set: tuple[str, ...]
    multipliers: tuple[float, ...]
    kkt_residual: float


def _stack_rows(problem: QpProblem) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The rows a.u + b >= 0 of the problem as (A, b, labels)."""
    rows = problem.constraints
    for c in rows:
        if float(c.gradient_row @ c.gradient_row) <= GRADIENT_MIN**2:
            raise DegenerateGradientError(
                f"constraint {c.label!r} has ||a|| <= {GRADIENT_MIN}"
            )
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
    mu = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return u_des + A_S.T @ mu


class _Search(NamedTuple):
    """The subsets of at most MAX_SUBSET of m rows, and the screen's tables.

    The tables put the subset last: column n of ``rows`` lists subset n's
    rows, padded with m, which the screen maps to a zero row.
    """

    keys: tuple[tuple[int, ...], ...]  # search order: by size, then combinations
    rows: np.ndarray  # (MAX_SUBSET, N) row indices, padded with m
    member: np.ndarray  # (m, N) 1.0 where row i is in subset n, else 0.0
    size: np.ndarray  # (N,) k, as a float
    blocks: tuple[tuple[int, int, int], ...]  # (k, first, stop) for k >= 2
    gather: np.ndarray  # flat m x m Gram indices of every k >= 2 subset Gram


@lru_cache(maxsize=None)
def _search(m: int) -> _Search:
    """Index tables of the feasible-start search over m rows, built once per m."""
    sizes = range(1, min(MAX_SUBSET, m) + 1)
    keys = tuple(itertools.chain(*(itertools.combinations(range(m), k) for k in sizes)))
    rows = np.full((MAX_SUBSET, len(keys)), m, dtype=np.intp)
    for n, key in enumerate(keys):
        rows[: len(key), n] = key
    member = np.zeros((m + 1, len(keys)))
    member[rows, np.arange(len(keys))] = 1.0
    member = member[:m]
    size = np.array([len(key) for key in keys], dtype=float)
    blocks, gather, first = [], [np.zeros(0, dtype=np.intp)], m
    for k in sizes[1:]:
        stop = first + math.comb(m, k)
        idx = rows[:k, first:stop].T
        blocks.append((k, first, stop))
        gather.append((idx[:, :, None] * m + idx[:, None, :]).ravel())
        first = stop
    gather = np.concatenate(gather)
    for table in (rows, member, size, gather):
        table.setflags(write=False)
    return _Search(keys, rows, member, size, tuple(blocks), gather)


def _screen(u_des: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Finalists of the feasible-start search (positions in search order).

    Solve. The Gram systems G mu = -(A_S u_des + b_S) of all subsets S of
    k <= MAX_SUBSET rows are solved by SVD, G = U diag(s) V^T, keeping the
    s_j > k eps s_1: the cut-off of lstsq with rcond=None. A 1-row Gram [g]
    is its own SVD (s = g, U = V = 1); the Grams of each size k >= 2 go
    through one batched SVD. The factors are zero-padded to MAX_SUBSET, a
    padded s_j being dropped with zero weight, so everything after the SVDs
    is evaluated once over all subsets. The candidate is u_des + d with
    d = A_S^T mu. The Gram entries are taken from A A^T, the same row
    products lstsq is handed (bit-identical in practice).

    Error bound. lstsq solves the same Gram with another backward-stable
    factorisation. To first order the two displacements d differ by at most

        du = (e_G ||mu|| + e_rhs) / sqrt(s_r) + e_G t / s_r^1.5 + rounding,

    s_r being the smallest kept singular value and t the norm of the
    right-hand side along the dropped ones. e_G = 10 k eps s_1 bounds the
    Gram's rounding in both paths (4-term dot products) and both
    factorisations' backward errors; e_rhs bounds the right-hand side's
    rounding. The first term is the perturbation of G^+ seen through A_S^T,
    whose norm on the kept range is 1/sqrt(s_r); the second is the turn of
    the kept subspace, by up to e_G / s_r, that leaks the dropped part t in.
    ||mu|| is doubled to stand for the lstsq solution. The minimum slack over
    all rows then moves by at most max ||a_i|| du and the distance by du,
    each plus the rounding of evaluating it. du grows with the subset's
    conditioning s_1 / s_r; a subset with s_r <= 4 e_G, where first order
    fails, gets no bound and is always a finalist.

    Rank-deficient subsets. Rows sharing a 3-D range (every barrier row
    -M^T R^T w does) make every 4-row Gram singular up to rounding, and lstsq
    drops its smallest singular value. The screen drops the same one: both
    bidiagonalise the same Gram, and the singular values of a bidiagonal
    come out to high relative accuracy, so the two runs' ratios s_j / s_1
    agree to a relative RANK_BAND however small s_j is. Both then solve the
    same truncated system, which the bound covers, t holding the
    inconsistent part both drop. Only where a ratio lies within RANK_BAND of
    the cut-off could lstsq keep a direction the screen drops, or drop one
    it keeps; its candidate can then be anywhere, so the subset is a
    finalist and lstsq decides. No rank decision can thus hide a winner.

    Finalists. D is the smallest screened distance plus bound among the
    surely feasible subsets (slack - bound >= -FEAS_TOL). A subset is a
    finalist if slack + bound >= -FEAS_TOL and distance - bound <= D. The
    winner of the exhaustive search is feasible, so it passes the first
    test, and is no further than any feasible candidate, so the second.
    """
    m = A.shape[0]
    search = _search(m)
    gram = A @ A.T
    resid = A @ u_des + b  # row slacks at u_des
    diag = gram.diagonal()
    a_max = math.sqrt(float(diag.max()))
    b_max = float(np.abs(b).max())
    u_norm = math.sqrt(float(u_des @ u_des))
    # subset n's factors: U[:, i, n] and Vt[i, :, n] are singular vectors i
    U = np.zeros((MAX_SUBSET, MAX_SUBSET, len(search.keys)))
    Vt, s = U.copy(), np.zeros(U.shape[1:])
    U[0, 0, :m] = Vt[0, 0, :m] = 1.0
    s[0, :m] = diag
    grams, offset = gram.take(search.gather), 0
    for k, first, stop in search.blocks:
        n = (stop - first) * k * k
        factors = np.linalg.svd(grams[offset : offset + n].reshape(-1, k, k))
        offset += n
        U[:k, :k, first:stop] = factors.U.transpose(1, 2, 0)
        s[:k, first:stop] = factors.S.T
        Vt[:k, :k, first:stop] = factors.Vh.transpose(1, 2, 0)
    k = search.size
    rhs = -np.append(resid, 0.0)[search.rows]
    s1 = s[0]
    ratio = s / s1
    keep = ratio > k * EPS
    proj = np.sum(U * rhs[:, None], axis=0)  # U^T rhs
    coef = np.where(keep, proj / np.where(keep, s, 1.0), 0.0)
    mu = np.sum(Vt * coef[:, None], axis=0)
    mu_rows = np.zeros((m + 1, len(k)))  # mu over all m rows, 0 off the subset
    mu_rows[search.rows, np.arange(len(k))] = mu
    d = A.T @ mu_rows[:m]
    dist = np.sqrt(np.sum(d * d, axis=0))
    s_r = np.min(np.where(keep, s, np.inf), axis=0)
    t = np.sqrt(np.sum(np.where(keep, 0.0, proj) ** 2, axis=0))
    mu_norm = 2.0 * np.sqrt(np.sum(mu * mu, axis=0))
    e_G = 10.0 * k * EPS * s1
    b_norm = np.sqrt((b * b) @ search.member)
    e_rhs = 10.0 * EPS * (np.sqrt(k) * a_max * u_norm + b_norm)
    bound = (
        (e_G * mu_norm + e_rhs) / np.sqrt(s_r)
        + e_G * t / s_r**1.5
        + 2.0 * k * EPS * np.sqrt(k * s1) * mu_norm  # forming A_S^T mu
        + 4.0 * EPS * (u_norm + dist)  # u_des + d, and back
    )
    undecided = np.any(np.abs(ratio - k * EPS) <= RANK_BAND * k * EPS, axis=0)
    bound[undecided | (s_r <= 4.0 * e_G)] = np.inf
    slack = np.min(resid[:, None] + A @ d, axis=0)
    slack_bound = a_max * bound + 12.0 * EPS * (a_max * (u_norm + dist) + b_max)
    sure = slack - slack_bound >= -FEAS_TOL
    best = np.min(dist[sure] + bound[sure], initial=np.inf)
    finalist = (slack + slack_bound >= -FEAS_TOL) & (dist - bound <= best)
    return np.flatnonzero(finalist)


def _feasible_start(
    u_des: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    labels: list[str],
    projections: dict[tuple[int, ...], np.ndarray],
) -> np.ndarray:
    """Closest feasible equality-projection of u_des over row subsets.

    Every subset of at most MAX_SUBSET rows is a candidate (module
    docstring). With three or more rows only the screen's finalists are
    solved, which returns the same array as solving every subset. Every
    projection made is stored in ``projections`` under its row tuple, where
    the active-set loop finds it.
    """
    m = A.shape[0]
    keys = _search(m).keys
    # at most three subsets with two rows: solving them all costs less than a screen
    order = range(len(keys)) if m <= 2 else _screen(u_des, A, b).tolist()
    best = None
    best_dist = np.inf
    for n in order:
        rows = keys[n]
        cand = projections[rows] = _project_equalities(u_des, A, b, rows)
        if np.min(A @ cand + b) >= -FEAS_TOL:
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

    When u_des already satisfies every row (and with no rows) it is returned
    as a copy with an empty active set and the residual max(0, -min slack);
    only otherwise are the feasible-start search and the loop run.

    Blocking-constraint ties are broken toward the fastest-violating row and
    then by label order, keeping the iteration deterministic.

    Raises:
        DegenerateGradientError: any safety row with ||a|| <= 1e-10.
        InfeasibleQpError: empty feasible set (with blocking labels).
        IterationLimitError: no convergence within 100 iterations.
    """
    u_des = problem.u_des
    A, b, labels = _stack_rows(problem)
    m = A.shape[0]
    min_slack = float((A @ u_des + b).min(initial=np.inf))
    if min_slack >= -FEAS_TOL:
        # u_des is the unconstrained optimum: the loop would stop at once
        return QpSolution(u_des.copy(), (), (), max(0.0, -min_slack))

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
            u_eq = u_des.copy()
        d = u_eq - u
        if math.sqrt(float(d @ d)) <= 1e-12:
            # At the working-set minimizer: check signs of the multipliers.
            if working:
                W = A[working]
                lam_w = np.linalg.lstsq(W.T, u - u_des, rcond=None)[0]
            else:
                lam_w = np.zeros(0)
            if lam_w.size == 0 or np.min(lam_w) >= -1e-12:
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
    gap = (u - u_des) - (A[working].T @ lam if working else 0.0)
    stationarity = math.sqrt(float(gap @ gap))
    feas = float(max(0.0, -(np.min(A @ u + b))))
    comp = (
        float(np.max(np.abs(lam * (A[working] @ u + b[working])))) if working else 0.0
    )
    kkt = max(stationarity, feas, comp)
    return QpSolution(u, act_labels, tuple(float(v) for v in lam), kkt)
