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
re-check. The screen solves the Gram systems of all subsets of one size in
a single batched SVD, truncated where ``lstsq`` truncates, and bounds, from
each subset's conditioning, how far its candidate's slack and distance can
lie from the ``lstsq`` values. Only the finalists, subsets that may be
feasible and may be closest within those bounds, are solved again with
``lstsq``, in the original order and with the same strict rule. The winner
of the full search is always a finalist, and no finalist before it in the
order has a smaller or equal distance (or it would have won), so the
re-check returns the very same array: the start, and every trace byte after
it, do not depend on the screen. With one or two rows (at most three
subsets) every subset is a finalist and nothing is screened.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
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
        a = np.asarray(self.gradient_row, dtype=float).reshape(4).copy()
        a.setflags(write=False)
        object.__setattr__(self, "gradient_row", a)
        if not (np.all(np.isfinite(a)) and np.isfinite(self.offset)):
            raise ConfigError("constraint row must be finite")


@dataclass(frozen=True)
class QpProblem:
    u_des: np.ndarray
    constraints: tuple[AffineSafetyConstraint, ...] = ()

    def __post_init__(self):
        u = np.asarray(self.u_des, dtype=float).reshape(4).copy()
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
    rows_a, rows_b, labels = [], [], []
    for c in problem.constraints:
        if float(c.gradient_row @ c.gradient_row) <= GRADIENT_MIN**2:
            raise DegenerateGradientError(
                f"constraint {c.label!r} has ||a|| <= {GRADIENT_MIN}"
            )
        rows_a.append(c.gradient_row)
        rows_b.append(c.offset)
        labels.append(c.label)
    if rows_a:
        return np.vstack(rows_a), np.asarray(rows_b, dtype=float), labels
    return np.zeros((0, 4)), np.zeros(0), labels


def _project_equalities(u_des: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closest point to u_des on {u : A u = -b} (least-squares if inconsistent)."""
    # u = u_des + A^T mu with A A^T mu = -(A u_des + b)
    gram = A @ A.T
    rhs = -(A @ u_des + b)
    mu = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return u_des + A.T @ mu


@lru_cache(maxsize=None)
def _subsets(m: int, k: int) -> np.ndarray:
    """Row indices of every k-row subset of m rows, in combinations order."""
    table = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    table.setflags(write=False)
    return table


def _screen(u_des: np.ndarray, A: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Finalists of the feasible-start search (index rows, in search order).

    Solve. For each size k, the Gram systems G mu = -(A_S u_des + b_S) of all
    C(m, k) subsets are solved in one batched SVD, G = U diag(s) V^T, keeping
    the s_j > k eps s_1: the cut-off of lstsq with rcond=None. The candidate
    is u_des + d with d = A_S^T mu. The Gram entries are taken from A A^T, the
    same row products lstsq is handed (bit-identical in practice).

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
    gram = A @ A.T
    resid = A @ u_des + b  # row slacks at u_des
    a_max = float(np.sqrt(np.max(np.diag(gram))))
    b_max = float(np.max(np.abs(b)))
    u_norm = float(np.linalg.norm(u_des))
    tables, slacks, dists, bounds = [], [], [], []
    for k in range(1, min(MAX_SUBSET, m) + 1):
        idx = _subsets(m, k)
        U, s, Vt = np.linalg.svd(gram[idx[:, :, None], idx[:, None, :]])
        rhs = -resid[idx]
        s1 = s[:, 0]
        ratio = s / s1[:, None]
        keep = ratio > k * EPS
        proj = np.einsum("nji,nj->ni", U, rhs)  # U^T rhs
        coef = np.where(keep, proj / np.where(keep, s, 1.0), 0.0)
        mu = np.einsum("nji,nj->ni", Vt, coef)
        d = np.einsum("nk,nkj->nj", mu, A[idx])
        d_norm = np.sqrt(np.einsum("ni,ni->n", d, d))
        s_r = np.min(np.where(keep, s, np.inf), axis=1)
        t = np.sqrt(np.sum(np.where(keep, 0.0, proj) ** 2, axis=1))
        mu_norm = 2.0 * np.sqrt(np.einsum("ni,ni->n", mu, mu))
        e_G = 10.0 * k * EPS * s1
        b_norm = np.linalg.norm(b[idx], axis=1)
        e_rhs = 10.0 * EPS * (np.sqrt(k) * a_max * u_norm + b_norm)
        du = (
            (e_G * mu_norm + e_rhs) / np.sqrt(s_r)
            + e_G * t / s_r**1.5
            + 2.0 * k * EPS * np.sqrt(k * s1) * mu_norm  # forming A_S^T mu
            + 4.0 * EPS * (u_norm + d_norm)  # u_des + d, and back
        )
        undecided = np.any(np.abs(ratio - k * EPS) <= RANK_BAND * k * EPS, axis=1)
        du[undecided | (s_r <= 4.0 * e_G)] = np.inf
        tables.append(idx)
        slacks.append(np.min(resid + d @ A.T, axis=1))
        dists.append(d_norm)
        bounds.append(du)
    slack, dist, bound = map(np.concatenate, (slacks, dists, bounds))
    slack_bound = a_max * bound + 12.0 * EPS * (a_max * (u_norm + dist) + b_max)
    sure = slack - slack_bound >= -FEAS_TOL
    best = np.min(dist[sure] + bound[sure], initial=np.inf)
    finalist = (slack + slack_bound >= -FEAS_TOL) & (dist - bound <= best)
    finalists, start = [], 0
    for idx in tables:
        finalists.extend(idx[finalist[start : start + len(idx)]])
        start += len(idx)
    return finalists


def _feasible_start(
    u_des: np.ndarray, A: np.ndarray, b: np.ndarray, labels: list[str]
) -> np.ndarray:
    """Closest feasible equality-projection of u_des over row subsets.

    Every subset of at most MAX_SUBSET rows is a candidate (module
    docstring). With three or more rows only the screen's finalists are
    solved, which returns the same array as solving every subset.
    """
    m = A.shape[0]
    if m <= 2:  # at most three subsets: solving them all costs less than a screen
        finalists = [idx for k in range(1, m + 1) for idx in _subsets(m, k)]
    else:
        finalists = _screen(u_des, A, b)
    best = None
    best_dist = np.inf
    for idx in finalists:
        cand = _project_equalities(u_des, A[idx], b[idx])
        if np.min(A @ cand + b) >= -FEAS_TOL:
            dist = float(np.linalg.norm(cand - u_des))
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
    min_slack = float(np.min(A @ u_des + b, initial=np.inf))
    if min_slack >= -FEAS_TOL:
        # u_des is the unconstrained optimum: the loop would stop at once
        return QpSolution(u_des.copy(), (), (), max(0.0, -min_slack))

    u = _feasible_start(u_des, A, b, labels)

    working: list[int] = []
    lam_w = np.zeros(0)
    for _ in range(MAX_ITER):
        if working:
            W = A[working]
            u_eq = _project_equalities(u_des, W, b[working])
        else:
            u_eq = u_des.copy()
        d = u_eq - u
        if float(np.linalg.norm(d)) <= 1e-12:
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
    stationarity = float(
        np.linalg.norm((u - u_des) - (A[working].T @ lam if working else 0.0))
    )
    feas = float(max(0.0, -(np.min(A @ u + b))))
    comp = (
        float(np.max(np.abs(lam * (A[working] @ u + b[working])))) if working else 0.0
    )
    kkt = max(stationarity, feas, comp)
    return QpSolution(u, act_labels, tuple(float(v) for v in lam), kkt)
