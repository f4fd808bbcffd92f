"""Higher-order CBF baseline: the cone formula with a constant weight.

Starting from b(x,t) = ||p_rel||^2 - r^2, one derivative chain with a
square-root class-K function collapses to the closed form

    h_HO(x,t) = <p_rel, v_rel> + gamma sqrt(||p_rel||^2 - r^2),

which is ``cone.cone_terms`` with its two knobs set to no projector and the
constant weight gamma in place of the collision cone's ||v_rel||. The row
goes through the same ``cone.BodyFrame`` and ``cone.barrier_row``, which
contracts the terms with ``cone.contract``; with a constant weight
dh/dv_rel is p_rel alone. Matching terms against the cone
barrier gives an effective half angle phi' with cos(phi') =
(gamma/||v_rel||) cos(phi): whenever the closing speed exceeds gamma the HO
cone is wider than the true collision cone, so the filter brakes earlier and
clears obstacles by more than geometry requires. Setting gamma = ||v_rel||
pointwise recovers the cone barrier identically.

The baseline treats every obstacle as its encompassing sphere (cylinders use
max(radius, height/2)), which is what makes it misjudge elongated shapes.

gamma is a plain number, ``ScenarioConfig.hocbf_gamma``, which the config
checks finite and > 0, as it does the class-K gain ``kappa_gamma``.
"""

from __future__ import annotations

import numpy as np

from .cone import BodyFrame, ConeTerms, Obstacle, barrier_row, cone_terms
from .dynamics import QuadrotorParams


def encompassing_radius(obstacle: Obstacle) -> float:
    """Largest half-extent: the sphere that contains the whole obstacle."""
    if obstacle.kind == "cylinder" and obstacle.height is not None:
        return max(obstacle.radius_raw, 0.5 * obstacle.height)
    return obstacle.radius_raw


def barrier_ho(
    frame: BodyFrame,
    obstacle: Obstacle,
    params: QuadrotorParams,
    kappa_gamma: float,
    hocbf_gamma: float,
    t: float,
    label: str = "",
) -> tuple[ConeTerms, tuple[np.ndarray, float]]:
    """QP row for the higher-order barrier; hocbf_gamma is the penalty gamma,
    the other arguments are as for cone.barrier_3d.

    The gradient w.r.t. v_rel is p_rel alone (the sqrt term is velocity
    independent), so both drift and input contractions use p_rel where the
    cone barrier uses p_rel + v_rel sqrt(...)/||v_rel||. The terms are the
    cone terms with the encompassing radius, no projector and weight gamma,
    so their half angle is the effective phi'.

    Raises:
        DegenerateGradientError: ||input_row|| <= 1e-10.
    """
    p, v = frame.relative(obstacle, t)
    r = encompassing_radius(obstacle) + 0.5 * params.body_width
    terms = cone_terms(p, v, r, hocbf_gamma)
    return terms, barrier_row(frame, terms, kappa_gamma, label)
