"""Higher-order CBF baseline: the cone formula with a constant weight.

Starting from b(x,t) = ||p_rel||^2 - r^2, one derivative chain with a
square-root class-K function collapses to the closed form

    h_HO(x,t) = <p_rel, v_rel> + gamma sqrt(||p_rel||^2 - r^2),

which is ``cone.cone_terms`` with its two knobs set to no projector and the
constant weight gamma in place of the collision cone's ||v_rel||. The row
goes through the same ``cone.BodyFrame`` and ``cone.contract``; with a
constant weight dh/dv_rel is p_rel alone. Matching terms against the cone
barrier gives an effective half angle phi' with cos(phi') =
(gamma/||v_rel||) cos(phi): whenever the closing speed exceeds gamma the HO
cone is wider than the true collision cone, so the filter brakes earlier and
clears obstacles by more than geometry requires. Setting gamma = ||v_rel||
pointwise recovers the cone barrier identically.

The baseline treats every obstacle as its encompassing sphere (cylinders use
max(radius, height/2)), which is what makes it misjudge elongated shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import (
    BarrierEvaluation,
    BodyFrame,
    Obstacle,
    barrier_row,
    cone_terms,
)
from .dynamics import QuadrotorParams
from .errors import ConeDegenerateError, ConfigError
from .qp import AffineSafetyConstraint, ClassKappa


@dataclass(frozen=True)
class HocbfConfig:
    """Penalty of the higher-order barrier: the constant replacing ||v_rel||."""

    gamma_penalty: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.gamma_penalty) and self.gamma_penalty > 0.0):
            raise ConfigError(
                f"hocbf gamma must be finite and > 0, got {self.gamma_penalty!r}"
            )


def encompassing_radius(obstacle: Obstacle) -> float:
    """Largest half-extent: the sphere that contains the whole obstacle."""
    if obstacle.kind == "cylinder" and obstacle.height is not None:
        return max(obstacle.radius_raw, 0.5 * obstacle.height)
    return obstacle.radius_raw


def h_ho(
    frame: BodyFrame,
    obstacle: Obstacle,
    params: QuadrotorParams,
    config: HocbfConfig,
    t: float,
) -> float:
    """h_HO = <p_rel, v_rel> + gamma sqrt(||p_rel||^2 - r^2), clamped inside."""
    return float(_ho_terms(frame, obstacle, params, config, t).h)


def _ho_terms(frame, obstacle, params, config, t):
    """The cone terms with the encompassing radius, no projector, weight gamma."""
    p, v = frame.relative(obstacle, t)
    r = encompassing_radius(obstacle) + 0.5 * params.body_width
    return cone_terms(p, v, r, config.gamma_penalty)


def barrier_ho(
    frame: BodyFrame,
    obstacle: Obstacle,
    params: QuadrotorParams,
    kappa: ClassKappa,
    config: HocbfConfig,
    t: float,
    label: str = "",
) -> tuple[BarrierEvaluation, AffineSafetyConstraint]:
    """QP row for the higher-order barrier; arguments as for cone.barrier_3d.

    The gradient w.r.t. v_rel is p_rel alone (the sqrt term is velocity
    independent), so both drift and input contractions use p_rel where the
    cone barrier uses p_rel + v_rel sqrt(...)/||v_rel||. The recorded half
    angle is the effective phi'.

    Raises:
        DegenerateGradientError: ||input_row|| <= 1e-10.
    """
    terms = _ho_terms(frame, obstacle, params, config, t)
    return barrier_row(frame, terms, kappa, label)


def effective_half_angle(
    v_rel_norm: float, p_rel_norm: float, r: float, gamma: float
) -> float:
    """phi' = arccos((gamma/||v_rel||) cos(phi)), the HO cone's half angle.

    Raises:
        ConeDegenerateError: (gamma/||v_rel||) cos(phi) > 1, where no cone
            exists (the HO condition is loose for every direction).
        ConfigError: non-positive arguments.
    """
    if min(v_rel_norm, p_rel_norm, r, gamma) <= 0.0:
        raise ConfigError("effective_half_angle needs positive arguments")
    cos_phi = np.sqrt(max(p_rel_norm**2 - r * r, 0.0)) / p_rel_norm
    arg = gamma * cos_phi / v_rel_norm
    if arg > 1.0:
        raise ConeDegenerateError(
            f"gamma/||v_rel|| cos(phi) = {arg:.6g} > 1: HO cone undefined"
        )
    return float(np.arccos(arg))
