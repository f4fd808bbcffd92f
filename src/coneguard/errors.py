"""Exception types shared across the simulator.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto exit codes without string matching.
"""


class ConeguardError(Exception):
    """Base class for all package errors."""


class AttitudeSingularError(ConeguardError):
    """Euler-rate transform is singular (|cos(pitch)| below threshold)."""


class NonFiniteStateError(ConeguardError):
    """Integration produced a non-finite state component."""


class DegenerateThrustError(ConeguardError):
    """Attitude-target denominator g + z_ddot fell below the guard value."""


class DegenerateGradientError(ConeguardError):
    """A safety-constraint gradient row is (numerically) zero.

    The barrier theory guarantees a nonzero input row on the admissible
    domain, so this is surfaced loudly instead of being regularized away.
    """


class InfeasibleQpError(ConeguardError):
    """The safety QP has an empty feasible set.

    Attributes:
        blocking_labels: labels of the constraints that could not be
            satisfied simultaneously (most violated first, tied rows in
            row order).
    """

    def __init__(self, message, blocking_labels=()):
        super().__init__(message)
        self.blocking_labels = tuple(blocking_labels)


class IterationLimitError(ConeguardError):
    """Active-set iteration failed to converge within the iteration budget."""


class UncertifiedSolutionError(ConeguardError):
    """The safety QP's answer fails its own KKT certificate.

    Attributes:
        labels: labels of the rows active in the rejected answer.
        residual: its KKT residual.
        bound: the residual the problem's scale allows.
    """

    def __init__(self, message, labels, residual, bound):
        super().__init__(message)
        self.labels = tuple(labels)
        self.residual = residual
        self.bound = bound


class InvalidObstacleError(ConeguardError):
    """Obstacle shape is not valid for the requested barrier variant."""


class ConfigError(ConeguardError, ValueError):
    """Scenario configuration is malformed or violates an invariant.

    Every library validator raises it: scenario, vehicle, gain, reference,
    filter and QP-row values, thrusts and the step size. It is also a
    ValueError, since it reports a bad value, so a caller that catches
    ValueError from a validator still catches it.
    """


class SimulationAbort(ConeguardError):
    """A run aborted mid-trajectory; carries the failing step index."""

    def __init__(self, message, step_index):
        super().__init__(message)
        self.step_index = step_index
