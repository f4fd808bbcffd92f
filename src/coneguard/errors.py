"""Exception types shared across the simulator, all ``ConeguardError``s:
a bad value from outside the program (``ConfigError``, raised by the
constructor of the record that holds it), then the faults of a run that
left its domain, then the safety QP's outcomes other than an answer. A run
reports any package error a step raises as ``SimulationAbort``.
"""


class ConeguardError(Exception):
    """Base class for all package errors."""


class ConfigError(ConeguardError, ValueError):
    """A bad value, which every library validator raises: scenario, vehicle,
    state, gain, reference, obstacle, filter and QP-row values, thrusts and
    the step size. It is also a ValueError, since it reports a bad value, so
    a caller that catches ValueError from a validator still catches it."""


class AttitudeSingularError(ConeguardError):
    """A run's |roll| or |pitch| reached pi/2, or |cos(pitch)| fell below
    the Euler-rate transform's threshold."""


class NonFiniteStateError(ConeguardError):
    """Integration produced a non-finite state component."""


class DegenerateThrustError(ConeguardError):
    """Attitude-target denominator g + z_ddot fell below the guard value."""


class DegenerateGradientError(ConeguardError):
    """A barrier row a run surveyed has a (numerically) zero gradient.

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


class SimulationAbort(ConeguardError):
    """A run aborted mid-trajectory; carries the failing step index."""

    def __init__(self, message, step_index):
        super().__init__(message)
        self.step_index = step_index
