"""Exception types shared across the package."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all moistpe errors."""


class DataError(SimulationError):
    """Raised when field data violates a representation or integrity precondition."""


class ParameterError(SimulationError):
    """Raised when physical parameters are inconsistent or out of range."""


class ConstraintError(SimulationError):
    """Raised when a state violates the vertically-averaged divergence constraint.

    Carries the offending residual magnitude so callers can report it.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


class ConfigError(SimulationError):
    """Raised for malformed run configurations (unknown keys, invalid values)."""


class BlowupError(SimulationError):
    """Raised when the solution leaves the finite / bounded regime.

    stepper.run raises it for every run that diverges; it never returns a
    partial trajectory.  Carries the time at which the divergence was
    detected, that of the first state that failed the check, and what failed
    it: the step, the field, its norm and its limit.  The command line turns
    it into exit code 2.
    """

    def __init__(self, message: str, t_last: float, detail: str = ""):
        super().__init__(message)
        self.t_last = float(t_last)
        self.detail = detail


class SamplingError(SimulationError):
    """Raised when a trajectory window does not meet a monitor's sampling contract."""
