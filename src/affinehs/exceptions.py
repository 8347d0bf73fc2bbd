"""Exception hierarchy shared across the package."""


class AffineHSError(Exception):
    """Base class for all errors raised by affinehs."""


class DimensionMismatchError(AffineHSError):
    """Operands live at different matrix dimensions."""


class EigenSolverError(AffineHSError):
    """The symmetric eigensolver failed to converge."""


class OperatorExpError(AffineHSError):
    """An operator exponential produced non-finite entries."""


class MeasureError(AffineHSError):
    """A jump measure violates its structural invariants."""


class QuadratureError(AffineHSError):
    """Adaptive quadrature against a radial density did not converge."""

    def __init__(self, message, ray_index=None):
        super().__init__(message)
        self.ray_index = ray_index


class ParameterFileError(AffineHSError):
    """A parameter file could not be parsed or validated."""


class RiccatiSolverError(AffineHSError):
    """The cone-aware ODE solver failed (stiffness, cone breach, growth bound)."""


class CascadeError(AffineHSError):
    """Truncation-cascade monotonicity was violated beyond tolerance."""


class SimulationError(AffineHSError):
    """Path simulation failed (a non-finite jump clock, bad inputs)."""
