"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical guard trips (anything in NUMERICAL_GUARDS) with 3, everything
else with 4.
"""


class HyperwaveError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(HyperwaveError):
    pass


class InvalidDataError(HyperwaveError):
    pass


class OutOfChartError(HyperwaveError):
    """Requested point lies outside the (s, y) chart."""


class InterpolationDomainError(HyperwaveError):
    """A sampled function was queried outside its stored domain."""


class ResonanceError(HyperwaveError):
    """Indicial resonance: -lambda is a nonnegative integer."""


class StiffFailureError(HyperwaveError):
    """ODE integrator failed to reach the requested endpoint."""


class InconsistencyError(HyperwaveError):
    """A quantity that must be constant showed significant variation."""


class ContourAccuracyError(HyperwaveError):
    """Winding number did not stabilize under quadrature refinement, or a
    projection contour runs too close to an eigenvalue."""


class NearEigenvalueError(HyperwaveError):
    """Resolvent requested too close to a spectral point."""


class DivergenceError(HyperwaveError):
    """Trajectory norm exceeded the semigroup growth bound."""


class SpectralAssumptionError(HyperwaveError):
    """An eigenvalue sits on (or too close to) the imaginary axis."""


class ContractionFailureError(HyperwaveError):
    """Picard iteration stopped contracting; data too large."""


class BlowUpError(HyperwaveError):
    pass


class DomainError(HyperwaveError):
    """The (t, r) computational domain cannot cover the requested slice."""


class ConfigError(HyperwaveError):
    pass


NUMERICAL_GUARDS = (
    ResonanceError,
    StiffFailureError,
    InconsistencyError,
    ContourAccuracyError,
    NearEigenvalueError,
    DivergenceError,
    SpectralAssumptionError,
    ContractionFailureError,
    BlowUpError,
    DomainError,
)
