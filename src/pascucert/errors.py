"""Exception hierarchy shared by all pascucert modules.  The classes that
only the reference routes raise live in pascucert.oracles."""


class PascucertError(Exception):
    """Base class for all library errors."""


class NoRealRoots(PascucertError):
    """The (alpha, gamma) pair admits no nonnegative real (mu, nu) split."""


class DomainError(PascucertError):
    """An argument lies outside the domain of the requested operation."""


class QuadratureFailure(PascucertError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CriticalPoint(PascucertError):
    """Lambda underflows or lambda' vanishes where a ratio is required."""


class PoleError(PascucertError):
    """Evaluation too close to the pole of a rational kernel."""


class RepresentationMismatch(PascucertError):
    """Two independent routes to the same quantity disagree."""


class ZeroDenominator(PascucertError):
    """The combination K(z) vanishes on the evaluation grid."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class NotApplicable(PascucertError):
    """The requested check is not defined for these parameters (e.g. xi=0)."""


class ConfigError(PascucertError):
    """Malformed run configuration or kernel grammar."""
