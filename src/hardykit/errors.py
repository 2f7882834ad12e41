"""Exception types shared across the toolkit."""


class HardyKitError(Exception):
    """Base class for all toolkit errors."""


class NonPositiveRadius(HardyKitError, ValueError):
    """A radial evaluation was requested at r <= 0."""


class InvalidParams(HardyKitError, ValueError):
    """Weight-family parameters are inconsistent with the requested kind."""


class DivergentIntegral(HardyKitError, ArithmeticError):
    """Adaptive refinement toward r = 0 failed to converge (non-integrable)."""


class QuadratureFailure(HardyKitError, ArithmeticError):
    """The adaptive quadrature could not reach the requested tolerance."""


class ProfileUndefined(HardyKitError, ValueError):
    """The weight is not evaluable near the origin."""


class NoConvergence(HardyKitError, ArithmeticError):
    """An eigen-solve failed: the eigenpair residual stayed above tolerance,
    a LAPACK routine returned a nonzero info, or its input was not finite."""


class BadBracket(HardyKitError, ValueError):
    """Bisection endpoints do not produce differing verdicts."""

    def __init__(self, message: str, verdicts: tuple = ()):
        super().__init__(message)
        self.verdicts = verdicts  # (at c_lo, at c_hi)


class InadmissibleGamma(HardyKitError, ValueError):
    """Test-function exponent outside the admissible interval."""


class NonIntegrableTestFunction(HardyKitError, ArithmeticError):
    """A sharpness test function is not square integrable against the weight,
    or its cap leaves the double range."""


class UnsupportedFunction(HardyKitError, ValueError):
    """Input function violates the support requirements of the operation."""


class SchemeDivergence(HardyKitError, ArithmeticError):
    """A linear solve inside the time stepper produced non-finite values."""


class NegativeDatum(HardyKitError, ValueError):
    """The parabolic initial datum must be nonnegative."""


class DegenerateSeries(HardyKitError, ValueError):
    """A norm time series contains nonpositive samples or too few of them."""


class ConfigError(HardyKitError, ValueError):
    """Malformed run configuration."""
