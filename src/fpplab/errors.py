"""Exception types shared across the package."""


class FpplabError(Exception):
    """Base class for package errors."""


class SingularMarketError(FpplabError, ValueError):
    """Volatility matrix is rank-deficient beyond the pseudoinverse tolerance."""


class StrategyEvaluationError(FpplabError, RuntimeError):
    """An allocation schedule is non-finite or of the wrong shape."""


class NoExactSolutionError(FpplabError, ValueError):
    """The requested allocation target is not in the column space of sigma.

    Carries the range-space projection residual in ``residual``.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class FactorDegeneracyError(FpplabError, ValueError):
    """rho'rho is singular, so the factor-generated loading is undefined."""


class InvalidExponentError(FpplabError, ValueError):
    """Integrability exponents violate their constraints (v, u, p_i > 1, Holder sum < 1)."""


class ConfigError(FpplabError, ValueError):
    """Configuration file is malformed; message carries the offending key path or line."""
