"""Exception types shared across the package."""


class KantCheckError(Exception):
    """Base class for every error raised by this package."""


class HermiticityError(KantCheckError):
    """Input matrix is not Hermitian within tolerance."""


class ConvergenceError(KantCheckError):
    """The eigensolver failed to converge."""


class DomainError(KantCheckError):
    """A scalar function is undefined or non-finite where it is needed."""


class HypothesisError(KantCheckError):
    """An instance does not satisfy the hypotheses of the requested check."""


class DegenerateExponentError(KantCheckError):
    """A chaotic exponent sum p + r too close to 0, where r/(p+r) degenerates."""


class GenerationError(KantCheckError):
    """A generator could not verify its own certificate."""


class ParameterError(KantCheckError):
    """A parameter lies outside the supported range."""


class ConfigError(KantCheckError):
    """Invalid campaign configuration."""
