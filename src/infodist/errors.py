"""Semantic exception taxonomy shared by every infodist module.

CLI error output mirrors these class names verbatim, so renaming one is a
breaking change for scripts parsing stderr.
"""


class InfoDistError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeMismatch(InfoDistError, ValueError):
    """Tensor/matrix dimensions are inconsistent with the operation."""


class NegativeMass(InfoDistError, ValueError):
    """A probability entry is below -1e-12."""


class NotNormalized(InfoDistError, ValueError):
    """A probability tensor or stochastic row does not sum to 1 within tolerance."""


class ShrinkNotAllowed(InfoDistError, ValueError):
    """Signal embedding was asked to reduce a signal space."""


class ZeroMassCondition(InfoDistError, ValueError):
    """Conditioning cell has probability mass below 1e-12."""


class InvalidParameters(InfoDistError, ValueError):
    """Constructor parameters outside their documented range."""


class InvalidSymbol(InfoDistError, ValueError):
    """A chain symbol lies outside {1, ..., N}."""


class BudgetExceeded(InfoDistError):
    """An enumeration or tensor build would exceed the configured budget."""


class NumericalFailure(InfoDistError):
    """An LP solve or dual extraction failed its residual/recheck gates."""


class HypothesisViolated(InfoDistError):
    """Structures fed to a verification harness do not satisfy its hypothesis."""
