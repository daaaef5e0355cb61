"""Exception types, and the setting checks that raise them, shared across the toolkit.

Every error raised by the library derives from :class:`CdsProxyError` so
callers (in particular the CLI) can catch one base class and report a
structured failure. There is one class per kind of failure:

- ``BadConfig``: a setting out of its documented range (generator settings,
  non-integral or out-of-range counts, sizes and seeds, a non-real or
  out-of-range bandwidth, kernel scale or factor loading, classifier labels,
  category fields) or an unknown setting enum value.
- ``TooFewSamples``: an estimate was given fewer rows than it needs
  (sample covariance and standardiser, the imputation regression, a QDA
  class, a fit on zero rows, a bucket or regression without records,
  correlations).
- ``EmptyClass``: a class the method needs has no rows (a fold plan or
  class prior over an empty class, a two-class fit given one class).
- ``NotPositiveDefinite``: a matrix that must be positive definite is not;
  the message names it (a covariance, a Hessian, a design, an SVM system).
- ``DimensionMismatch`` and ``NotSymmetric``: an operand of the wrong
  shape, or a matrix argument that is not symmetric.
- ``NoConvergence``: an iterative routine hit its cap before tolerance.
- ``SchemaViolation``: a panel, dataset or query rows break their schema.
- ``RangeViolation``: a panel value or spread outside its admissible range.
- ``MissingFiveYearRate``: the five-year rate is missing where it is needed.
- ``UnknownCategoryLevel``: a category level absent at fit time.
- ``NegativeGain``: a tree split's score fell below zero.
- ``FitFailure``: a per-fold fit failed; wraps the cause.
- ``MissingCell``: a ranking over an incomplete grid of results.
"""
import enum
import math
import numbers


class CdsProxyError(Exception):
    """Base class for all toolkit errors."""


class BadConfig(CdsProxyError):
    """A configuration value is out of its documented range."""


class TooFewSamples(CdsProxyError):
    """An estimate was given fewer rows than it needs."""


class EmptyClass(CdsProxyError):
    """A class that the method needs has no samples."""


class NotPositiveDefinite(CdsProxyError):
    """A matrix that must be positive definite is not."""


class DimensionMismatch(CdsProxyError):
    """Operands disagree on dimensionality."""


class NotSymmetric(CdsProxyError):
    """A symmetric matrix argument was not symmetric."""


class NoConvergence(CdsProxyError):
    """An iterative routine hit its cap before reaching tolerance."""


class SchemaViolation(CdsProxyError):
    """A panel, a dataset or query rows do not match their declared schema."""


class RangeViolation(CdsProxyError):
    """A panel value lies outside its admissible range."""


class MissingFiveYearRate(CdsProxyError):
    """A feature selection needs the five-year rate but some values are missing."""


class UnknownCategoryLevel(CdsProxyError):
    """Prediction was requested for a category level absent at fit time."""


class NegativeGain(CdsProxyError):
    """A tree split's score fell below zero during growth."""


class FitFailure(CdsProxyError):
    """A per-fold fit failed; carries the fold index in its message."""


class MissingCell(CdsProxyError):
    """A ranking was requested from an incomplete grid of results."""


def _reject_unknown(cls, value):
    raise BadConfig(f"unknown {cls.__name__} {value!r}; "
                    f"known values: {', '.join(member.value for member in cls)}")


class Setting(str, enum.Enum):
    """Base of the setting enums: an unknown value raises BadConfig."""

    _missing_ = classmethod(_reject_unknown)


def positive_integer(name: str, value) -> int:
    """A count setting as an int; BadConfig unless a finite integral number >= 1."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and 1 <= value < math.inf and value == int(value)):
        raise BadConfig(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def non_negative_integer(name: str, value) -> int:
    """A seed as an int; BadConfig unless a finite integral number >= 0."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and 0 <= value < math.inf and value == int(value)):
        raise BadConfig(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def real_number(name: str, value, low: float, high: float = math.inf,
                include_low: bool = False) -> float:
    """A real setting as a float; BadConfig unless a number, not bool, in the
    interval from low (open unless include_low) to high (open)."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and low <= value < high and (include_low or value > low)):
        interval = f"{'[' if include_low else '('}{low:g}, {high:g})"
        raise BadConfig(f"{name} must be a real number in {interval}, got {value!r}")
    return float(value)
