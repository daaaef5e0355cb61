"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`CdsProxyError` so
callers (in particular the CLI) can catch one base class and report a
structured failure. There is one class per kind of failure:

- ``BadConfig``: a setting outside its documented range (generator
  settings, neighbour, fold and component counts, kernel bandwidth and
  scale, tree and network sizes, classifier labels, category fields).
- ``TooFewSamples``: an estimate was given fewer rows than it needs
  (sample covariance and standardiser, the imputation regression, a QDA
  class, a fit on zero rows, a bucket or regression without records,
  correlations).
- ``EmptyClass``: a class the method needs has no rows (a fold plan or
  class prior over an empty class, a two-class fit given one class).
- ``NotPositiveDefinite``: a matrix that must be positive definite is
  not (a Cholesky pivot, a discriminant or Mahalanobis covariance, the
  logistic Hessian, the imputation and cross-sectional designs).
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
