"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`CdsProxyError` so
callers (in particular the CLI) can catch one base class and report a
structured failure.
"""


class CdsProxyError(Exception):
    """Base class for all toolkit errors."""


# --- numerics ---------------------------------------------------------------

class FewerThanTwoSamples(CdsProxyError):
    """A sample statistic needing n >= 2 was asked of fewer rows."""


class DimensionMismatch(CdsProxyError):
    """Operands disagree on dimensionality."""


class NotSymmetric(CdsProxyError):
    """A symmetric matrix argument was not symmetric."""


class NoConvergence(CdsProxyError):
    """An iterative routine hit its cap before reaching tolerance."""


class NotPositiveDefinite(CdsProxyError):
    """A Cholesky pivot was non-positive."""


class BadComponentCount(CdsProxyError):
    """A principal-component count outside 1..d was requested."""


# --- panel / dataset --------------------------------------------------------

class SchemaViolation(CdsProxyError):
    """A CSV file does not match the declared panel schema."""


class RangeViolation(CdsProxyError):
    """A panel value lies outside its admissible range."""


class MissingFiveYearRate(CdsProxyError):
    """A feature selection needs the five-year rate but some values are missing."""


class InsufficientObservedRates(CdsProxyError):
    """Too few observed rates to fit the imputation regression."""


class SingularDesign(CdsProxyError):
    """A regression design matrix is singular."""


# --- classifiers ------------------------------------------------------------

class EmptyTrainingSet(CdsProxyError):
    """A classifier was fitted on zero samples."""


class SingleClassInput(CdsProxyError):
    """A binary fit received samples of one class only."""


class ClassTooSmall(CdsProxyError):
    """A class has too few samples for the requested estimate."""


class SingularCovariance(CdsProxyError):
    """A covariance matrix is singular beyond what the ridge repairs."""


class NonpositiveBandwidth(CdsProxyError):
    """A kernel bandwidth must be strictly positive."""


class BadK(CdsProxyError):
    """A neighbour count or fold count is out of range."""


class NegativeGain(CdsProxyError):
    """A tree split's purity gain fell below zero during growth."""


# --- evaluation -------------------------------------------------------------

class EmptyClass(CdsProxyError):
    """A dataset class has no samples."""


class FitFailure(CdsProxyError):
    """A per-fold fit failed; carries the fold index in its message."""


class MissingCell(CdsProxyError):
    """A ranking was requested from an incomplete grid of results."""


# --- baselines --------------------------------------------------------------

class TooFewSamples(CdsProxyError):
    """A regression has fewer rows than coefficients."""


class EmptyBucket(CdsProxyError):
    """A bucket statistic was requested from zero spreads."""


class RankDeficientDesign(CdsProxyError):
    """The dummy-coded design matrix is rank deficient."""


class UnknownCategoryLevel(CdsProxyError):
    """Prediction was requested for a category level absent at fit time."""


# --- datagen / cli ----------------------------------------------------------

class BadConfig(CdsProxyError):
    """A configuration value is out of its documented range."""
