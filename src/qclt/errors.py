"""Exception types raised by the library.

Validation failures subclass :class:`QcltError` so callers (and the CLI) can
distinguish bad inputs from genuine bugs.
"""


class QcltError(ValueError):
    """Base class for all validation and computation errors."""


class BadFile(QcltError):
    """A file cannot be opened, read or written, or its JSON does not parse."""


# -- chain construction ------------------------------------------------------

class NonStochasticRow(QcltError):
    """A kernel row sum deviates from 1 by more than the load tolerance."""


class NegativeEntry(QcltError):
    """A kernel entry is negative."""


class NonFiniteValue(QcltError):
    """A kernel, stationary law or observable holds a NaN or an infinity."""


class SingularStationary(QcltError):
    """The stationary-law solve failed; the chain is reducible or ill posed."""


class DimensionMismatch(QcltError):
    """Vector or matrix sizes do not match the chain's state space, or a
    spectral measure's locations do not match its masses."""


class DuplicateLabel(QcltError):
    """Two states share a label, so a label no longer names one state."""


class NotMeanZero(QcltError):
    """An observable has nonzero stationary mean."""


class BadTolerance(QcltError):
    """A classification tolerance is NaN, infinite or negative."""


# -- spectral ----------------------------------------------------------------

class NotReversible(QcltError):
    """Operation requires a reversible chain."""


class SpectralDefect(QcltError):
    """An eigendecomposition failed or does not reproduce the spectral mass.

    Raised when LAPACK does not converge on a chain's symmetrized kernel,
    or when a spectral measure's total mass, or the Parseval sum of a group
    walk's Fourier coefficients, misses ``<f, f>_pi``.
    """


class DivergentIntegral(QcltError):
    """A spectral atom with non-negligible mass sits on the integrand's pole."""


class BadIndexOrder(QcltError):
    """Horizon indices must satisfy m < n."""


# -- martingale scheme -------------------------------------------------------

class NotIrreducible(QcltError):
    """Operation requires an irreducible chain."""


class NearSingular(QcltError):
    """An eigenvalue on the mean-zero subspace is too close to 1 to solve."""


class RateNotContractive(QcltError):
    """The mean-zero contraction rate is not below 1 (e.g. a periodic chain)."""


# -- simulation --------------------------------------------------------------

class DegenerateSigma(QcltError):
    """The limit variance is zero; a scaled-sum distribution test is meaningless."""


class EmptySample(QcltError):
    """A sample statistic was requested on an empty sample."""


# -- group walks and torus ---------------------------------------------------

class BadProbabilities(QcltError):
    """Step-measure atoms are not a probability vector."""


class EmptySupport(QcltError):
    """The step measure has no atoms."""


class GroupTooLarge(QcltError):
    """A group has more elements or cyclic factors than a walk is built for."""


class NotErgodic(QcltError):
    """The walk's support generates a proper subgroup; condition sums diverge."""


class RationalAlpha(QcltError):
    """alpha is numerically a ratio of small integers, or n * alpha is an integer in float64."""


# -- inequality verification -------------------------------------------------

class BadLength(QcltError):
    """A dyadic family or exact sequence is malformed: a table that is not
    2-d float64 with rows and 2^d + 1 columns, or atom weights that are not
    a 1-d float64 array of one nonnegative weight per atom with a total
    within 1e-12 of 1."""


class CondViolated(QcltError):
    """The supplied measure/function family fails to dominate the sequence."""


class GridTouchesSingularity(QcltError):
    """An evaluation grid point is too close to the endpoints of (-1, 1)."""
