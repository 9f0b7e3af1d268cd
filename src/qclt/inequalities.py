"""Numerical verification of the dyadic chaining and domination machinery.

On a finite chain every quantity of the form ``E max_k (...)^2`` over the
pair ``(xi_0, xi_1)`` is a finite weighted maximum (the pair law has at most
N^2 atoms), so the maximal inequalities are checked exactly, without
simulation.  Monte Carlo enters only for externally supplied sample
families in the chaining check, whose bound holds path by path and so under
a sample's empirical law too: every chaining verdict allows only roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels_py import dyadic_level, dyadic_moments, moment_sums
from .chain import FiniteChain, Observable, pair_difference, pair_law, partial_sums
from .errors import (
    BadIndexOrder,
    BadLength,
    CondViolated,
    GridTouchesSingularity,
    NonFiniteValue,
    NotReversible,
)
from .spectral import SpectralMeasure, _power_block_sum, spectral_integral, spectral_measure

COND_RTOL = 1e-9
CHAIN_RTOL = 1e-12
GRID_MARGIN = 1e-8
ENVELOPE_FLOOR = 1e-3
INCREMENT_FACTOR = math.pi ** 2 / 6.0    # sum_d 1/(d+1)^2


def _check_weights(probs, atoms: int) -> None:
    # the one rule for the atom weights of a finite law: a 1-d float64 array
    # of `atoms` finite, nonnegative weights with a total within 1e-12 of 1
    if not (isinstance(probs, np.ndarray) and probs.dtype == np.float64
            and probs.shape == (atoms,)):
        raise BadLength(f"atom weights must be a 1-d float64 array of one per atom ({atoms})")
    if not np.all(np.isfinite(probs)):
        raise NonFiniteValue("atom weights contain NaN or infinite entries")
    if np.any(probs < 0):
        raise BadLength("atom weights must be nonnegative")
    if not abs(probs.sum() - 1.0) <= 1e-12:
        raise BadLength("atom weights must have a total within 1e-12 of 1")


# ---------------------------------------------------------------------------
# chaining maximal inequality

@dataclass(frozen=True)
class DyadicFamily:
    """Random variables ``T_0 .. T_{2^d}`` given by samples or a finite law.

    ``table`` holds the values ``T_k`` as float64, in any layout: one row
    per sample path or atom and ``2^d + 1`` columns, which fix the level
    ``d``.
    ``probs`` holds the atom weights of an exact family: a 1-d float64
    array of one finite, nonnegative weight per row, with a total within
    1e-12 of 1 (:meth:`from_exact` normalises them).  It is None for a
    sampled family, whose paths weigh ``1/paths`` each.
    """

    table: np.ndarray
    probs: np.ndarray | None = None

    @property
    def d(self) -> int:
        return dyadic_level(self.table.shape[1])

    def __post_init__(self):
        table = self.table
        if (not isinstance(table, np.ndarray) or table.dtype != np.float64 or table.ndim != 2
                or table.shape[0] == 0):
            raise BadLength("a dyadic family needs a 2-d float64 table with at least one row")
        dyadic_level(table.shape[1])
        # the kernel's max/min and numpy's disagree on NaN, so none may reach
        # them; any NaN or infinity reaches the table's min or max, and
        # checking those two builds no table-sized mask
        if not (math.isfinite(table.min()) and math.isfinite(table.max())):
            raise NonFiniteValue("a dyadic family's table contains NaN or infinite entries")
        if self.probs is not None:
            _check_weights(self.probs, table.shape[0])

    @classmethod
    def from_samples(cls, samples) -> "DyadicFamily":
        """Sample paths, one per row of ``samples``."""
        return cls(table=np.ascontiguousarray(samples, dtype=np.float64))

    @classmethod
    def from_exact(cls, values, probs) -> "DyadicFamily":
        """A finite law: atom rows ``values`` with ``probs`` divided by their
        total where it is positive and finite."""
        values = np.ascontiguousarray(np.atleast_2d(values), dtype=np.float64)
        probs = np.asarray(probs, dtype=np.float64)
        total = probs.sum()
        return cls(table=values, probs=probs / total if 0 < total < math.inf else probs)

    @classmethod
    def deterministic(cls, sequence) -> "DyadicFamily":
        return cls.from_exact(np.asarray(sequence, dtype=np.float64)[None, :], [1.0])


@dataclass(frozen=True)
class ChainingCheck:
    lhs: float        # || max_k |T_k - T_0| ||_2
    rhs: float        # dyadic sum of square-rooted increment moments

    @property
    def ok(self) -> bool:
        # relative, so a table scaled by a power of two keeps its verdict
        return self.lhs <= self.rhs * (1.0 + CHAIN_RTOL)


def chaining_maximal_check(family: DyadicFamily) -> ChainingCheck:
    """Check ``||max_k |T_k - T_0|||_2 <= sum_r sqrt(sum_m E(block increment)^2)``.

    The right side sums, over dyadic scales ``r = 0..d``, the square roots
    of the summed second moments of the ``2^{d-r}`` increments at scale
    ``2^r``.  Writing ``k`` in binary bounds ``|T_k - T_0|`` path by path, so
    by Minkowski the inequality holds under every law, a sample's included;
    the verdict allows ``rhs`` a relative ``1e-12`` of roundoff.  A sampled
    family's sums are :func:`qclt._kernels_py.moment_sums`, so its table
    gets the verdict of the same family drawn by
    :func:`qclt.kernels.drawn_dyadic_moments` bit for bit.
    """
    sup, acc = dyadic_moments(family.table)
    if family.probs is None:
        return chaining_verdict(moment_sums(sup, acc), sup.shape[0])
    # one weighted sum for both sides, so the d = 0 equality lhs == rhs is exact
    probs = family.probs
    return chaining_verdict([float(scale @ probs) for scale in acc] + [float((sup * sup) @ probs)])


def chaining_verdict(sums, rows: int | None = None) -> ChainingCheck:
    """The chaining check from a family's moment sums.

    ``sums`` holds, for each scale ``r = 0..d``, the sum over rows of the
    squared increments at scale ``2^r``, then the sum of the squared sups
    ``max_k |T_k - T_0|^2``: the ``d + 2`` sums of
    :func:`qclt.kernels.drawn_dyadic_moments`.  A sampled family gives its
    ``rows``, which weigh ``1/rows`` each; an exact family's sums are
    weighted by its atom probabilities.
    """
    *scales, sup_msq = sums if rows is None else (s / rows for s in sums)
    rhs = 0.0
    for scale in scales:
        rhs += math.sqrt(scale)
    return ChainingCheck(lhs=math.sqrt(sup_msq), rhs=rhs)


# ---------------------------------------------------------------------------
# dominated dyadic convergence

def builtin_block_weight(n: int, t: np.ndarray) -> np.ndarray:
    """``sqrt(1 - t^2) * (t^{2^n} + ... + t^{2^{n+1}-1})``, nonnegative on [-1, 1]."""
    t = np.asarray(t, dtype=np.float64)
    return np.sqrt(np.maximum(1.0 - t * t, 0.0)) * _power_block_sum(t, 2 ** n, 2 ** (n + 1))


@dataclass(frozen=True)
class ExactSequence:
    """A sequence ``W_1..W_M`` of functions on a common finite law.

    ``values[n-1, k]`` is the value of ``W_n`` at atom ``k`` with weight
    ``probs[k]``; every joint moment of the sequence is a finite sum.
    ``probs`` is a 1-d float64 array of one finite, nonnegative weight per
    column of ``values``, with a total within 1e-12 of 1.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = self.values
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and values.ndim == 2):
            raise BadLength("a sequence's values must be a 2-d float64 array, one column per atom")
        _check_weights(self.probs, values.shape[1])

    @property
    def m_max(self) -> int:
        return self.values.shape[0]

    def moment_gap(self, m: int, n: int) -> float:
        dv = self.values[n - 1] - self.values[m - 1]
        return float(np.sum(self.probs * dv * dv))

    def msq(self, n: int) -> float:
        v = self.values[n - 1]
        return float(np.sum(self.probs * v * v))

    def max_msq(self) -> float:
        sup = np.max(np.abs(self.values), axis=0)
        return float(np.sum(self.probs * sup * sup))


def kernel_dyadic_sequence(chain: FiniteChain, f: Observable, M: int) -> ExactSequence:
    """``W_n = H_{2^{n+1}}(xi_0, xi_1)`` for ``n = 1..M`` on the pair space.

    This pairing makes the dominated-convergence hypothesis an exact
    identity for the built-in block weights and the observable's spectral
    measure (the block ``g_{m+1} + ... + g_n`` covers exponents
    ``2^{m+1} .. 2^{n+1}-1``, matching the horizon gap of ``W``).
    """
    v, qv = partial_sums(chain, f.values, 2 ** (M + 1))
    ends = 2 ** np.arange(2, M + 2) - 1       # row n-1 of each sum is horizon n
    v, qv = v[ends], qv[ends]
    vals = pair_difference(v, qv).reshape(-1, chain.n_states ** 2)
    pair_probs = pair_law(chain).reshape(-1)
    return ExactSequence(values=vals, probs=pair_probs)


@dataclass(frozen=True)
class DominationReport:
    cond_worst_slack: float    # min over pairs of (integral bound - moment)
    cond2_value: float         # truncated (sum (log n) g_n)^2 integral
    dyadic_bound_sum: float    # sum_d (d+1)^2 int (block sum)^2 dmu
    max_msq: float             # exact E[max_{n<=M} W_n^2]
    max_bound: float           # 3 (E W_1^2 + increment_bound + dyadic_bound_sum)

    @property
    def increment_bound(self) -> float:
        return INCREMENT_FACTOR * self.dyadic_bound_sum

    @property
    def ok(self) -> bool:
        return self.max_msq <= self.max_bound + COND_RTOL * (1.0 + self.max_bound)


def dyadic_domination_check(measure: SpectralMeasure, seq: ExactSequence) -> DominationReport:
    """Verify domination of a sequence by a real spectral measure ``mu`` and
    the block weights ``g_n`` of :func:`builtin_block_weight`.

    Checks, for every ``1 <= m < n <= M = seq.m_max`` (at least 2), that
    ``E (W_n - W_m)^2`` is at most ``int (g_{m+1} + ... + g_n)^2 dmu``
    (raising :class:`CondViolated` on the first failing pair), then
    evaluates the truncated weighted-series integral, the dyadic block
    bounds, and the finite-scale maximal bound
    ``E max_{n<=M} W_n^2 <= 3 (E W_1^2 + increment bound + block bound)``.
    A complex measure raises :class:`NotReversible`: the weights live on
    ``[-1, 1]``.
    """
    if not measure.is_real:
        raise NotReversible("the block weights live on [-1, 1]")
    M = seq.m_max
    if M < 2:
        raise BadIndexOrder(f"need a sequence of at least 2 terms, got {M}")
    t, mass = measure.locations, measure.masses
    gs = np.array([builtin_block_weight(n, t) for n in range(1, M + 1)])
    g_cum = np.vstack([np.zeros_like(t), np.cumsum(gs, axis=0)])  # g_1+..+g_n rows
    worst = math.inf
    for m in range(1, M):
        for n in range(m + 1, M + 1):
            block = g_cum[n] - g_cum[m]
            bound = float(np.sum(block * block * mass))
            moment = seq.moment_gap(m, n)
            slack = bound - moment
            worst = min(worst, slack)
            if moment > bound + COND_RTOL * (1.0 + abs(bound)):
                raise CondViolated(
                    f"pair (m={m}, n={n}): moment {moment!r} exceeds bound {bound!r}"
                )
    log_weighted = np.zeros_like(t)
    for n in range(2, M + 1):               # log(1) = 0 drops the first term
        log_weighted += math.log(n) * gs[n - 1]
    cond2 = float(np.sum(log_weighted * log_weighted * mass))
    dyadic_sum = 0.0
    d = 0
    while 2 ** (d + 1) <= M:
        block = g_cum[2 ** (d + 1)] - g_cum[2 ** d]
        dyadic_sum += (d + 1) ** 2 * float(np.sum(block * block * mass))
        d += 1
    max_bound = 3.0 * (seq.msq(1) + INCREMENT_FACTOR * dyadic_sum + dyadic_sum)
    return DominationReport(cond_worst_slack=worst, cond2_value=cond2,
                            dyadic_bound_sum=dyadic_sum, max_msq=seq.max_msq(),
                            max_bound=max_bound)


# ---------------------------------------------------------------------------
# dyadic block maxima of difference kernels

def dyadic_block_maxsum(chain: FiniteChain, f: Observable, D: int):
    """Exact ``sum_{d<=D} E max_{2^d < n <= 2^{d+1}} (H_{2n} - H_{2^{d+1}})^2``
    against its spectral bound ``int (1+t)/(1-t) dpartial``.

    Each horizon kernel is a function on the N^2-point pair space, so the
    block maxima are finite weighted maxima.  Returns
    ``(lhs_sum, rhs_bound)``; the left side is nondecreasing in ``D`` and
    never exceeds the right side.
    """
    if not chain.flags.reversible:
        raise NotReversible("the block-maximum bound is a reversible-chain statement")
    if D < 0 or D > 12:
        raise BadIndexOrder(f"need 0 <= D <= 12, got D={D}")
    measure = spectral_measure(chain, f)
    rhs = spectral_integral(measure, "sigma_sq")
    pair_w = pair_law(chain)
    # partial Poisson sums for horizons 1..2^(D+2), reused across blocks;
    # row n-1 holds horizon n
    v, qv = partial_sums(chain, f.values, 2 ** (D + 2))
    lhs = 0.0
    for d in range(D + 1):
        ref = 2 ** (d + 1) - 1
        rows = 2 * np.arange(2 ** d + 1, 2 ** (d + 1) + 1) - 1
        dv = v[rows] - v[ref]
        qdv = qv[rows] - qv[ref]
        # per_pair[x, y] = max_n (dv[n, y] - qdv[n, x])^2, one start x at a time
        per_pair = np.array([np.max((dv - qdv[:, [x]]) ** 2, axis=0)
                             for x in range(chain.n_states)])
        lhs += float(np.sum(pair_w * per_pair))
    return lhs, rhs


# ---------------------------------------------------------------------------
# log-weighted envelope of the dyadic power series

def _tail_bound(abs_t: float, n_max: int) -> float:
    # certified tail of sum_{n>n_max} log(n) * |t|^{2^n} / (1-|t|) using
    # log n <= n and |t|^{2^n} <= R^{n-n_max} with R = |t|^{2^{n_max+1}}
    r = abs_t ** (2 ** (n_max + 1))
    if r >= 1.0:
        return math.inf
    if r == 0.0:
        return 0.0
    geom = r * ((n_max + 1) / (1.0 - r) + r / (1.0 - r) ** 2)
    return geom / (1.0 - abs_t)


def log_envelope_ratio(t_grid, n_max: int):
    """Worst ratio of the log-weighted block series to its closed envelope.

    For each grid point ``t`` in (-1, 1) the series
    ``sum_n log(n) (t^{2^n} + ... + t^{2^{n+1}-1})`` is truncated at
    ``n_max`` and padded with a certified geometric tail bound, then divided
    by ``(1 + t) max(log+ |log(1 - t^2)|, 1e-3) / (1 - t^2)``.  Returns
    ``(worst_ratio, location)``; a finite ratio that is stable under
    doubling ``n_max`` exhibits the envelope constant empirically.
    """
    t_arr = np.asarray(t_grid, dtype=np.float64)
    if t_arr.size == 0:
        raise GridTouchesSingularity("empty grid")
    if np.max(np.abs(t_arr)) > 1.0 - GRID_MARGIN:
        raise GridTouchesSingularity("grid points must keep 1e-8 away from +-1")
    worst, where = -math.inf, float(t_arr.flat[0])
    for t in np.ravel(t_arr):
        series = 0.0
        p = t * t                      # t^(2^n) starting at n = 1
        for n in range(1, n_max + 1):
            series += math.log(n) * (p - p * p) / (1.0 - t)
            p = p * p
        total = series + _tail_bound(abs(t), n_max)
        one_mt2 = 1.0 - t * t
        log_term = abs(math.log(one_mt2))
        envelope = (1.0 + t) * max(math.log(log_term) if log_term > 1 else 0.0,
                                   ENVELOPE_FLOOR) / one_mt2
        ratio = total / envelope
        if ratio > worst:
            worst, where = ratio, float(t)
    return worst, where
