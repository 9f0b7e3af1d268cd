"""Martingale approximation of additive functionals on finite chains.

The Poisson equation ``(I - Q) g = f`` yields the martingale-difference
kernel ``H(x, y) = g(y) - (Qg)(x)``; the martingale ``M_n`` built from it
approximates ``S_n`` with the exact telescoping residual
``S_n - M_n = (Qg)(xi_0) - (Qg)(xi_n)``.  ``H`` is fixed by the two
vectors ``g`` and ``Qg``, so a :class:`MartingaleScheme` stores only those
and builds ``H`` when it is read, through :func:`qclt.chain.pair_difference`
as every pair-space kernel here is.  On a finite state space every residual
moment is a finite weighted sum, so the diagnostics below are exact (no
simulation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    MEAN_ZERO_TOL,
    FiniteChain,
    Observable,
    kernel_powers,
    pair_difference,
    pair_law,
    partial_sums,
)
from .errors import (
    BadIndexOrder,
    NearSingular,
    NonFiniteValue,
    NotIrreducible,
    NotMeanZero,
    RateNotContractive,
)
from .spectral import chain_spectrum

POISSON_RESIDUAL_RTOL = 1e-10
UNIT_EIGENVALUE_TOL = 1e-12


@dataclass(frozen=True)
class MartingaleScheme:
    """Poisson solution and the limit martingale-difference kernel.

    Attributes
    ----------
    g : ndarray
        Solution of ``(I - Q) g = f`` with stationary mean zero.
    qg : ndarray
        ``Q g``, the one-step conditional mean of ``g``.
    sigma_sq : float
        ``sum_x pi(x) sum_y Q(x, y) H(x, y)^2``, the limit variance.
    rate : float
        Largest eigenvalue modulus of the kernel restricted to mean-zero
        functions; the geometric contraction rate used for tail bounds.
    """

    g: np.ndarray
    qg: np.ndarray
    sigma_sq: float
    rate: float

    @property
    def diff_kernel(self) -> np.ndarray:
        """``H[x, y] = g(y) - (Qg)(x)``, built on each access; conditionally
        centered in y under every row of the kernel."""
        return pair_difference(self.g, self.qg)


@dataclass(frozen=True)
class ApproximationDiagnostics:
    """Exact fixed-start diagnostics at one (start state, horizon)."""

    start_state: int
    n: int
    cond_mean: float        # E^x(S_n)
    residual_msq: float     # E^x (S_n - M_n)^2
    asdl_sup: float         # max over starts of |E^x(S_n)| / sqrt(n)

    @property
    def residual_over_n(self) -> float:
        return self.residual_msq / self.n


@dataclass(frozen=True)
class SeriesReport:
    """Cumulative partial sums of the three summability diagnostics.

    ``projection_partial[k-1]`` is ``sum_{j<=k} (||Q^j f||^2 - ||Q^{j+1} f||^2)^{1/2}``,
    ``mixing_partial[k-1]`` is ``sum_{j<=k} ||Q^j f|| / sqrt(j)`` and
    ``resolvent_partial[k-1]`` accumulates
    ``(log log max(j, 3))^2 ||V_j f||^2 / j^2`` where ``V_j f`` is the
    partial Poisson sum.  The max(j, 3) guard keeps the inner logarithm
    positive and is reported as-is in CLI output.

    Decay: when the mean-zero rate of ``Q`` (second-largest eigenvalue
    modulus) is below 1, the projection and mixing terms decay geometrically
    at that rate.  The resolvent terms do not: ``||V_j f||^2`` tends to
    ``||(I - Q)^{-1} f||^2``, which is nonzero for every mean-zero
    ``f != 0``, so they decay only like
    ``(log log j)^2 / j^2``.  The resolvent series converges, but its
    increments stay polynomially large (about 2e-3 at ``j = 61`` on the
    two-state fixture with ``Qf = f/2``).
    """

    projection_partial: np.ndarray
    mixing_partial: np.ndarray
    resolvent_partial: np.ndarray


def _mean_zero_eigenvalues(chain: FiniteChain) -> np.ndarray:
    # Reversible chains reuse the cached spectrum less its unit eigenvalue;
    # otherwise deflate constants (Q - 1 pi^T), sending that eigenvalue to 0.
    if chain.flags.reversible:
        eigvals, _ = chain_spectrum(chain)
        return np.delete(eigvals, int(np.argmin(np.abs(eigvals - 1.0))))
    deflated = chain.kernel - np.outer(np.ones(chain.n_states), chain.stationary)
    return np.linalg.eigvals(deflated)


def poisson_solve(chain: FiniteChain, f: Observable) -> MartingaleScheme:
    """Solve the Poisson equation and assemble the martingale scheme.

    The solve augments ``I - Q`` with the rank-one term ``1 pi^T`` (the
    fundamental-matrix trick), which pins the stationary mean of ``g`` to
    zero and is nonsingular for irreducible chains.  A limit variance
    that is not finite raises :class:`NonFiniteValue`.
    """
    if not chain.flags.irreducible:
        raise NotIrreducible("the Poisson equation needs an irreducible chain")
    if abs(f.mean) > MEAN_ZERO_TOL:
        raise NotMeanZero(f"observable mean {f.mean!r} exceeds 1e-12")
    pi, q = chain.stationary, chain.kernel
    eigvals = _mean_zero_eigenvalues(chain)
    # an eigenvalue of modulus 1 on the mean-zero subspace (a periodic
    # chain) leaves the solve fine unless the eigenvalue is +1 itself
    if np.any(np.abs(eigvals - 1.0) <= UNIT_EIGENVALUE_TOL):
        raise NearSingular("an eigenvalue on the mean-zero subspace is within 1e-12 of 1")
    n = chain.n_states
    g = np.linalg.solve(np.eye(n) - q + np.outer(np.ones(n), pi), f.values)
    g = g - float(pi @ g)  # roundoff hygiene; the solve already centers g
    qg = q @ g
    residual = np.max(np.abs((g - qg) - f.values))
    scale = max(float(np.max(np.abs(f.values))), 1e-300)
    if residual > POISSON_RESIDUAL_RTOL * scale:
        raise NearSingular(f"Poisson residual {residual!r} exceeds 1e-10 relative")
    h = pair_difference(g, qg)
    # a NaN in g, which the residual test above lets through, reaches sigma_sq too
    with np.errstate(over="ignore"):
        sigma_sq = float(np.sum(pair_law(chain) * h * h))
    if not np.isfinite(sigma_sq):
        raise NonFiniteValue(f"limit variance {sigma_sq!r} is not finite")
    for arr in (g, qg):
        arr.flags.writeable = False
    return MartingaleScheme(g=g, qg=qg, sigma_sq=sigma_sq,
                            rate=float(np.max(np.abs(eigvals), initial=0.0)))


def truncated_scheme(chain: FiniteChain, f: Observable, n: int):
    """Partial Poisson sum ``V_n f = (I + Q + ... + Q^{n-1}) f`` and its
    horizon-n difference kernel ``H_n[x, y] = (V_n f)(y) - (Q V_n f)(x)``.

    Both ``V_n f`` and ``Q V_n f = Qf + ... + Q^n f`` are the last rows of
    :func:`qclt.chain.partial_sums`; for irreducible chains ``V_n f`` equals
    ``g - Q^n g`` up to roundoff.
    """
    if n < 1:
        raise BadIndexOrder(f"need n >= 1, got n={n}")
    v, qv = partial_sums(chain, f.values, n)
    return v[-1].copy(), pair_difference(v[-1], qv[-1])


def kernel_gap_msq_table(chain: FiniteChain, f: Observable, n_max: int) -> np.ndarray:
    """Exact stationary second moments ``E (H_n - H_m)(xi_0, xi_1)^2`` for
    all ``1 <= m < n <= n_max`` at once.

    The pair ``(xi_0, xi_1)`` carries the law ``pi(x) Q(x, y)``, so each
    moment is a finite weighted sum.  The horizon kernels are stacked over
    the pair space and the moments expand through their weighted Gram
    matrix.  Entry ``[m-1, n-1]`` holds the moment; the lower triangle and
    diagonal are zero.  It agrees with the spectral evaluation in
    :func:`qclt.spectral.kernel_gap_msq_spectral_table`.
    """
    if n_max < 2:
        raise BadIndexOrder(f"need n_max >= 2, got {n_max}")
    v, qv = partial_sums(chain, f.values, n_max)     # row n-1: V_n f, Q V_n f
    flat = pair_difference(v, qv).reshape(n_max, -1)
    pair_w = pair_law(chain).reshape(-1)
    gram = (flat * pair_w[None, :]) @ flat.T
    diag = np.diag(gram)
    table = diag[None, :] - 2.0 * gram + diag[:, None]
    return np.triu(table, k=1)


def tail_sup_deviation(chain: FiniteChain, scheme: MartingaleScheme, N: int) -> float:
    """Certified ``E[sup_{m>N} G_m(xi_0, xi_1)^2]`` where
    ``G_m(x, y) = (Q^{m+1} g)(x) - (Q^m g)(y)``.

    Enumerates ``m = N+1, N+2, ...`` keeping per-pair running maxima.  The
    kernel is an averaging operator, so ``e_m = 2 ||Q^m g||_inf`` bounds all
    later terms and is nonincreasing; enumeration stops once ``e_m^2`` can
    no longer raise any per-pair maximum by more than 1e-14.  Monotone
    nonincreasing in ``N`` and tends to 0 when the rate is below 1.
    """
    if N < 0:
        raise BadIndexOrder(f"need N >= 0, got N={N}")
    if scheme.rate >= 1.0 - UNIT_EIGENVALUE_TOL:
        raise RateNotContractive(
            f"mean-zero contraction rate {scheme.rate!r} is not below 1; "
            "the tail supremum does not vanish"
        )
    q = chain.kernel
    # Q^{N+1} g, advanced between two rows by kernel_powers' np.dot, so it is
    # that table's last row bit for bit without the table; once a product
    # returns its input's bits, every later power has them too
    qmg, spare = np.array(scheme.g, dtype=np.float64), np.empty(chain.n_states)
    for _ in range(N + 1):
        np.dot(q, qmg, out=spare)
        if spare.tobytes() == qmg.tobytes():
            break
        qmg, spare = spare, qmg
    per_pair = np.zeros((chain.n_states, chain.n_states))
    m = N + 1
    while True:
        qm1g = q @ qmg         # Q^{m+1} g
        gm = pair_difference(qmg, qm1g)     # -G_m: only its square is used
        np.maximum(per_pair, gm * gm, out=per_pair)
        envelope = 2.0 * float(np.max(np.abs(qm1g)))
        if envelope * envelope <= float(np.min(per_pair)) + 1e-14:
            break
        qmg = qm1g
        m += 1
        if m > N + 1_000_000:
            raise RateNotContractive("tail enumeration failed to terminate")
    return float(np.sum(pair_law(chain) * per_pair))


def quenched_diagnostics(chain: FiniteChain, scheme: MartingaleScheme,
                         starts, horizons) -> list[ApproximationDiagnostics]:
    """Exact fixed-start residual and conditional-mean diagnostics, one row
    per (horizon, start): horizon by horizon in the order of ``horizons``,
    repeats kept, and within each horizon in the order of ``starts``.

    ``E^x(S_n) = sum_{k<=n} (Q^k f)(x)`` and, via the telescoping identity,
    ``E^x (S_n - M_n)^2 = sum_y Q^n(x, y) ((Qg)(x) - (Qg)(y))^2``, which is
    ``(Q^n j)(x)`` for ``j(y) = ((Qg)(x) - (Qg)(y))^2``.  One
    :func:`qclt.chain.kernel_powers` table up to the largest horizon gives
    the conditional means of every state at every horizon; each start then
    takes one table of its own squared jumps.  Only the requested rows are
    kept, so at most one table is alive at a time.
    """
    horizons = list(horizons)
    if min(horizons, default=0) < 1:
        raise BadIndexOrder(f"need horizons n >= 1, got {horizons}")
    xis = [chain.index_of(x) for x in starts]
    top = max(horizons)
    # row n: 0 + Q fv + ... + Q^n fv, added in sequence from zero as a sum
    # over the rows does; fv equals f up to 1e-10 relative
    sums = kernel_powers(chain, scheme.g - scheme.qg, top)
    sums[0] = 0.0
    np.cumsum(sums, axis=0, out=sums)
    cond_means = sums[horizons]     # a copy, so the table is freed before the next
    del sums
    asdl_sup = np.max(np.abs(cond_means), axis=1) / np.sqrt(horizons)
    residual = np.empty_like(cond_means)
    for xi in set(xis):
        jump = scheme.qg[xi] - scheme.qg
        residual[:, xi] = kernel_powers(chain, jump * jump, top)[horizons, xi]
    return [ApproximationDiagnostics(
                start_state=xi, n=n, cond_mean=float(cond_means[i, xi]),
                residual_msq=float(residual[i, xi]), asdl_sup=float(asdl_sup[i]))
            for i, n in enumerate(horizons) for xi in xis]


def projection_series(chain: FiniteChain, f: Observable, K: int) -> SeriesReport:
    """Partial sums of the three summability series up to index ``K``.

    The projection series uses the orthogonality identity
    ``||P_{-j} X_0||^2 = ||Q^j f||^2 - ||Q^{j+1} f||^2`` (clamped at 0
    against roundoff); the mixing series is ``||Q^j f|| / sqrt(j)``; the
    resolvent series follows the partial Poisson sums.

    How each series decays is set out at :class:`SeriesReport`; the
    resolvent tails are checked by Cauchy block bounds, not by a vanishing
    increment.
    """
    if K < 1:
        raise BadIndexOrder(f"need K >= 1, got K={K}")
    pi = chain.stationary
    powers = kernel_powers(chain, f.values, K + 1)
    norms = np.sum(pi * powers * powers, axis=1)            # ||Q^j f||^2
    vj = np.cumsum(powers[:-2], axis=0)                     # V_j f, j = 1..K
    v_norms = np.sum(pi * vj * vj, axis=1)
    j = np.arange(1, K + 1)
    pr = np.cumsum(np.sqrt(np.maximum(norms[1:-1] - norms[2:], 0.0)))
    mix = np.cumsum(np.sqrt(norms[1:-1]) / np.sqrt(j))
    res = np.cumsum(np.log(np.log(np.maximum(j, 3))) ** 2 * v_norms / j.astype(float) ** 2)
    return SeriesReport(projection_partial=pr, mixing_partial=mix, resolvent_partial=res)
