"""Martingale approximation of additive functionals on finite chains.

The Poisson equation ``(I - Q) g = f`` yields the martingale-difference
kernel ``H(x, y) = g(y) - (Qg)(x)``; the martingale ``M_n`` built from it
approximates ``S_n`` with the exact telescoping residual
``S_n - M_n = (Qg)(xi_0) - (Qg)(xi_n)``.  On a finite state space every
residual moment is a finite weighted sum, so the diagnostics below are exact
(no simulation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import MEAN_ZERO_TOL, FiniteChain, Observable
from .errors import (
    BadIndexOrder,
    NearSingular,
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
    diff_kernel : ndarray, shape (n, n)
        ``H[x, y] = g(y) - (Qg)(x)``; conditionally centered in y under
        every row of the kernel.
    sigma_sq : float
        ``sum_x pi(x) sum_y Q(x, y) H(x, y)^2``, the limit variance.
    rate : float
        Largest eigenvalue modulus of the kernel restricted to mean-zero
        functions; the geometric contraction rate used for tail bounds.
    """

    g: np.ndarray
    qg: np.ndarray
    diff_kernel: np.ndarray
    sigma_sq: float
    rate: float


@dataclass(frozen=True)
class ApproximationDiagnostics:
    """Exact fixed-start diagnostics at one (start state, horizon)."""

    start_state: int
    n: int
    cond_mean: float        # E^x(S_n)
    residual_msq: float     # E^x (S_n - M_n)^2
    residual_over_n: float
    asdl_sup: float         # max over starts of |E^x(S_n)| / sqrt(n)


@dataclass(frozen=True)
class SeriesReport:
    """Cumulative partial sums of the three summability diagnostics.

    ``projection_partial[k-1]`` is ``sum_{j<=k} (||Q^j f||^2 - ||Q^{j+1} f||^2)^{1/2}``,
    ``mixing_partial[k-1]`` is ``sum_{j<=k} ||Q^j f|| / sqrt(j)`` and
    ``resolvent_partial[k-1]`` accumulates
    ``(log log max(j, 3))^2 ||V_j f||^2 / j^2`` where ``V_j f`` is the
    partial Poisson sum.  The max(j, 3) guard keeps the inner logarithm
    positive and is reported as-is in CLI output.
    """

    projection_partial: np.ndarray
    mixing_partial: np.ndarray
    resolvent_partial: np.ndarray


def _pair_weights(chain: FiniteChain) -> np.ndarray:
    return chain.stationary[:, None] * chain.kernel


def _mean_zero_rate(chain: FiniteChain) -> float:
    # Second-largest eigenvalue modulus.  Reversible chains reuse the cached
    # chain spectrum; otherwise deflate constants (Q - 1 pi^T) and take the
    # largest modulus, which is exact at this scale.
    if chain.flags.reversible:
        eigvals, _ = chain_spectrum(chain)
        drop = int(np.argmin(np.abs(eigvals - 1.0)))
        rest = np.delete(eigvals, drop)
        return float(np.max(np.abs(rest))) if len(rest) else 0.0
    deflated = chain.kernel - np.outer(np.ones(chain.n_states), chain.stationary)
    return float(np.max(np.abs(np.linalg.eigvals(deflated))))


def poisson_solve(chain: FiniteChain, f: Observable) -> MartingaleScheme:
    """Solve the Poisson equation and assemble the martingale scheme.

    The solve augments ``I - Q`` with the rank-one term ``1 pi^T`` (the
    fundamental-matrix trick), which pins the stationary mean of ``g`` to
    zero and is nonsingular for irreducible chains.
    """
    if not chain.flags.irreducible:
        raise NotIrreducible("the Poisson equation needs an irreducible chain")
    if abs(f.mean) > MEAN_ZERO_TOL:
        raise NotMeanZero(f"observable mean {f.mean!r} exceeds 1e-12")
    pi, q = chain.stationary, chain.kernel
    rate = _mean_zero_rate(chain)
    if rate >= 1.0 - UNIT_EIGENVALUE_TOL:
        # eigenvalue modulus 1 on the mean-zero subspace; the solve is still
        # fine unless the eigenvalue is +1 itself
        deflated = q - np.outer(np.ones(chain.n_states), pi)
        if np.min(np.abs(np.linalg.eigvals(deflated) - 1.0)) <= UNIT_EIGENVALUE_TOL:
            raise NearSingular("an eigenvalue on the mean-zero subspace is within 1e-12 of 1")
    n = chain.n_states
    g = np.linalg.solve(np.eye(n) - q + np.outer(np.ones(n), pi), f.values)
    g = g - float(pi @ g)  # roundoff hygiene; the solve already centers g
    qg = q @ g
    residual = np.max(np.abs((g - qg) - f.values))
    scale = max(float(np.max(np.abs(f.values))), 1e-300)
    if residual > POISSON_RESIDUAL_RTOL * scale:
        raise NearSingular(f"Poisson residual {residual!r} exceeds 1e-10 relative")
    h = g[None, :] - qg[:, None]
    sigma_sq = float(np.sum(_pair_weights(chain) * h * h))
    for arr in (g, qg, h):
        arr.flags.writeable = False
    return MartingaleScheme(g=g, qg=qg, diff_kernel=h, sigma_sq=sigma_sq, rate=rate)


def truncated_scheme(chain: FiniteChain, f: Observable, n: int):
    """Partial Poisson sum ``V_n f = (I + Q + ... + Q^{n-1}) f`` and its
    horizon-n difference kernel ``H_n[x, y] = (V_n f)(y) - (Q V_n f)(x)``.

    ``V_n f`` is accumulated Horner style; for irreducible chains it equals
    ``g - Q^n g`` up to roundoff.
    """
    if n < 1:
        raise BadIndexOrder(f"need n >= 1, got n={n}")
    q = chain.kernel
    v = f.values.copy()
    for _ in range(n - 1):
        v = f.values + q @ v
    qv = q @ v
    return v, v[None, :] - qv[:, None]


def kernel_gap_msq(chain: FiniteChain, f: Observable, m: int, n: int) -> float:
    """Exact stationary second moment of ``(H_n - H_m)(xi_0, xi_1)``.

    The pair ``(xi_0, xi_1)`` carries the law ``pi(x) Q(x, y)``, so the
    moment is a finite weighted sum; it agrees with the spectral evaluation
    in :func:`qclt.spectral.kernel_gap_msq_spectral`.
    """
    if m >= n:
        raise BadIndexOrder(f"need m < n, got m={m}, n={n}")
    if m < 1:
        raise BadIndexOrder(f"need m >= 1, got m={m}")
    q = chain.kernel
    # V_n f - V_m f directly, accumulated from Q^m f
    qkf = f.values.copy()
    for _ in range(m):
        qkf = q @ qkf
    dv = np.zeros_like(qkf)
    for _ in range(n - m):
        dv = dv + qkf
        qkf = q @ qkf
    dh = dv[None, :] - (q @ dv)[:, None]
    return float(np.sum(_pair_weights(chain) * dh * dh))


def kernel_gap_msq_table(chain: FiniteChain, f: Observable, n_max: int) -> np.ndarray:
    """All pair moments ``E (H_n - H_m)^2`` for ``1 <= m < n <= n_max`` at once.

    Same pair-space computation as :func:`kernel_gap_msq`, vectorized: the
    horizon kernels are stacked over the pair space and the moments expand
    through their weighted Gram matrix.  Entry ``[m-1, n-1]`` holds the
    moment; the lower triangle and diagonal are zero.
    """
    if n_max < 2:
        raise BadIndexOrder(f"need n_max >= 2, got {n_max}")
    q = chain.kernel
    pair_w = _pair_weights(chain).reshape(-1)
    flat = np.empty((n_max, chain.n_states ** 2))
    v = np.zeros(chain.n_states)
    qkf = f.values.copy()
    for n in range(1, n_max + 1):
        v = v + qkf
        qkf = q @ qkf
        flat[n - 1] = (v[None, :] - (q @ v)[:, None]).reshape(-1)
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
    qmg = scheme.g.copy()
    for _ in range(N + 1):
        qmg = q @ qmg          # Q^{N+1} g
    per_pair = np.zeros((chain.n_states, chain.n_states))
    m = N + 1
    while True:
        qm1g = q @ qmg         # Q^{m+1} g
        gm = qm1g[:, None] - qmg[None, :]
        np.maximum(per_pair, gm * gm, out=per_pair)
        envelope = 2.0 * float(np.max(np.abs(qm1g)))
        if envelope * envelope <= float(np.min(per_pair)) + 1e-14:
            break
        qmg = qm1g
        m += 1
        if m > N + 1_000_000:
            raise RateNotContractive("tail enumeration failed to terminate")
    return float(np.sum(_pair_weights(chain) * per_pair))


def quenched_diagnostics(chain: FiniteChain, scheme: MartingaleScheme,
                         x, n: int) -> ApproximationDiagnostics:
    """Exact fixed-start residual and conditional-mean diagnostics.

    ``E^x(S_n) = sum_{k<=n} (Q^k f)(x)`` and, via the telescoping identity,
    ``E^x (S_n - M_n)^2 = sum_y Q^n(x, y) ((Qg)(x) - (Qg)(y))^2``.
    """
    if n < 1:
        raise BadIndexOrder(f"need n >= 1, got n={n}")
    xi = chain.index_of(x)
    q = chain.kernel
    fv = scheme.g - scheme.qg  # equals f up to 1e-10 relative
    cond_means = np.zeros(chain.n_states)
    qkf = fv.copy()
    for _ in range(n):
        qkf = q @ qkf
        cond_means += qkf
    row = np.zeros(chain.n_states)
    row[xi] = 1.0
    for _ in range(n):
        row = row @ q          # row of Q^n from state x
    jump = scheme.qg[xi] - scheme.qg
    residual_msq = float(np.sum(row * jump * jump))
    sqrt_n = float(np.sqrt(n))
    return ApproximationDiagnostics(
        start_state=xi,
        n=n,
        cond_mean=float(cond_means[xi]),
        residual_msq=residual_msq,
        residual_over_n=residual_msq / float(n),
        asdl_sup=float(np.max(np.abs(cond_means))) / sqrt_n,
    )


def projection_series(chain: FiniteChain, f: Observable, K: int) -> SeriesReport:
    """Partial sums of the three summability series up to index ``K``.

    The projection series uses the orthogonality identity
    ``||P_{-j} X_0||^2 = ||Q^j f||^2 - ||Q^{j+1} f||^2`` (clamped at 0
    against roundoff); the mixing series is ``||Q^j f|| / sqrt(j)``; the
    resolvent series follows the partial Poisson sums.
    """
    if K < 1:
        raise BadIndexOrder(f"need K >= 1, got K={K}")
    pi, q = chain.stationary, chain.kernel
    pr = np.zeros(K)
    mix = np.zeros(K)
    res = np.zeros(K)
    qprev = f.values.copy()    # Q^{j-1} f at the top of iteration j
    qcur = q @ qprev           # Q^j f
    vj = np.zeros_like(qprev)
    for j in range(1, K + 1):
        vj = vj + qprev        # V_j f = f + Qf + ... + Q^{j-1} f
        qnext = q @ qcur       # Q^{j+1} f
        norm_j = float(np.sum(pi * qcur * qcur))
        norm_j1 = float(np.sum(pi * qnext * qnext))
        v_norm = float(np.sum(pi * vj * vj))
        pr_term = np.sqrt(max(norm_j - norm_j1, 0.0))
        mix_term = np.sqrt(norm_j) / np.sqrt(j)
        res_term = np.log(np.log(max(j, 3))) ** 2 * v_norm / float(j) ** 2
        prev = j - 2
        pr[j - 1] = pr_term + (pr[prev] if j > 1 else 0.0)
        mix[j - 1] = mix_term + (mix[prev] if j > 1 else 0.0)
        res[j - 1] = res_term + (res[prev] if j > 1 else 0.0)
        qprev, qcur = qcur, qnext
    return SeriesReport(projection_partial=pr, mixing_partial=mix, resolvent_partial=res)
