"""Spectral measures of observables and the condition integrals built on them.

For a reversible chain the symmetrized kernel ``S = D^{1/2} Q D^{-1/2}``
(``D = diag(pi)``) is a symmetric matrix whose eigendecomposition gives the
atomic spectral measure of an observable ``f``: atom ``i`` sits at eigenvalue
``t_i`` and carries mass ``(u_i . D^{1/2} f)^2``.  Group walks contribute
measures with complex atoms on the closed unit disk; those are built by the
:mod:`qclt.group_walk` module and consumed by the same integral evaluator.

Each chain is decomposed once, by LAPACK (:func:`chain_spectrum`), and the
result is cached on the chain.  The ``verify`` suite checks that spectrum
against the Fourier multipliers of a group walk, an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import FiniteChain, Observable
from .errors import (
    BadIndexOrder,
    DimensionMismatch,
    DivergentIntegral,
    NonFiniteValue,
    NotReversible,
    SpectralDefect,
)

ATOM_MERGE_TOL = 1e-10
MASS_SINGULARITY_TOL = 1e-9    # atoms lighter than this may sit on a pole
LOCATION_SINGULARITY_TOL = 1e-12
TOTAL_MASS_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralMeasure:
    """Atomic spectral measure: locations with nonnegative masses.

    ``locations`` and ``masses`` are 1-d arrays of one length, one atom per
    entry; a mismatch raises :class:`DimensionMismatch`.  Locations are real
    in [-1, 1] for reversible chains and complex in the closed unit disk
    for group walks.
    """

    locations: np.ndarray
    masses: np.ndarray

    @property
    def total(self) -> float:
        """Sum of the masses: the squared L2(pi) norm of the observable."""
        return float(np.sum(self.masses))

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.locations)

    def __post_init__(self):
        if not (isinstance(self.locations, np.ndarray) and isinstance(self.masses, np.ndarray)
                and self.locations.ndim == 1 and self.locations.shape == self.masses.shape):
            raise DimensionMismatch("locations and masses must be 1-d arrays of one length")
        if np.min(self.masses, initial=0.0) < 0.0:
            raise ValueError("spectral masses must be nonnegative")
        if np.max(np.abs(self.locations), initial=0.0) > 1.0 + 1e-12:
            raise ValueError("spectral locations must lie in the closed unit disk")


def chain_spectrum(chain: FiniteChain):
    """Eigendecomposition ``(eigenvalues, eigenvectors)`` of the symmetrized
    kernel ``D^{1/2} Q D^{-1/2}`` of a reversible chain.

    Computed by LAPACK (``np.linalg.eigh``, ascending eigenvalues,
    orthonormal eigenvector columns) on the first call and cached on the
    chain, so each chain is decomposed at most once.  The arrays are
    read-only.

    Raises
    ------
    NotReversible
        If the chain is not reversible.
    SpectralDefect
        If LAPACK fails to converge.
    """
    cached = chain.__dict__.get("_spectrum")
    if cached is not None:
        return cached
    if not chain.flags.reversible:
        raise NotReversible("the symmetrized kernel exists for reversible chains only")
    rt = np.sqrt(chain.stationary)
    sym = (rt[:, None] * chain.kernel) / rt[None, :]
    sym = 0.5 * (sym + sym.T)  # kill roundoff asymmetry from detailed balance
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise SpectralDefect(f"LAPACK eigh failed: {exc}") from exc
    eigvals.flags.writeable = False
    eigvecs.flags.writeable = False
    # the chain is a frozen dataclass with read-only arrays, so the cache
    # goes straight into the instance dict and can never go stale; racing
    # first calls store equal results
    chain.__dict__["_spectrum"] = (eigvals, eigvecs)
    return eigvals, eigvecs


def _merge_atoms(locations: np.ndarray, masses: np.ndarray):
    # Degenerate eigenvalues must not create spurious distinct atoms, so
    # locations within ATOM_MERGE_TOL are pooled (mass-weighted position).
    order = np.argsort(locations)
    locs, mass = locations[order], masses[order]
    out_loc, out_mass = [], []
    i = 0
    while i < len(locs):
        j = i
        while j + 1 < len(locs) and locs[j + 1] - locs[i] <= ATOM_MERGE_TOL:
            j += 1
        m = float(np.sum(mass[i:j + 1]))
        if m > 0.0:
            loc = float(np.sum(locs[i:j + 1] * mass[i:j + 1]) / m)
            out_loc.append(loc)
            out_mass.append(m)
        i = j + 1
    return np.asarray(out_loc), np.asarray(out_mass)


def drop_roundoff_atoms(locations: np.ndarray, masses: np.ndarray):
    """Keep the atoms above ``1e-14`` of the total mass, so directions
    orthogonal to f (roundoff mass only) do not show up as spurious atoms."""
    keep = masses > 1e-14 * float(np.sum(masses))
    return locations[keep], masses[keep]


def check_total_mass(total: float, norm_sq: float, what: str) -> None:
    """Raise :class:`SpectralDefect` unless ``total`` reproduces ``norm_sq``
    to ``TOTAL_MASS_RTOL`` relative, or ``norm_sq`` is 0."""
    # written so that a NaN anywhere fails the check instead of skipping it
    if norm_sq != 0.0 and not abs(total - norm_sq) <= TOTAL_MASS_RTOL * max(total, norm_sq):
        raise SpectralDefect(f"{what} {total!r} does not reproduce <f,f> = {norm_sq!r}")


def spectral_measure(chain: FiniteChain, f: Observable) -> SpectralMeasure:
    """Spectral measure of ``f`` with respect to the kernel.

    Requires a reversible chain.  Eigenvalues within 1e-10 of each other are
    merged into a single atom; zero-mass atoms are dropped.  The total mass
    always reproduces ``<f, f>_pi`` (checked to 1e-9 relative), and for a
    mean-zero observable on an irreducible chain there is no mass at 1.
    """
    if not chain.flags.reversible:
        raise NotReversible("spectral measures are computed for reversible chains only")
    eigvals, eigvecs = chain_spectrum(chain)
    weights = eigvecs.T @ (np.sqrt(chain.stationary) * f.values)
    locations = np.clip(eigvals, -1.0, 1.0)
    measure = SpectralMeasure(*drop_roundoff_atoms(*_merge_atoms(locations, weights * weights)))
    locations, masses, total = measure.locations, measure.masses, measure.total
    check_total_mass(total, f.norm_sq, "spectral mass")
    if chain.flags.irreducible and len(masses):
        at_one = masses[np.abs(locations - 1.0) <= LOCATION_SINGULARITY_TOL]
        if at_one.sum() > MASS_SINGULARITY_TOL:
            raise NotReversible(
                "mean-zero observable carries mass at eigenvalue 1 on an "
                "irreducible chain; input is inconsistent"
            )
    return measure


def _weight_sr2(z):
    # at |1 - z|, which is 1 - t bitwise on real locations t <= 1; log+
    # vanishes where |log|1 - z|| <= 1, including log(0) at |1 - z| = 1
    gap = np.abs(1.0 - z)
    with np.errstate(divide="ignore"):
        log_plus = np.maximum(np.log(np.abs(np.log(gap))), 0.0)
    return log_plus ** 2 / gap


def _weight_sn1(z):
    gap = np.abs(1.0 - z)
    with np.errstate(divide="ignore"):
        return np.abs(np.log(gap)) / gap


# Condition integrands keyed by the names used in reports.  SR and sigma_sq
# act on real spectra; SR2, SN and SN1 are functions of |1 - z| and accept
# unit-disk locations, where SR2 is the Fourier G1 weight.
WEIGHTS = {
    "SR": (lambda t: 1.0 / (1.0 - t), True),
    "SR2": (_weight_sr2, False),
    "sigma_sq": (lambda t: (1.0 + t) / (1.0 - t), True),
    "SN": (lambda z: 1.0 / np.abs(1.0 - z), False),
    "SN1": (_weight_sn1, False),
}


def spectral_integral(measure: SpectralMeasure, weight: str) -> float:
    """Integrate a named condition weight against the measure.

    ``weight`` is one of ``SR`` (``1/(1-t)``), ``SR2``
    (``(log+ |log|1-z||)^2/|1-z|``), ``sigma_sq`` (``(1+t)/(1-t)``),
    ``SN`` (``1/|1-z|``) or ``SN1`` (``|log|1-z||/|1-z|``); any other name
    raises :class:`ValueError`.  ``SR`` and ``sigma_sq`` need a real measure
    and raise :class:`NotReversible` on a complex one.

    Atoms within 1e-12 of the pole at 1 are skipped when their mass is
    roundoff-sized (at most 1e-9); heavier atoms there raise
    :class:`DivergentIntegral`, signalling that the condition fails.  A sum
    that overflows raises :class:`NonFiniteValue`.
    """
    try:
        fn, real_only = WEIGHTS[weight]
    except KeyError:
        raise ValueError(f"unknown weight {weight!r}") from None
    if real_only and not measure.is_real:
        raise NotReversible(f"weight {weight!r} requires a real-supported measure")
    return _pole_sum(measure, f"weight {weight!r}",
                     lambda t, m: np.asarray(fn(t), dtype=np.float64) * m)


def _pole_sum(measure: SpectralMeasure, what: str, terms) -> float:
    """``sum(terms(t, m))`` over the atoms ``(t, m)`` off the pole at 1: the
    one rule for what a spectral sum may return.

    Atoms within 1e-12 of 1 are dropped when their mass is at most 1e-9; a
    heavier atom there raises :class:`DivergentIntegral`.  A sum that is
    not finite raises :class:`NonFiniteValue`, so no caller reports one.
    """
    near_pole = np.abs(measure.locations - 1.0) <= LOCATION_SINGULARITY_TOL
    heavy = near_pole & (measure.masses > MASS_SINGULARITY_TOL)
    if np.any(heavy):
        i = int(np.nonzero(heavy)[0][0])
        raise DivergentIntegral(
            f"atom at {measure.locations[i]!r} with mass {measure.masses[i]!r} "
            f"sits on the singularity of {what}"
        )
    keep = ~near_pole
    with np.errstate(over="ignore"):    # the check below reports an overflow
        total = float(np.sum(terms(measure.locations[keep], measure.masses[keep])))
    if not math.isfinite(total):
        raise NonFiniteValue(f"the spectral sum of {what} is not finite ({total!r})")
    return total


def _power_block_sum(t, m, n) -> np.ndarray:
    # sum_{k=m}^{n-1} t^k, stable at t = +-1 and for large exponents; the
    # exponents m and n may be arrays that broadcast against t.
    t = np.asarray(t, dtype=np.float64)
    near_one = np.abs(1.0 - t) < 1e-12
    ts = np.where(near_one, 0.0, t)
    return np.where(near_one, n - m, (ts ** m - ts ** n) / (1.0 - ts))


def kernel_gap_msq_spectral_table(measure: SpectralMeasure, n_max: int) -> np.ndarray:
    """Mean squares of the horizon gaps ``H_n - H_m`` of the
    martingale-difference kernels for all ``1 <= m < n <= n_max``,
    evaluated spectrally.

    Entry ``[m-1, n-1]`` holds
    ``sum_i (1 - t_i^2) (sum_{k=m}^{n-1} t_i^k)^2 mass_i``, which equals the
    pair-space moment of :func:`qclt.martingale.kernel_gap_msq_table` in
    the same layout; the lower triangle and the diagonal are zero.  Atoms
    are accumulated one at a time, so memory stays at one
    ``(n_max + 1)^2`` table.
    """
    if n_max < 2:
        raise BadIndexOrder(f"need n_max >= 2, got {n_max}")
    if not measure.is_real:
        raise NotReversible("horizon-gap moments require a real-supported measure")
    span = np.arange(n_max + 1)
    table = np.zeros((n_max + 1, n_max + 1))
    for t, mass in zip(measure.locations, measure.masses):
        # _power_block_sum(t, m, n) for every pair (m, n), each power t^k taken once
        if abs(1.0 - t) < 1e-12:
            block = span[None, :] - span[:, None]
        else:
            powers = t ** span
            block = (powers[:, None] - powers[None, :]) / (1.0 - t)
        table += (1.0 - t * t) * block * block * mass
    return np.triu(table[1:, 1:], k=1)


def variance_growth(chain: FiniteChain, f: Observable, n: int) -> float:
    """Exact ``var(S_n)/n`` for the stationary partial sum of ``f``.

    This is ``(1/n) [n <f,f> + 2 sum_{k=1}^{n-1} (n-k) <f, Q^k f>]``; no
    simulation is involved.  The sum is taken over the deflated kernel
    ``P = Q - 1 pi^T``, whose powers ``P^k = Q^k - 1 pi^T`` (``k >= 1``) give
    the same overlaps on a mean-zero ``f`` and leave out the unit eigenvalue.
    With ``a_m = sum_{k=1}^m P^k f`` and ``b_m = sum_{k=1}^m (m-k+1) P^k f``
    the horizon doubles by binary powering,

        a_{2m} = a_m + P^m a_m,
        b_{2m} = b_m + m a_m + P^m b_m,
        P^{2m} = (P^m)^2,

    and each set bit of ``n - 1`` below the leading one adds one step,
    ``a_{m+1} = P (f + a_m)``, ``b_{m+1} = b_m + a_{m+1}``,
    ``P^{m+1} = P^m P``.  Then ``sum_{k=1}^{n-1} (n-k) P^k f = b_{n-1}``,
    in at most ``4 log2 n`` products of ``S``-sized arrays.  The powers of
    ``P`` decay as ``rho^k``, ``rho`` the largest eigenvalue modulus below
    1, so the entries of ``b`` stay ``O(n / (1 - rho))`` rather than the
    ``O(n^2)`` that the undeflated unit eigenvalue would add.
    """
    if n < 1:
        raise BadIndexOrder(f"need n >= 1, got n={n}")
    if n == 1:
        return f.norm_sq
    p = chain.kernel - chain.stationary[None, :]
    fv = f.values
    pf = p @ fv
    ab = np.stack([pf, pf], axis=1)     # columns a_m, b_m, from m = 1
    pm, m = p, 1
    for bit in bin(n - 1)[3:]:
        nxt = pm @ ab
        ab[:, 1] += m * ab[:, 0]
        ab += nxt
        pm = pm @ pm
        m *= 2
        if bit == "1":
            ab[:, 0] = p @ (fv + ab[:, 0])
            ab[:, 1] += ab[:, 0]
            pm = pm @ p
            m += 1
    overlap = float(np.dot(chain.stationary * fv, ab[:, 1]))
    return (float(n) * f.norm_sq + 2.0 * overlap) / float(n)


def variance_tail_constant(measure: SpectralMeasure) -> float:
    """Constant ``C = sum_i mass_i |t_i| / (1 - t_i)^2`` controlling the
    approach of ``var(S_n)/n`` to its limit: the gap is at most ``4C/n``.
    Atoms at the pole and overflow are treated as in :func:`spectral_integral`."""
    if not measure.is_real:
        raise NotReversible("variance tail constant requires a real-supported measure")
    return _pole_sum(measure, "the variance tail constant",
                     lambda t, m: m * np.abs(t) / (1.0 - t) ** 2)
