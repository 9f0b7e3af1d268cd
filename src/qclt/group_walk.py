"""Random walks on finite abelian groups and the lazy torus rotation walk.

A step measure ``nu`` on a product of cyclic groups induces the kernel
``Q(x, y) = nu(y - x)``; the Haar (uniform) law is stationary, characters
diagonalize the kernel with multipliers ``nuhat(g)``, and every condition
sum becomes a finite Fourier sum.  ``nu`` is held as a dense grid of shape
``moduli``, so the multipliers and the observable's coefficients are each
one FFT over the group.  The torus walk with irrational step is handled by
direct floating-point simulation plus per-frequency series data;
``{n alpha}`` quantities use the distance to the nearest integer, which is
positive at every frequency a walk accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .chain import FiniteChain, Observable, make_chain
from .errors import (
    BadProbabilities,
    DimensionMismatch,
    EmptySupport,
    NonFiniteValue,
    NotErgodic,
    RationalAlpha,
)
from .spectral import (
    SpectralMeasure,
    check_total_mass,
    drop_roundoff_atoms,
    spectral_integral,
    spectral_measure,
)

if TYPE_CHECKING:
    from .simulate import SimulationReport

GOLDEN_ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
PROB_TOL = 1e-12
ERGODIC_TOL = 1e-12
RATIONAL_DENOMINATOR_CAP = 10 ** 6
RATIONAL_GAP_TOL = 1e-14


def _finite(value, what: str):
    if not np.isfinite(value):
        raise NonFiniteValue(f"{what} must be finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# finite abelian groups

@dataclass(frozen=True)
class GroupWalk:
    """Random walk on a product of cyclic groups, with its induced chain."""

    moduli: tuple
    atoms: tuple                 # ((element tuple, probability), ...)
    ergodic: bool
    chain: FiniteChain

    @property
    def elements(self) -> tuple:
        """All group elements in chain-state order: C order over ``moduli``."""
        return tuple(np.ndindex(*self.moduli))

    @property
    def symmetric(self) -> bool:
        """Reflection symmetry of the step measure: reversibility of the chain."""
        return self.chain.flags.reversible


def _reduce(element, moduli) -> tuple:
    if isinstance(element, (int, np.integer)):
        element = (int(element),)
    if len(element) != len(moduli):
        raise DimensionMismatch(
            f"element {element!r} does not match moduli {moduli!r}"
        )
    return tuple(int(e) % m for e, m in zip(element, moduli))


def _multipliers(moduli, atoms) -> np.ndarray:
    # nuhat(g) = sum_z nu(z) exp(+2 pi i <g, z>) = N ifftn(nu), in element order
    nu = np.zeros(moduli)
    for z, p in atoms:
        nu[z] = p
    return nu.size * np.fft.ifftn(nu).ravel()


def build_group_walk(moduli, atoms) -> GroupWalk:
    """Materialize the walk of a step measure as a finite chain.

    ``atoms`` maps group elements (ints for a single cyclic factor, tuples
    for products) to probabilities.  Duplicated elements are pooled after
    reduction mod the moduli.  The ergodicity flag checks that no
    non-identity character has multiplier 1.
    """
    moduli = tuple(int(m) for m in (moduli if hasattr(moduli, "__len__") else [moduli]))
    if any(m < 1 for m in moduli):
        raise BadProbabilities(f"moduli must be positive, got {moduli}")
    items = atoms.items() if hasattr(atoms, "items") else list(atoms)
    nu = np.zeros(moduli)        # pooled step measure; C order is element order
    for element, prob in items:
        p = _finite(float(prob), f"probability for element {element!r}")
        if p < 0.0:
            raise BadProbabilities(f"negative probability {p} for element {element!r}")
        nu[_reduce(element, moduli)] += p
    pooled = tuple((z, float(nu[z])) for z in map(tuple, np.argwhere(nu > 0.0).tolist()))
    if not pooled:
        raise EmptySupport("the step measure has no atoms with positive mass")
    total = float(np.sum(nu))
    if abs(total - 1.0) > PROB_TOL:
        raise BadProbabilities(f"step probabilities sum to {total!r}")

    n = nu.size
    coords = np.indices(moduli).reshape(len(moduli), n)
    # Q(x, x + z) = nu(z): one scatter per atom, each a permutation of columns
    kernel = np.zeros((n, n))
    for z, p in pooled:
        cols = np.ravel_multi_index([(c + s) % m for c, s, m in zip(coords, z, moduli)],
                                    moduli)
        kernel[np.arange(n), cols] = p
    labels = [",".join(map(str, e)) for e in coords.T.tolist()]
    chain = make_chain(labels, kernel, stationary=np.full(n, 1.0 / n))
    ergodic = bool(np.all(np.abs(_multipliers(moduli, pooled)[1:] - 1.0) > ERGODIC_TOL))
    return GroupWalk(moduli=moduli, atoms=pooled, ergodic=ergodic, chain=chain)


def walk_fourier(walk: GroupWalk, f: Observable):
    """Fourier multipliers of the step measure and coefficients of ``f``.

    Returns ``(nuhat, fhat)`` indexed like ``walk.elements`` (the dual group
    of a finite abelian group is isomorphic to the group itself).  ``fhat``
    is ``<f, chi_g>``, one FFT over the group; Parseval is validated by
    :func:`qclt.spectral.check_total_mass`.
    """
    if f.values.shape != (walk.chain.n_states,):
        raise DimensionMismatch("observable does not match the group order")
    nuhat = _multipliers(walk.moduli, walk.atoms)
    fhat = np.fft.fftn(f.values.reshape(walk.moduli)).ravel() / walk.chain.n_states
    check_total_mass(float(np.sum(np.abs(fhat) ** 2)), f.norm_sq, "Parseval mass")
    return nuhat, fhat


def fourier_measure(walk: GroupWalk, f: Observable) -> SpectralMeasure:
    """Unit-disk spectral measure of ``f``: mass ``|fhat(g)|^2`` at each
    multiplier ``nuhat(g)``, non-identity characters only, without the
    roundoff-sized atoms that :func:`spectral_measure` also drops."""
    nuhat, fhat = walk_fourier(walk, f)
    locations, masses = drop_roundoff_atoms(nuhat[1:], np.abs(fhat[1:]) ** 2)
    # clip roundoff excursions outside the closed disk
    mods = np.abs(locations)
    locations[mods > 1.0] /= mods[mods > 1.0]
    return SpectralMeasure(locations=locations, masses=masses)


@dataclass(frozen=True)
class ConditionReport:
    """Finite Fourier condition sums over non-identity characters.

    ``sr_sum`` is ``sum |fhat|^2 / |1 - nuhat|`` (for symmetric walks this
    is the real-axis reciprocal-gap sum), ``g1_sum`` (the ``SR2`` integral)
    weights each term by ``(log+ |log|1 - nuhat||)^2`` and ``sn1_sum`` by
    ``|log|1 - nuhat||``.
    ``sr_spectral`` cross-validates ``sr_sum`` against the eigensolver route
    on the materialized chain (symmetric walks only; None otherwise).
    """

    sr_sum: float
    g1_sum: float
    sn1_sum: float
    sr_spectral: float | None


def condition_sums(walk: GroupWalk, f: Observable) -> ConditionReport:
    """Evaluate the spectral condition sums of ``f`` for the walk.

    Raises :class:`NotErgodic` when the walk's support generates a proper
    subgroup (some non-identity multiplier equals 1 and the sums diverge).
    """
    if not walk.ergodic:
        raise NotErgodic("a non-identity character has multiplier 1")
    measure = fourier_measure(walk, f)
    return ConditionReport(
        sr_sum=spectral_integral(measure, "SN"), g1_sum=spectral_integral(measure, "SR2"),
        sn1_sum=spectral_integral(measure, "SN1"),
        sr_spectral=(spectral_integral(spectral_measure(walk.chain, f), "SR")
                     if walk.symmetric else None))


# ---------------------------------------------------------------------------
# torus rotation walk

@dataclass(frozen=True)
class TorusWalk:
    """Lazy symmetric rotation walk ``x -> x +- alpha`` on the unit torus.

    ``fhat`` stores the observable's positive-frequency coefficients; the
    negative side is implied by Hermitian symmetry (real observable).
    """

    alpha: float
    lazy: float
    fhat: tuple                  # ((frequency > 0, complex coefficient), ...)


def convergents(alpha: float, q_cap: int):
    """Continued-fraction convergents ``p/q`` of ``alpha`` with ``q <= q_cap``.

    Floating-point expansion; terminates when the remainder is numerically
    exhausted or the denominator cap is passed.
    """
    h_prev, k_prev = 1, 0
    h, k = math.floor(alpha), 1
    out = [(h, k)]
    frac = alpha - h
    while frac > 1e-12:
        x = 1.0 / frac
        a = math.floor(x)
        frac = x - a
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        if k > q_cap:
            break
        out.append((h, k))
    return out


def make_torus_walk(alpha: float, lazy: float = 0.0, fhat=None) -> TorusWalk:
    """Validate and build a torus walk.

    ``alpha`` is reduced mod 1 and rejected when some convergent ``p/q``
    with ``q <= 10^6`` matches it to 1e-14 (numerically rational).  ``fhat``
    may list positive frequencies only, or both signs (then Hermitian
    symmetry is checked before folding); a squared norm
    ``sum_n 2 |fhat(n)|^2`` that overflows raises :class:`NonFiniteValue`.
    A frequency whose ``n * alpha`` is an integer in float64, or that no
    float holds, has multiplier exactly 1 and raises :class:`RationalAlpha`.
    """
    alpha = _finite(float(alpha), "alpha") % 1.0
    if not 0.0 <= lazy < 1.0:
        raise BadProbabilities(f"lazy weight {lazy!r} must lie in [0, 1)")
    for p, q in convergents(alpha, RATIONAL_DENOMINATOR_CAP):
        if q >= 1 and abs(alpha - p / q) <= RATIONAL_GAP_TOL:
            raise RationalAlpha(f"alpha is {p}/{q} to within 1e-14")
    folded: dict = {}
    for freq, coeff in (fhat.items() if hasattr(fhat, "items") else (fhat or [])):
        nn = int(freq)
        if nn == 0:
            raise DimensionMismatch("frequency 0 is not allowed (observables are centered)")
        c = _finite(complex(coeff), f"coefficient at frequency {nn}")
        key = abs(nn)
        # alpha > 1e-14, so past 2^1023 (float(n) may overflow) n * alpha is an integer
        if key > 2 ** 1023 or nearest_integer_distance(key, alpha) == 0.0:
            raise RationalAlpha(f"frequency {nn}: n * alpha is an integer in float64, "
                                "so the multiplier is exactly 1")
        want = c if nn > 0 else c.conjugate()
        if key in folded and abs(folded[key] - want) > 1e-12:
            raise DimensionMismatch(
                f"coefficients at +-{key} violate Hermitian symmetry"
            )
        folded[key] = want
    # abs(c) * abs(c) reaches inf where abs(c) ** 2 raises OverflowError
    mass = sum(2.0 * abs(c) * abs(c) for c in folded.values())
    if not math.isfinite(mass):
        raise NonFiniteValue("the observable's squared norm sum_n 2 |fhat(n)|^2 overflows")
    return TorusWalk(alpha=alpha, lazy=float(lazy),
                     fhat=tuple(sorted(folded.items())))


def nearest_integer_distance(ns, alpha: float) -> np.ndarray:
    """Distance of ``n * alpha`` to the nearest integer, vectorized in ``n``."""
    t = np.asarray(ns, dtype=np.float64) * alpha
    return np.abs(t - np.rint(t))


def torus_multiplier_gap(walk: TorusWalk, ns) -> np.ndarray:
    """``1 - nuhat(n) = (1 - lazy) * 2 sin^2(pi n alpha)`` evaluated through
    the nearest-integer reduction of ``n alpha``."""
    dist = nearest_integer_distance(ns, walk.alpha)
    return (1.0 - walk.lazy) * 2.0 * np.sin(np.pi * dist) ** 2


@dataclass(frozen=True)
class TorusRow:
    """Per-frequency diagnostics for the rotation walk."""

    n: int
    dist: float                # nearest-integer distance of n * alpha
    one_minus_nuhat: float
    partial_sum: float         # cumulative condition sum up to this frequency

    @property
    def ratio(self) -> float:
        return self.one_minus_nuhat / (2.0 * math.pi ** 2 * self.dist * self.dist)


@dataclass(frozen=True)
class TorusConditionReport:
    rows: tuple
    convergents: tuple         # ((p, q), ...) with q <= cutoff


def torus_condition(walk: TorusWalk, cutoff: int) -> TorusConditionReport:
    """Series report for the walk's condition sum over its Fourier support.

    Each supported frequency contributes
    ``2 |fhat(n)|^2 (log+ |log(1 - nuhat(n))|)^2 / (1 - nuhat(n))``
    (the factor 2 accounts for the mirrored negative frequency).  The report
    never extrapolates an infinite tail; it returns partial sums and the
    per-frequency data needed to judge them, plus the continued-fraction
    convergents of alpha with denominators up to ``cutoff``, which is at
    least 1.
    """
    if cutoff < 1:
        raise DimensionMismatch(f"cutoff {cutoff} is below 1, the smallest convergent "
                                "denominator")
    if walk.fhat and cutoff < walk.fhat[-1][0]:      # fhat is sorted by frequency
        raise DimensionMismatch(f"cutoff {cutoff} is below the largest supported "
                                f"frequency {walk.fhat[-1][0]}")
    rows = []
    acc = 0.0
    for n, coeff in walk.fhat:
        gap = float(torus_multiplier_gap(walk, n))
        log_gap = abs(math.log(gap))
        logplus = math.log(log_gap) if log_gap > 1.0 else 0.0
        acc += 2.0 * abs(coeff) ** 2 * logplus ** 2 / gap
        rows.append(TorusRow(n=n, dist=float(nearest_integer_distance(n, walk.alpha)),
                             one_minus_nuhat=gap, partial_sum=acc))
    return TorusConditionReport(rows=tuple(rows),
                                convergents=tuple(convergents(walk.alpha, cutoff)))


def torus_sigma_sq(walk: TorusWalk) -> float:
    """Limit variance ``sum_{n != 0} |fhat(n)|^2 (1 + nuhat) / (1 - nuhat)``."""
    acc = 0.0
    for n, coeff in walk.fhat:
        gap = float(torus_multiplier_gap(walk, n))
        acc += 2.0 * abs(coeff) ** 2 * (1.0 + (1.0 - gap)) / gap    # nuhat = 1 - gap
    return acc


def simulate_torus(walk: TorusWalk, x: float, n: int, num_paths: int,
                   seed: int, workers: int = 1) -> SimulationReport:
    """Monte Carlo law of ``S_n / sqrt(n)`` for the rotation walk from ``x``.

    The run policy and the report are those of finite chains
    (:func:`qclt.simulate.check_run`, :func:`qclt.simulate.sample_report`),
    so a zero observable raises :class:`qclt.errors.DegenerateSigma` too.
    """
    # imported here: group walks alone need neither simulate nor martingale
    from .simulate import check_run, sample_report

    sigma_sq = torus_sigma_sq(walk)
    check_run(n, num_paths, sigma_sq)
    x0 = _finite(float(x), "torus start") % 1.0
    freqs = np.array([n_ for n_, _ in walk.fhat], dtype=np.float64)
    coeffs = np.array([c for _, c in walk.fhat], dtype=complex)
    # each product is a fresh contiguous array, as the kernels require
    sums, _ = kernels.run_torus_paths(walk.alpha, walk.lazy, 2.0 * np.pi * freqs,
                                      2.0 * coeffs.real, -2.0 * coeffs.imag,
                                      x0, n, num_paths, seed, workers=workers)
    return sample_report(sums, 0, n, seed, sigma_sq)
