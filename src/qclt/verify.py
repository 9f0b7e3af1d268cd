"""Identity and inequality suite behind the ``verify`` CLI subcommand.

Each check returns a :class:`CheckResult`; the suite passes only if every
check does.  Sizes shrink under ``quick`` but no check is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rng
from .chain import ROUNDOFF_FLOOR, FiniteChain, center_observable, make_chain
from .errors import CondViolated
from .group_walk import (
    GOLDEN_ALPHA,
    _multiplier_gap_at,
    build_group_walk,
    condition_sums,
    convergents,
    make_torus_walk,
    nearest_integer_distance,
    walk_fourier,
)
from .inequalities import (
    ChainingCheck,
    DyadicFamily,
    chaining_maximal_check,
    chaining_verdict,
    dyadic_block_maxsum,
    dyadic_domination_check,
    kernel_dyadic_sequence,
    log_envelope_ratio,
)
from .martingale import kernel_gap_msq_table, poisson_solve
from .rng import Stream
from .simulate import simulate_quenched
from .spectral import (
    SpectralMeasure,
    chain_spectrum,
    kernel_gap_msq_spectral_table,
    spectral_integral,
    spectral_measure,
    variance_growth,
    variance_tail_constant,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _roundoff(label: str, value: float) -> str:
    # "label<1e-13" below the floor, else "label=value"
    return f"{label}<{ROUNDOFF_FLOOR:.0e}" if value < ROUNDOFF_FLOOR else f"{label}={value:.3e}"


# -- fixtures ----------------------------------------------------------------

def two_state_chain(p: float = 0.25) -> FiniteChain:
    return make_chain(["0", "1"], [[1.0 - p, p], [p, 1.0 - p]])


def iid_chain() -> FiniteChain:
    return two_state_chain(0.5)


def flip_chain() -> FiniteChain:
    return make_chain(["0", "1"], [[0.0, 1.0], [1.0, 0.0]])


def random_reversible_chain(draw: Stream, size: int) -> FiniteChain:
    # random walk on a weighted complete graph: symmetric weights give
    # detailed balance with pi proportional to the row sums (make_chain
    # solves for it)
    w = draw.uniforms(0.1, 1.0, (size, size))
    w = 0.5 * (w + w.T)
    kernel = w / w.sum(axis=1, keepdims=True)
    return make_chain([str(i) for i in range(size)], kernel)


def random_observable(draw: Stream, chain: FiniteChain):
    return center_observable(chain, draw.uniforms(-1.0, 1.0, chain.n_states))


def sign_observable(chain: FiniteChain):
    raw = np.where(np.arange(chain.n_states) % 2 == 0, 1.0, -1.0)
    return center_observable(chain, raw)


# -- chaining ----------------------------------------------------------------

CHAINING_MAX_D = 5


@dataclass(frozen=True)
class RandomFamily:
    """One family of the randomized chaining check, drawn inside the kernel.

    ``law`` and the parameters it reads (``scale``, ``a``, ``drift`` and,
    for the factor law only, ``profile``) are defined in the ``_kernels.c``
    header.  Drawn with ``paths`` rows, row ``i`` is stream ``i`` under
    ``row_seed``, so no table of the family is ever stored.
    """

    law: int
    d: int
    scale: float
    a: float
    drift: float
    profile: np.ndarray
    row_seed: int

    def check(self, paths: int) -> ChainingCheck:
        _, sums = kernels.drawn_dyadic_moments(self.law, self.d, self.scale, self.a,
                                               self.drift, self.profile, self.row_seed, paths)
        return chaining_verdict(sums.tolist(), paths)


# a family's draws: law, d, scale, a, drift, up to 2^CHAINING_MAX_D + 1
# profile entries, then row_seed right after the profile
_FAMILY_DRAWS = 5 + (2 ** CHAINING_MAX_D + 1) + 1


def _integer_thresholds(count: int) -> np.ndarray:
    # z >= ceil(k 2^64 / count) exactly when (count z) >> 64 >= k, so the
    # number of these thresholds at or below z is that high word
    return np.array([-(-(k << 64) // count) for k in range(1, count)], dtype=np.uint64)


def random_dyadic_families(seed: int, indices) -> list[RandomFamily]:
    """Families ``indices`` under ``seed``: a varied zoo of L2 sequences
    (iid and +-1 walks, AR(1), a shared factor times a profile, and drifting
    sums, which are not martingales); the chaining bound holds for all.

    Family ``i`` takes its law, ``d`` in ``1..CHAINING_MAX_D`` and
    parameters from the draws of counter stream ``i`` under ``seed`` (see
    :mod:`qclt.rng`), in that order: the law, ``d``, ``scale`` in [0.2, 2),
    ``a`` in [-0.9, 0.9), ``drift`` in [0, 2/3), the factor law's
    ``2^d + 1`` profile entries in [-1, 1), and ``row_seed``.  An integer in
    ``[0, count)`` is the high word of ``count`` times its draw and a value
    in ``[lo, hi)`` is ``lo + (hi - lo) u``, as :class:`qclt.rng.Stream`
    draws them.  Every family's draws are made in one numpy pass.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        return []
    keys = rng.stream_keys(seed, int(idx.max()) + 1)[idx]
    # draw j of a stream is mix64(key + (j + 1) GOLDEN), wrapping in uint64 arrays
    z = keys[:, None] + np.arange(1, _FAMILY_DRAWS + 1, dtype=np.uint64) * np.uint64(rng.GOLDEN)
    rng.mix64_into(z, np.empty_like(z))
    u = (z >> np.uint64(11)) * rng.TWO_NEG53

    def uniform(col, lo, hi):
        return lo + (hi - lo) * u[:, col]

    laws = np.searchsorted(_integer_thresholds(kernels.LAW_COUNT), z[:, 0], side="right")
    ds = 1 + np.searchsorted(_integer_thresholds(CHAINING_MAX_D), z[:, 1], side="right")
    columns = (uniform(2, 0.2, 2.0), uniform(3, -0.9, 0.9), uniform(4, 0.0, 2.0 / 3.0))
    profiles = uniform(slice(5, None), -1.0, 1.0)
    widths = np.where(laws == kernels.LAW_FACTOR, 2 ** ds + 1, 0)
    row_seeds = z[np.arange(idx.size), 5 + widths]
    return [RandomFamily(law, d, scale, a, drift, profiles[i, :width].copy(), row_seed)
            for i, (law, d, scale, a, drift, width, row_seed) in enumerate(zip(
                laws.tolist(), ds.tolist(), *(c.tolist() for c in columns),
                widths.tolist(), row_seeds.tolist()))]


def check_chaining_deterministic() -> CheckResult:
    spike = chaining_maximal_check(DyadicFamily.deterministic([0.0, 1.0, 0.0]))
    flat = chaining_maximal_check(DyadicFamily.deterministic([2.0] * 5))
    ok = (spike.ok and abs(spike.lhs - 1.0) <= 1e-12
          and abs(spike.rhs - math.sqrt(2.0)) <= 1e-12
          and flat.ok and flat.lhs == 0.0 and flat.rhs == 0.0)
    return CheckResult("chaining deterministic cases", ok,
                       f"lhs={spike.lhs:.6g} rhs={spike.rhs:.6g}")


def check_chaining_randomized(families: int, paths: int) -> CheckResult:
    violations = 0
    worst = math.inf
    for family in random_dyadic_families(2024, range(families)):
        res = family.check(paths)
        worst = min(worst, res.rhs + res.slack - res.lhs)
        violations += 0 if res.ok else 1
    return CheckResult(f"chaining over {families} random families",
                       violations == 0,
                       f"violations={violations} min margin={worst:.3e}")


# -- domination --------------------------------------------------------------

def check_domination_equality() -> CheckResult:
    chain = two_state_chain(0.25)
    f = sign_observable(chain)
    seq = kernel_dyadic_sequence(chain, f, 5)
    rep = dyadic_domination_check(spectral_measure(chain, f), seq)
    # the hypothesis is an identity here: the worst slack must be ~0
    ok = rep.ok and abs(rep.cond_worst_slack) <= 1e-9
    return CheckResult("domination bound holds with equality", ok,
                       f"{_roundoff('|worst slack|', abs(rep.cond_worst_slack))} "
                       f"max_msq={rep.max_msq:.6g} bound={rep.max_bound:.6g}")


def check_domination_violation() -> CheckResult:
    chain = two_state_chain(0.25)
    f = sign_observable(chain)
    measure = spectral_measure(chain, f)
    shrunk = SpectralMeasure(measure.locations, 0.5 * measure.masses)
    seq = kernel_dyadic_sequence(chain, f, 5)
    try:
        dyadic_domination_check(shrunk, seq)
    except CondViolated as exc:
        return CheckResult("domination detects a shrunken measure", True, str(exc))
    return CheckResult("domination detects a shrunken measure", False,
                       "no violation reported")


def check_dyadic_block_bound(D: int) -> CheckResult:
    draw = Stream(5)
    chains = [two_state_chain(0.25), iid_chain(), flip_chain()]
    chains += [random_reversible_chain(draw, draw.integer(3, 8)) for _ in range(3)]
    worst = -math.inf
    for chain in chains:
        f = sign_observable(chain)
        lhs, rhs = dyadic_block_maxsum(chain, f, D)
        worst = max(worst, lhs - rhs)
    return CheckResult(f"dyadic block maxima bounded (D={D})", worst <= 1e-12,
                       f"max(lhs - rhs)={worst:.3e}")


def check_log_envelope() -> CheckResult:
    n_max = 24
    grid = np.array([-0.99, -0.9, -0.5, 0.0, 0.3, 0.7, 0.9, 0.99, 0.999999])
    grid = grid[np.abs(grid) <= 1 - 1e-8]
    r1, loc1 = log_envelope_ratio(grid, n_max)
    r2, _ = log_envelope_ratio(grid, 2 * n_max)
    stable = abs(r2 - r1) <= 0.01 * max(abs(r1), 1e-12)
    ok = math.isfinite(r1) and stable
    return CheckResult("log-envelope ratio finite and stable", ok,
                       f"ratio={r1:.6g} at t={loc1:.4g}; doubled={r2:.6g}")


# -- cross-module identities ---------------------------------------------------

def check_gap_equivalence(chains: int, n_max: int) -> CheckResult:
    draw = Stream(7)
    worst = 0.0
    for _ in range(chains):
        chain = random_reversible_chain(draw, draw.integer(3, 13))
        f = random_observable(draw, chain)
        direct = kernel_gap_msq_table(chain, f, n_max)
        spectral = kernel_gap_msq_spectral_table(spectral_measure(chain, f), n_max)
        # both tables are zero off the upper triangle 1 <= m < n <= n_max
        gap = np.abs(direct - spectral) / (1.0 + np.abs(direct))
        worst = max(worst, float(np.max(gap)))
    return CheckResult(f"horizon-gap moments agree ({chains} chains)",
                       worst <= 1e-9, _roundoff("worst rel gap", worst))


def check_sigma_triangulation(n: int) -> CheckResult:
    draw = Stream(11)
    cases = [two_state_chain(0.25), iid_chain(),
             random_reversible_chain(draw, 5), random_reversible_chain(draw, 9)]
    worst_pair = 0.0
    ok = True
    for chain in cases:
        f = random_observable(draw, chain)
        measure = spectral_measure(chain, f)
        s_spec = spectral_integral(measure, "sigma_sq")
        s_scheme = poisson_solve(chain, f).sigma_sq
        worst_pair = max(worst_pair, abs(s_spec - s_scheme) / (1.0 + abs(s_spec)))
        growth = variance_growth(chain, f, n)
        # 1e-12 floor: the bound is exactly 0 for an atom at t = 0, while
        # the float evaluation of var(S_n)/n leaves machine roundoff
        ok = ok and abs(growth - s_spec) <= 4.0 * variance_tail_constant(measure) / n + 1e-12
    ok = ok and worst_pair <= 1e-9
    return CheckResult("sigma^2 triangulation", ok,
                       _roundoff("worst scheme/spectral gap", worst_pair))


def check_martingale_property() -> CheckResult:
    draw = Stream(13)
    worst = 0.0
    for chain in [two_state_chain(0.25), iid_chain(),
                  random_reversible_chain(draw, 6), random_reversible_chain(draw, 11)]:
        f = random_observable(draw, chain)
        scheme = poisson_solve(chain, f)
        cond = np.abs(np.sum(chain.kernel * scheme.diff_kernel, axis=1))
        worst = max(worst, float(np.max(cond)))
    return CheckResult("conditional centering of the difference kernel",
                       worst <= 1e-12, _roundoff("max |E[H|x]|", worst))


def check_telescoping() -> CheckResult:
    worst = 0.0
    for chain in [two_state_chain(0.25), iid_chain()]:
        f = sign_observable(chain)
        scheme = poisson_solve(chain, f)
        rep = simulate_quenched(chain, scheme, 0, 256, 1000, seed=17)
        worst = max(worst, rep.residual_max)
    return CheckResult("pathwise telescoping residual", worst <= 1e-9,
                       _roundoff("max residual", worst))


def check_group_identities() -> CheckResult:
    walk = build_group_walk([5], {1: 0.5, 4: 0.5})
    f = center_observable(walk.chain,
                          math.sqrt(2.0) * np.cos(2.0 * math.pi * np.arange(5) / 5.0))
    nuhat, _ = walk_fourier(walk, f)
    # LAPACK eigenvalues (ascending) against the characters' multipliers
    eigvals, _ = chain_spectrum(walk.chain)
    gap_eigs = float(np.max(np.abs(eigvals - np.sort(nuhat.real))))
    rep = condition_sums(walk, f)
    gap_sr = abs(rep.sr_sum - rep.sr_spectral)
    ok = gap_eigs <= 1e-9 and gap_sr <= 1e-9
    return CheckResult("group walk Fourier/eigensolver identities", ok,
                       f"{_roundoff('eig gap', gap_eigs)} {_roundoff('SR gap', gap_sr)}")


_TORUS_CHUNK = 1 << 14


def torus_identity_gap(n_limit: int) -> float:
    """``max |(1 - cos 2 pi d) - (1 - nuhat(n))|`` over ``1 <= n <= n_limit``,
    ``d`` the distance of ``n * GOLDEN_ALPHA`` to the nearest integer and
    ``1 - nuhat(n)`` the multiplier gap that
    :func:`qclt.group_walk.torus_multiplier_gap` gives the golden walk.

    Evaluated ``_TORUS_CHUNK`` frequencies at a time, so no temporary grows
    with ``n_limit``; every element is computed as in one pass, and each
    chunk's distances are taken once, for both sides.
    """
    walk = make_torus_walk(GOLDEN_ALPHA)
    gap = 0.0
    for lo in range(1, n_limit + 1, _TORUS_CHUNK):
        ns = np.arange(lo, min(lo + _TORUS_CHUNK, n_limit + 1))
        dist = nearest_integer_distance(ns, walk.alpha)
        gap = max(gap, float(np.max(np.abs((1.0 - np.cos(2.0 * np.pi * dist))
                                           - _multiplier_gap_at(walk, dist)))))
    return gap


def check_torus_identities(n_limit: int) -> CheckResult:
    gap = torus_identity_gap(n_limit)
    qs = [q for _, q in convergents(GOLDEN_ALPHA, n_limit)]
    fib = [1, 1]
    while fib[-1] + fib[-2] <= n_limit:
        fib.append(fib[-1] + fib[-2])
    ok = gap <= 1e-12 and qs == fib[: len(qs)] and len(qs) >= 5
    return CheckResult("torus trig identity and golden convergents", ok,
                       f"{_roundoff('max identity gap', gap)} denominators={qs[:8]}")


def run_suite(quick: bool = False):
    """Run every check; returns the list of results."""
    if quick:
        sizes = dict(families=100, paths=2000, block_d=6, chains=5,
                     gap_n=16, growth_n=2 ** 10, torus_n=10 ** 4)
    else:
        sizes = dict(families=1000, paths=10 ** 4, block_d=10, chains=25,
                     gap_n=64, growth_n=2 ** 14, torus_n=10 ** 6)
    return [
        check_chaining_deterministic(),
        check_chaining_randomized(sizes["families"], sizes["paths"]),
        check_domination_equality(),
        check_domination_violation(),
        check_dyadic_block_bound(sizes["block_d"]),
        check_log_envelope(),
        check_gap_equivalence(sizes["chains"], sizes["gap_n"]),
        check_sigma_triangulation(sizes["growth_n"]),
        check_martingale_property(),
        check_telescoping(),
        check_group_identities(),
        check_torus_identities(sizes["torus_n"]),
    ]
