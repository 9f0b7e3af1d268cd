"""Identity and inequality suite behind the ``verify`` CLI subcommand.

Each check returns a :class:`CheckResult`; the suite passes only if every
check does.  Sizes shrink under ``quick`` but no check is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import FiniteChain, center_observable, make_chain
from .errors import CondViolated
from .group_walk import (
    GOLDEN_ALPHA,
    build_group_walk,
    condition_sums,
    convergents,
    make_torus_walk,
    nearest_integer_distance,
    walk_fourier,
)
from .inequalities import (
    DyadicFamily,
    chaining_maximal_check,
    dyadic_block_maxsum,
    dyadic_domination_check,
    kernel_dyadic_sequence,
    log_envelope_ratio,
)
from .martingale import kernel_gap_msq_table, poisson_solve
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


# -- fixtures ----------------------------------------------------------------

def two_state_chain(p: float = 0.25) -> FiniteChain:
    return make_chain(["0", "1"], [[1.0 - p, p], [p, 1.0 - p]])


def iid_chain() -> FiniteChain:
    return two_state_chain(0.5)


def flip_chain() -> FiniteChain:
    return make_chain(["0", "1"], [[0.0, 1.0], [1.0, 0.0]])


def random_reversible_chain(rng: np.random.Generator, size: int) -> FiniteChain:
    # random walk on a weighted complete graph: symmetric weights give
    # detailed balance with pi proportional to the row sums (make_chain
    # solves for it)
    w = rng.uniform(0.1, 1.0, size=(size, size))
    w = 0.5 * (w + w.T)
    kernel = w / w.sum(axis=1, keepdims=True)
    return make_chain([str(i) for i in range(size)], kernel)


def random_observable(rng: np.random.Generator, chain: FiniteChain):
    return center_observable(chain, rng.uniform(-1.0, 1.0, size=chain.n_states))


def sign_observable(chain: FiniteChain):
    raw = np.where(np.arange(chain.n_states) % 2 == 0, 1.0, -1.0)
    return center_observable(chain, raw)


# -- chaining ----------------------------------------------------------------

CHAINING_MAX_D = 5


def random_dyadic_family(rng: np.random.Generator, d: int, paths: int,
                         out: np.ndarray | None = None) -> DyadicFamily:
    """A varied zoo of L2 sequences: iid walks, AR(1), shared factors, and
    non-martingale drifts; the chaining bound is unconditional over all.

    The draws fill the first ``paths * (2^d + 1)`` items of ``out``, a
    float64 workspace reused across families, or a new array if ``out`` is
    None; a family drawn into ``out`` holds until the next draw into it.
    Walks keep their increments and AR(1) its noise, and the check builds
    the sequence from them.  The ``out=`` draws consume the generator as
    ``normal(0, s, size)``, ``choice([-1, 1], size)`` and
    ``exponential(1, size)`` do and give the same values: ``s * N``,
    ``2 i - 1`` for ``i`` of ``integers(0, 2, size)``, and ``E``.
    """
    count = 2 ** d + 1
    buf = np.empty(paths * count) if out is None else out[:paths * count]
    z = buf.reshape(paths, count)
    shape = rng.integers(0, 5)
    if shape == 0:       # random walk with scaled gaussian increments
        scale = rng.uniform(0.2, 2.0)
        rng.standard_normal(out=z)
        z *= scale
        return DyadicFamily.from_recursion(z, 1.0)
    if shape == 1:       # +-1 martingale random walk: the draws of choice([-1, 1])
        np.multiply(rng.integers(0, 2, size=z.shape), 2.0, out=z)
        z -= 1.0
        return DyadicFamily.from_recursion(z, 1.0)
    if shape == 2:       # AR(1) with random coefficient
        a = rng.uniform(-0.9, 0.9)
        rng.standard_normal(out=z)
        return DyadicFamily.from_recursion(z, a)
    if shape == 3:       # shared factor times deterministic profile
        factor = rng.standard_normal(paths)
        profile = rng.uniform(-1.0, 1.0, size=count)
        rng.standard_normal(out=z)
        z *= 0.1
        for k in range(count):      # one column at a time: no (paths, count) temporary
            z[:, k] += factor * profile[k]
        return DyadicFamily.from_samples(z)
    # drifting exponential sums (not a martingale)
    rng.standard_exponential(out=z)
    z -= rng.uniform(0.0, 2.0)
    return DyadicFamily.from_recursion(z, 1.0)


def check_chaining_deterministic() -> CheckResult:
    spike = chaining_maximal_check(DyadicFamily.deterministic([0.0, 1.0, 0.0]))
    flat = chaining_maximal_check(DyadicFamily.deterministic([2.0] * 5))
    ok = (spike.ok and abs(spike.lhs - 1.0) <= 1e-12
          and abs(spike.rhs - math.sqrt(2.0)) <= 1e-12
          and flat.ok and flat.lhs == 0.0 and flat.rhs == 0.0)
    return CheckResult("chaining deterministic cases", ok,
                       f"lhs={spike.lhs:.6g} rhs={spike.rhs:.6g}")


def check_chaining_randomized(families: int, paths: int, seed: int = 2024) -> CheckResult:
    rng = np.random.default_rng(seed)
    workspace = np.empty(paths * (2 ** CHAINING_MAX_D + 1))
    violations = 0
    worst = math.inf
    for _ in range(families):
        d = int(rng.integers(1, CHAINING_MAX_D + 1))
        fam = random_dyadic_family(rng, d, paths, out=workspace)
        res = chaining_maximal_check(fam)
        worst = min(worst, res.rhs + res.slack - res.lhs)
        violations += 0 if res.ok else 1
    return CheckResult(f"chaining over {families} random families",
                       violations == 0,
                       f"violations={violations} min margin={worst:.3e}")


# -- domination --------------------------------------------------------------

def check_domination_equality(M: int = 5) -> CheckResult:
    chain = two_state_chain(0.25)
    f = sign_observable(chain)
    seq = kernel_dyadic_sequence(chain, f, M)
    rep = dyadic_domination_check(spectral_measure(chain, f), seq)
    # the hypothesis is an identity here: the worst slack must be ~0
    ok = rep.ok and abs(rep.cond_worst_slack) <= 1e-9
    return CheckResult("domination bound holds with equality", ok,
                       f"worst slack={rep.cond_worst_slack:.3e} "
                       f"max_msq={rep.max_msq:.6g} bound={rep.max_bound:.6g}")


def check_domination_violation(M: int = 5) -> CheckResult:
    chain = two_state_chain(0.25)
    f = sign_observable(chain)
    measure = spectral_measure(chain, f)
    shrunk = SpectralMeasure(measure.locations, 0.5 * measure.masses,
                             total=0.5 * measure.total)
    seq = kernel_dyadic_sequence(chain, f, M)
    try:
        dyadic_domination_check(shrunk, seq)
    except CondViolated as exc:
        return CheckResult("domination detects a shrunken measure", True, str(exc))
    return CheckResult("domination detects a shrunken measure", False,
                       "no violation reported")


def check_dyadic_block_bound(D: int, seed: int = 5) -> CheckResult:
    rng = np.random.default_rng(seed)
    chains = [two_state_chain(0.25), iid_chain(), flip_chain()]
    chains += [random_reversible_chain(rng, int(rng.integers(3, 8))) for _ in range(3)]
    worst = -math.inf
    for chain in chains:
        f = sign_observable(chain)
        lhs, rhs = dyadic_block_maxsum(chain, f, D)
        worst = max(worst, lhs - rhs)
    return CheckResult(f"dyadic block maxima bounded (D={D})", worst <= 1e-12,
                       f"max(lhs - rhs)={worst:.3e}")


def check_log_envelope(n_max: int = 24) -> CheckResult:
    grid = np.array([-0.99, -0.9, -0.5, 0.0, 0.3, 0.7, 0.9, 0.99, 0.999999])
    grid = grid[np.abs(grid) <= 1 - 1e-8]
    r1, loc1 = log_envelope_ratio(grid, n_max)
    r2, _ = log_envelope_ratio(grid, 2 * n_max)
    stable = abs(r2 - r1) <= 0.01 * max(abs(r1), 1e-12)
    ok = math.isfinite(r1) and stable
    return CheckResult("log-envelope ratio finite and stable", ok,
                       f"ratio={r1:.6g} at t={loc1:.4g}; doubled={r2:.6g}")


# -- cross-module identities ---------------------------------------------------

def check_gap_equivalence(chains: int, n_max: int, seed: int = 7) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(chains):
        chain = random_reversible_chain(rng, int(rng.integers(3, 13)))
        f = random_observable(rng, chain)
        direct = kernel_gap_msq_table(chain, f, n_max)
        spectral = kernel_gap_msq_spectral_table(spectral_measure(chain, f), n_max)
        # both tables are zero off the upper triangle 1 <= m < n <= n_max
        gap = np.abs(direct - spectral) / (1.0 + np.abs(direct))
        worst = max(worst, float(np.max(gap)))
    return CheckResult(f"horizon-gap moments agree ({chains} chains)",
                       worst <= 1e-9, f"worst rel gap={worst:.3e}")


def check_sigma_triangulation(n: int, seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = [two_state_chain(0.25), iid_chain(),
             random_reversible_chain(rng, 5), random_reversible_chain(rng, 9)]
    worst_pair = 0.0
    ok = True
    for chain in cases:
        f = random_observable(rng, chain)
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
                       f"worst scheme/spectral gap={worst_pair:.3e}")


def check_martingale_property(seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for chain in [two_state_chain(0.25), iid_chain(),
                  random_reversible_chain(rng, 6), random_reversible_chain(rng, 11)]:
        f = random_observable(rng, chain)
        scheme = poisson_solve(chain, f)
        cond = np.abs(np.sum(chain.kernel * scheme.diff_kernel, axis=1))
        worst = max(worst, float(np.max(cond)))
    return CheckResult("conditional centering of the difference kernel",
                       worst <= 1e-12, f"max |E[H|x]|={worst:.3e}")


def check_telescoping(paths: int = 1000, seed: int = 17) -> CheckResult:
    worst = 0.0
    for chain in [two_state_chain(0.25), iid_chain()]:
        f = sign_observable(chain)
        scheme = poisson_solve(chain, f)
        rep = simulate_quenched(chain, scheme, 0, 256, max(paths, 100), seed=seed)
        worst = max(worst, rep.residual_max)
    return CheckResult("pathwise telescoping residual", worst <= 1e-9,
                       f"max residual={worst:.3e}")


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
                       f"eig gap={gap_eigs:.3e} SR gap={gap_sr:.3e}")


_TORUS_CHUNK = 1 << 16


def torus_identity_gap(n_limit: int) -> float:
    """``max |(1 - cos 2 pi d) - 2 sin^2(pi d)|`` over ``d`` the distance of
    ``n * GOLDEN_ALPHA`` to the nearest integer, ``1 <= n <= n_limit``.

    Evaluated ``_TORUS_CHUNK`` frequencies at a time, so no temporary grows
    with ``n_limit``; every element is computed as in one pass.
    """
    gap = 0.0
    for lo in range(1, n_limit + 1, _TORUS_CHUNK):
        dist = nearest_integer_distance(np.arange(lo, min(lo + _TORUS_CHUNK, n_limit + 1)),
                                        GOLDEN_ALPHA)
        gap = max(gap, float(np.max(np.abs((1.0 - np.cos(2.0 * np.pi * dist))
                                           - 2.0 * np.sin(np.pi * dist) ** 2))))
    return gap


def check_torus_identities(n_limit: int) -> CheckResult:
    gap = torus_identity_gap(n_limit)
    walk = make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5})
    qs = [q for _, q in convergents(walk.alpha, n_limit)]
    fib = [1, 1]
    while fib[-1] + fib[-2] <= n_limit:
        fib.append(fib[-1] + fib[-2])
    ok = gap <= 1e-12 and qs == fib[: len(qs)] and len(qs) >= 5
    return CheckResult("torus trig identity and golden convergents", ok,
                       f"max identity gap={gap:.3e} denominators={qs[:8]}")


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
