"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qclt.chain import center_observable, make_chain
from qclt.group_walk import (
    GOLDEN_ALPHA,
    build_group_walk,
    condition_sums,
    convergents,
    make_torus_walk,
    nearest_integer_distance,
    torus_multiplier_gap,
    walk_fourier,
)
from qclt.inequalities import DyadicFamily, chaining_maximal_check, dyadic_block_maxsum
from qclt.martingale import (
    kernel_gap_msq_table,
    poisson_solve,
    projection_series,
    quenched_diagnostics,
    tail_sup_deviation,
)
from qclt.simulate import simulate_quenched
from qclt.spectral import (
    spectral_integral,
    spectral_measure,
    variance_growth,
    variance_tail_constant,
)
from qclt.verify import random_dyadic_families
from tests.conftest import sign_of
from tests.oracles import jacobi_eigh, kernel_gap_msq_spectral
from tests.test_chain import random_reversible


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{name}]: FAIL")
        raise
    else:
        print(f"criterion {num:02d} [{name}]: PASS")


def fixture_two_state():
    return make_chain(["0", "1"], [[0.75, 0.25], [0.25, 0.75]])


def test_c01_gap_moment_oracle_equivalence():
    with criterion(1, "horizon-gap oracle equivalence, 25 random chains"):
        start = time.time()
        rng = np.random.default_rng(20240915)
        worst = 0.0
        for _ in range(25):
            chain = random_reversible(rng, int(rng.integers(3, 13)))
            f = center_observable(chain, rng.normal(size=chain.n_states))
            table = kernel_gap_msq_table(chain, f, 64)
            measure = spectral_measure(chain, f)
            for m in range(1, 64):
                for n in range(m + 1, 65):
                    spec = kernel_gap_msq_spectral(measure, m, n)
                    direct = table[m - 1, n - 1]
                    worst = max(worst, abs(direct - spec) / (1.0 + abs(direct)))
        elapsed = time.time() - start
        assert worst <= 1e-9, f"worst relative gap {worst}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c02_closed_form_fixture():
    with criterion(2, "closed-form two-state scheme"):
        chain = fixture_two_state()
        f = sign_of(chain)
        scheme = poisson_solve(chain, f)
        np.testing.assert_allclose(scheme.g, [2.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(scheme.diff_kernel, [[1.0, -3.0], [3.0, -1.0]],
                                   atol=1e-12)
        assert abs(scheme.sigma_sq - 3.0) <= 1e-12
        assert abs(variance_growth(chain, f, 2) - 1.5) <= 1e-12


def test_c03_sigma_sq_triangulation():
    with criterion(3, "sigma^2 triangulation at n=2^14"):
        chain = fixture_two_state()
        f = sign_of(chain)
        measure = spectral_measure(chain, f)
        s_spec = spectral_integral(measure, "sigma_sq")
        s_scheme = poisson_solve(chain, f).sigma_sq
        assert abs(s_spec - s_scheme) <= 1e-9 * abs(s_spec)
        n = 2 ** 14
        c = variance_tail_constant(measure)
        assert abs(variance_growth(chain, f, n) - s_spec) <= 4.0 * c / n


def test_c04_martingale_property():
    with criterion(4, "conditional centering <= 1e-12 on every chain"):
        rng = np.random.default_rng(4)
        chains = [fixture_two_state(),
                  make_chain("01", [[0.5, 0.5], [0.5, 0.5]]),
                  build_group_walk([5], {1: 0.5, 4: 0.5}).chain]
        chains += [random_reversible(rng, int(rng.integers(3, 13)))
                   for _ in range(10)]
        for chain in chains:
            f = center_observable(chain, rng.normal(size=chain.n_states))
            scheme = poisson_solve(chain, f)
            worst = float(np.max(np.abs(
                np.sum(chain.kernel * scheme.diff_kernel, axis=1))))
            assert worst <= 1e-12, f"centering defect {worst}"


def test_c05_telescoping_residual():
    with criterion(5, "pathwise telescoping and exact residual moment"):
        two = fixture_two_state()
        iid = make_chain("01", [[0.5, 0.5], [0.5, 0.5]])
        for chain in (two, iid):
            f = sign_of(chain)
            scheme = poisson_solve(chain, f)
            rep = simulate_quenched(chain, scheme, 0, 256, 1000, seed=42)
            assert rep.residual_max <= 1e-9
        scheme = poisson_solve(two, sign_of(two))
        diag = quenched_diagnostics(two, scheme, [0], [3])[0]
        assert abs(diag.residual_msq - 1.75) <= 1e-12


def test_c06_quenched_clt_desk_scale():
    with criterion(6, "fixed-start CLT, n=4096, 1e5 paths, both starts"):
        chain = fixture_two_state()
        f = sign_of(chain)
        scheme = poisson_solve(chain, f)
        reports = {}
        for start, workers in ((0, 1), (1, 2)):
            t0 = time.time()
            rep = simulate_quenched(chain, scheme, start, 4096, 100_000,
                                    seed=20240915, workers=workers)
            elapsed = time.time() - t0
            assert elapsed < 60.0, f"start {start} took {elapsed:.1f}s"
            assert rep.ks_distance <= 0.02, f"KS {rep.ks_distance} at start {start}"
            assert abs(rep.sample_var - 3.0) <= 0.05 * 3.0
            reports[start] = rep
        rerun = simulate_quenched(chain, scheme, 0, 4096, 100_000,
                                  seed=20240915, workers=3)
        assert rerun == reports[0], "thread count changed the report"


def test_c07_tail_sup_decay():
    with criterion(7, "tail-sup deviation decays at rate^2"):
        chain = fixture_two_state()
        scheme = poisson_solve(chain, sign_of(chain))
        values = {n: tail_sup_deviation(chain, scheme, n) for n in range(5, 10)}
        for n in range(5, 9):
            ratio = values[n + 1] / values[n]
            assert 0.2 <= ratio <= 0.3, f"ratio {ratio} at N={n}"
        iid = make_chain("01", [[0.5, 0.5], [0.5, 0.5]])
        f = sign_of(iid)
        assert tail_sup_deviation(iid, poisson_solve(iid, f), 0) == 0.0


def test_c08_dyadic_block_bound():
    with criterion(8, "dyadic block maxima below the spectral bound, D=10"):
        rng = np.random.default_rng(8)
        fixtures = [fixture_two_state(),
                    make_chain("01", [[0.5, 0.5], [0.5, 0.5]]),
                    make_chain("01", [[0.0, 1.0], [1.0, 0.0]]),
                    build_group_walk([5], {1: 0.5, 4: 0.5}).chain]
        fixtures += [random_reversible(rng, int(rng.integers(3, 7)))
                     for _ in range(3)]
        for chain in fixtures:
            f = sign_of(chain)
            lhs, rhs = dyadic_block_maxsum(chain, f, 10)
            assert lhs <= rhs + 1e-12, f"lhs {lhs} > rhs {rhs}"


def test_c09_chaining_inequality():
    with criterion(9, "chaining bound: deterministic + 1000 random families"):
        spike = chaining_maximal_check(DyadicFamily.deterministic([0.0, 1.0, 0.0]))
        assert spike.ok and abs(spike.lhs - 1.0) <= 1e-12
        assert abs(spike.rhs - math.sqrt(2.0)) <= 1e-12
        violations = 0
        for fam in random_dyadic_families(909, range(1000)):
            violations += 0 if fam.check(10_000).ok else 1
        assert violations == 0, f"{violations} violations"


def test_c10_group_walk_cross_validation():
    with criterion(10, "group-walk Fourier vs eigensolver"):
        walk = build_group_walk([5], {1: 0.5, 4: 0.5})
        rt = np.sqrt(walk.chain.stationary)
        sym = rt[:, None] * walk.chain.kernel / rt[None, :]
        eigvals, _ = jacobi_eigh(0.5 * (sym + sym.T))
        c1, c2 = math.cos(2 * math.pi / 5), math.cos(4 * math.pi / 5)
        expected = np.sort([1.0, c1, c1, c2, c2])
        np.testing.assert_allclose(np.sort(eigvals), expected, atol=1e-9)
        f = center_observable(walk.chain,
                              math.sqrt(2.0) * np.cos(2 * math.pi * np.arange(5) / 5))
        rep = condition_sums(walk, f)
        assert abs(rep.sr_sum - 1.447213596) <= 1e-9
        assert abs(rep.sr_sum - rep.sr_spectral) <= 1e-9
        rotation = build_group_walk([3], {1: 1.0})
        g = center_observable(rotation.chain,
                              math.sqrt(2.0) * np.cos(2 * math.pi * np.arange(3) / 3))
        assert abs(condition_sums(rotation, g).sr_sum - 3.0 ** -0.5) <= 1e-9


def test_c11_torus_diagnostics():
    with criterion(11, "torus identity, ratios, Fibonacci convergents"):
        ns = np.arange(1, 10 ** 6 + 1)
        dist = nearest_integer_distance(ns, GOLDEN_ALPHA)
        lhs = 1.0 - np.cos(2.0 * np.pi * dist)
        rhs = 2.0 * np.sin(np.pi * dist) ** 2
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-12
        walk = make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5})
        fib = [1, 1]
        while fib[-1] + fib[-2] <= 10 ** 4:
            fib.append(fib[-1] + fib[-2])
        for q in [q for q in fib if q >= 13]:
            d = float(nearest_integer_distance(q, GOLDEN_ALPHA))
            ratio = float(torus_multiplier_gap(walk, q)) / (2 * math.pi ** 2 * d * d)
            assert abs(ratio - 1.0) <= 5e-3, f"ratio {ratio} at q={q}"
        qs = [q for _, q in convergents(GOLDEN_ALPHA, 10 ** 4)]
        assert qs == fib[: len(qs)] and qs[-1] == fib[len(qs) - 1]
        assert sorted(set(qs)) == sorted(set(q for q in fib if q <= 10 ** 4))


def test_c12_series_diagnostics():
    with criterion(12, "summability series: fixture values and Cauchy tails"):
        chain = fixture_two_state()
        f = sign_of(chain)
        K = 61
        rep = projection_series(chain, f, 2 * K)
        assert abs(rep.mixing_partial[1] - 0.676777) <= 1e-6
        # The projection and mixing terms decay geometrically (rate 1/2 here),
        # so the j = K term, at index K-1, is negligible.
        pr_inc = rep.projection_partial[K - 1] - rep.projection_partial[K - 2]
        mix_inc = rep.mixing_partial[K - 1] - rep.mixing_partial[K - 2]
        assert pr_inc < 1e-10
        assert mix_inc < 1e-10
        # The resolvent terms decay only like (log log j)^2 / j^2.  Here
        # Qf = f/2 and ||f||^2 = 1, so V_j f = 2 (1 - 2^-j) f and the j-th
        # term is exactly 4 (1 - 2^-j)^2 (log log max(j, 3))^2 / j^2
        # (2.148e-3 at j = K = 61, resolvent_partial[60]).
        j = np.arange(1, 2 * K + 1, dtype=float)
        terms = 4.0 * (1.0 - 2.0 ** -j) ** 2 * np.log(np.log(np.maximum(j, 3.0))) ** 2 / j ** 2
        np.testing.assert_allclose(
            rep.resolvent_partial, np.cumsum(terms), rtol=1e-12, atol=0.0,
            err_msg="resolvent_partial[:122] differs from the closed-form partial sums")
        # Certified Cauchy tail: ||V_j f||^2 <= 4, the log-log weight is
        # increasing and sum_{K<j<=2K} j^-2 <= 1/(2K), so the block over
        # K < j <= 2K is at most 4 (log log 2K)^2 / (2K).
        block = rep.resolvent_partial[2 * K - 1] - rep.resolvent_partial[K - 1]
        bound = 4.0 * math.log(math.log(2 * K)) ** 2 / (2 * K)
        assert block <= bound, (
            f"resolvent block sum over {K} < j <= {2 * K} "
            f"(resolvent_partial[{2 * K - 1}] - resolvent_partial[{K - 1}]) is "
            f"{block:.4e}, above the certified bound 4 (log log {2 * K})^2 / {2 * K} = {bound:.4e}")
