import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qclt.chain import adjoint_kernel, center_observable
from qclt.errors import (
    BadProbabilities,
    DegenerateSigma,
    DimensionMismatch,
    EmptySample,
    EmptySupport,
    NonFiniteValue,
    NotErgodic,
    RationalAlpha,
)
from qclt.group_walk import (
    GOLDEN_ALPHA,
    ConditionReport,
    GroupWalk,
    TorusRow,
    build_group_walk,
    condition_sums,
    convergents,
    fourier_measure,
    make_torus_walk,
    nearest_integer_distance,
    simulate_torus,
    torus_condition,
    torus_multiplier_gap,
    torus_sigma_sq,
    walk_fourier,
)
from qclt.inequalities import (
    ChainingCheck,
    DominationReport,
    DyadicFamily,
    chaining_maximal_check,
    dyadic_domination_check,
    kernel_dyadic_sequence,
)
from qclt.spectral import SpectralMeasure, spectral_integral, spectral_measure
from qclt.verify import sign_observable, torus_identity_gap, two_state_chain
from tests.oracles import jacobi_eigh, recursion_rows


def harmonic(chain, k, n):
    return center_observable(chain, math.sqrt(2.0) * np.cos(2 * math.pi * k * np.arange(n) / n))


def test_z5_build():
    walk = build_group_walk([5], {1: 0.5, 4: 0.5})
    assert walk.symmetric and walk.ergodic
    assert walk.chain.flags.reversible
    np.testing.assert_allclose(walk.chain.stationary, 0.2, atol=1e-15)
    np.testing.assert_allclose(walk.chain.kernel.sum(axis=0), 1.0, atol=1e-12)


def test_z3_rotation_build():
    walk = build_group_walk([3], {1: 1.0})
    assert not walk.symmetric
    assert walk.ergodic
    flags = walk.chain.flags
    assert flags.normal and not flags.reversible and flags.irreducible


def test_z4_subgroup_not_ergodic():
    walk = build_group_walk([4], {2: 1.0})
    assert not walk.ergodic


def test_build_validation():
    with pytest.raises(BadProbabilities):
        build_group_walk([5], {1: 0.7, 4: 0.4})
    with pytest.raises(BadProbabilities):
        build_group_walk([5], {1: -0.5, 4: 1.5})
    with pytest.raises(EmptySupport):
        build_group_walk([5], {})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_step_probability_rejected(bad):
    # a NaN atom used to fail the positivity filter and vanish silently
    with pytest.raises(NonFiniteValue):
        build_group_walk([5], {1: 0.5, 2: bad, 4: 0.5})


def test_adjoint_is_reflected_walk():
    walk = build_group_walk([3], {1: 1.0})
    reflected = build_group_walk([3], {2: 1.0})
    np.testing.assert_allclose(adjoint_kernel(walk.chain), reflected.chain.kernel,
                               atol=1e-15)
    nu1, _ = walk_fourier(walk, harmonic(walk.chain, 1, 3))
    nu2, _ = walk_fourier(reflected, harmonic(reflected.chain, 1, 3))
    np.testing.assert_allclose(nu2, np.conj(nu1), atol=1e-12)


def test_walk_fourier_values():
    walk = build_group_walk([5], {1: 0.5, 4: 0.5})
    f = harmonic(walk.chain, 1, 5)
    nuhat, fhat = walk_fourier(walk, f)
    np.testing.assert_allclose(nuhat.real, np.cos(2 * np.pi * np.arange(5) / 5), atol=1e-12)
    np.testing.assert_allclose(nuhat.imag, 0.0, atol=1e-12)
    assert nuhat[1].real == pytest.approx(0.309016994, abs=1e-9)
    masses = np.abs(fhat) ** 2
    np.testing.assert_allclose(masses, [0.0, 0.5, 0.0, 0.0, 0.5], atol=1e-12)
    delta0 = build_group_walk([5], {0: 1.0})
    nu0, _ = walk_fourier(delta0, f)
    np.testing.assert_allclose(nu0, 1.0, atol=1e-15)


def test_parseval_random_observable():
    rng = np.random.default_rng(8)
    walk = build_group_walk([2, 3], {(1, 0): 0.25, (1, 2): 0.25, (0, 1): 0.5})
    f = center_observable(walk.chain, rng.normal(size=6))
    _, fhat = walk_fourier(walk, f)
    assert float(np.sum(np.abs(fhat) ** 2)) == pytest.approx(f.norm_sq, rel=1e-12)


def test_condition_sums_z5():
    walk = build_group_walk([5], {1: 0.5, 4: 0.5})
    rep = condition_sums(walk, harmonic(walk.chain, 1, 5))
    assert rep.sr_sum == pytest.approx(1.447213596, abs=1e-9)
    assert rep.g1_sum == 0.0  # |log|1 - nuhat|| < 1 for both atoms
    assert walk.symmetric
    assert rep.sr_spectral == pytest.approx(rep.sr_sum, abs=1e-9)


def test_condition_sums_z3_rotation():
    walk = build_group_walk([3], {1: 1.0})
    rep = condition_sums(walk, harmonic(walk.chain, 1, 3))
    assert rep.sr_sum == pytest.approx(1 / math.sqrt(3.0), abs=1e-9)
    assert rep.sr_spectral is None


def test_condition_sums_zero_observable_and_not_ergodic():
    walk = build_group_walk([5], {1: 0.5, 4: 0.5})
    rep = condition_sums(walk, center_observable(walk.chain, np.zeros(5)))
    assert rep.sr_sum == rep.g1_sum == rep.sn1_sum == 0.0
    bad = build_group_walk([4], {2: 1.0})
    with pytest.raises(NotErgodic):
        condition_sums(bad, harmonic(bad.chain, 1, 4))


def test_eigenvalue_multiset_identity():
    walk = build_group_walk([5], {1: 0.5, 4: 0.5})
    f = harmonic(walk.chain, 1, 5)
    nuhat, _ = walk_fourier(walk, f)
    rt = np.sqrt(walk.chain.stationary)
    sym = rt[:, None] * walk.chain.kernel / rt[None, :]
    eigvals, _ = jacobi_eigh(0.5 * (sym + sym.T))
    np.testing.assert_allclose(np.sort(eigvals), np.sort(nuhat.real), atol=1e-9)


def test_sigma_sq_transport():
    walk = build_group_walk([5], {1: 0.5, 4: 0.5})
    f = harmonic(walk.chain, 2, 5)
    disk = fourier_measure(walk, f)
    gaps = 1.0 - disk.locations.real
    fourier_sigma = float(np.sum(disk.masses * (1.0 + disk.locations.real) / gaps))
    chain_sigma = spectral_integral(spectral_measure(walk.chain, f), "sigma_sq")
    assert fourier_sigma == pytest.approx(chain_sigma, rel=1e-9)


# -- torus ---------------------------------------------------------------------

def test_make_torus_walk_validation():
    make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5})
    with pytest.raises(RationalAlpha):
        make_torus_walk(0.5, fhat={1: 0.5})
    with pytest.raises(RationalAlpha):
        make_torus_walk(3.0 / 7.0, fhat={1: 0.5})
    with pytest.raises(BadProbabilities):
        make_torus_walk(GOLDEN_ALPHA, lazy=1.0, fhat={1: 0.5})
    with pytest.raises(DimensionMismatch):
        make_torus_walk(GOLDEN_ALPHA, fhat={0: 1.0})
    with pytest.raises(DimensionMismatch):
        make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5 + 0.1j, -1: 0.5 + 0.1j})
    folded = make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5 + 0.1j, -1: 0.5 - 0.1j})
    assert folded.fhat == ((1, 0.5 + 0.1j),)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_rejected(bad):
    with pytest.raises(NonFiniteValue):
        make_torus_walk(bad, fhat={1: 0.5})


@pytest.mark.parametrize("coeff", [complex(math.nan, 0.0), complex(0.5, math.inf), math.nan])
def test_non_finite_coefficient_rejected(coeff):
    with pytest.raises(NonFiniteValue):
        make_torus_walk(GOLDEN_ALPHA, fhat={1: coeff})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_torus_start_rejected(bad):
    walk = make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5})
    with pytest.raises(NonFiniteValue):
        simulate_torus(walk, bad, 8, 200, seed=0)


def test_convergents_golden_are_fibonacci():
    qs = [q for _, q in convergents(GOLDEN_ALPHA, 1000)]
    fib = [1, 1]
    while fib[-1] + fib[-2] <= 1000:
        fib.append(fib[-1] + fib[-2])
    assert qs == fib[: len(qs)]
    assert qs[-1] <= 1000 < qs[-1] + qs[-2]


@pytest.mark.parametrize("freq", [2 ** 60, -(2 ** 60), 10 ** 380, 2 ** 1024, 102334155])
def test_unresolved_frequency_rejected(freq):
    # each n * alpha is an integer in float64, or float(n) overflows: the gap
    # would be 0, and the torus condition and sigma^2 would divide by it
    with pytest.raises(RationalAlpha, match="integer in float64"):
        make_torus_walk(GOLDEN_ALPHA, fhat={3: 0.25, freq: 0.5})


def test_smallest_resolved_gap_is_positive():
    # F_38 * golden sits 1.1e-8 from an integer in float64; F_40 (above) rounds onto one
    walk = make_torus_walk(GOLDEN_ALPHA, fhat={3: 0.25, 39088169: 0.5})
    row = torus_condition(walk, cutoff=39088169).rows[-1]
    assert 0.0 < row.dist < 2e-8 and 0.0 < row.one_minus_nuhat
    assert row.ratio == pytest.approx(1.0, rel=1e-12)
    assert math.isfinite(row.partial_sum) and math.isfinite(torus_sigma_sq(walk))


def test_golden_distance_and_ratio():
    assert float(nearest_integer_distance(13, GOLDEN_ALPHA)) == pytest.approx(
        0.034442, abs=1e-6)
    walk = make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5})
    for q in (13, 21, 34, 55, 89, 144):
        dist = float(nearest_integer_distance(q, GOLDEN_ALPHA))
        gap = float(torus_multiplier_gap(walk, q))
        ratio = gap / (2 * math.pi ** 2 * dist ** 2)
        assert abs(ratio - 1.0) <= 5e-3
    assert gap / (2 * math.pi ** 2 * dist ** 2) == pytest.approx(1.0, abs=5e-3)


def test_trig_identity_reduced():
    ns = np.arange(1, 100_001)
    dist = nearest_integer_distance(ns, GOLDEN_ALPHA)
    lhs = 1.0 - np.cos(2 * np.pi * dist)
    rhs = 2.0 * np.sin(np.pi * dist) ** 2
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12


def test_torus_condition_report():
    walk = make_torus_walk(GOLDEN_ALPHA, lazy=0.5, fhat={1: 0.5, 13: 0.25})
    rep = torus_condition(walk, cutoff=100)
    assert [r.n for r in rep.rows] == [1, 13]
    for row in rep.rows:
        gap_expected = 0.5 * 2.0 * math.sin(math.pi * row.dist) ** 2
        assert row.one_minus_nuhat == pytest.approx(gap_expected, abs=1e-15)
        assert 0.0 <= row.dist <= 0.5
        frac = (row.n * GOLDEN_ALPHA) % 1.0
        assert row.dist.hex() == min(frac, 1.0 - frac).hex()
    assert rep.rows[-1].partial_sum >= rep.rows[0].partial_sum >= 0.0
    assert all(q <= 100 for _, q in rep.convergents)
    with pytest.raises(DimensionMismatch):
        torus_condition(walk, cutoff=5)


def test_torus_condition_refuses_a_partial_sum_that_is_not_finite():
    # the coefficients pass the walk's norm check, but each term divides by a
    # gap of about 1e-7 and overflows
    walk = make_torus_walk(GOLDEN_ALPHA, lazy=0.9999999, fhat={1: 1e153, 2: 1e153})
    with pytest.raises(NonFiniteValue, match="frequency 1 is not finite"):
        torus_condition(walk, cutoff=10)
    # one term below the overflow is reported as it is
    row, = torus_condition(make_torus_walk(GOLDEN_ALPHA, lazy=0.9999999, fhat={1: 1e150}),
                           cutoff=10).rows
    assert math.isfinite(row.partial_sum) and row.partial_sum > 1e307


@pytest.mark.parametrize("cutoff", [0, -5])
def test_torus_cutoff_below_one_rejected(cutoff):
    # with no coefficients, no frequency check stands in front of it; 0/1's
    # denominator is above such a cutoff
    walk = make_torus_walk(GOLDEN_ALPHA, fhat={})
    with pytest.raises(DimensionMismatch, match="below 1"):
        torus_condition(walk, cutoff=cutoff)
    assert torus_condition(walk, cutoff=1).convergents == ((0, 1), (1, 1))


def test_simulate_torus_zero_observable():
    # a zero sample has no KS distance to N(0, 0); finite chains refuse it too
    walk = make_torus_walk(GOLDEN_ALPHA, fhat={})
    with pytest.raises(DegenerateSigma):
        simulate_torus(walk, 0.25, 64, 500, seed=4)


def test_simulate_torus_rejects_infinite_sigma_sq():
    # sum 2 |fhat|^2 = 5e307 is accepted, but a lazy walk's (1 + nuhat) / (1 - nuhat)
    # of about 10.5 takes the limit variance past the float limit
    walk = make_torus_walk(GOLDEN_ALPHA, lazy=0.9, fhat={1: 5e153})
    with pytest.raises(NonFiniteValue):
        simulate_torus(walk, 0.0, 8, 200, seed=0)


def test_simulate_torus_needs_min_paths():
    walk = make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5})
    with pytest.raises(EmptySample):
        simulate_torus(walk, 0.0, 8, 99, seed=0)


def test_simulate_torus_huge_coefficient_scales_exactly():
    # 2^511 scales the sums exactly; the squared deviations alone would overflow
    big = 2.0 ** 511
    unit = simulate_torus(make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5}), 0.0, 8, 200, seed=3)
    huge = simulate_torus(make_torus_walk(GOLDEN_ALPHA, fhat={1: 0.5 * big}), 0.0, 8, 200,
                          seed=3)
    assert huge.sample_var == unit.sample_var * big * big
    assert huge.sample_mean == unit.sample_mean * big
    assert huge.ks_distance == unit.ks_distance


def test_simulate_torus_reproducible_and_variance():
    walk = make_torus_walk(GOLDEN_ALPHA, fhat={1: 1 / math.sqrt(2.0)})
    a = simulate_torus(walk, 0.0, 2048, 20_000, seed=21, workers=2)
    b = simulate_torus(walk, 0.0, 2048, 20_000, seed=21, workers=5)
    assert a == b
    c = 2 * math.pi * GOLDEN_ALPHA
    target = (1 + math.cos(c)) / (1 - math.cos(c))
    assert torus_sigma_sq(walk) == pytest.approx(target, rel=1e-12)
    assert a.sample_var == pytest.approx(target, rel=0.10)


@pytest.mark.parametrize("workers", [1, 2])
def test_torus_backends_agree(compiled_backend, workers):
    omegas = np.array([2 * np.pi, 6 * np.pi])
    ccos = np.array([0.7, 0.2])
    csin = np.array([0.1, -0.3])
    out = {}
    for name in compiled_backend.available_backends():
        out[name] = compiled_backend.run_torus_paths(GOLDEN_ALPHA, 0.25, omegas, ccos, csin,
                                                     0.125, 300, 400, 11, workers=workers,
                                                     backend=name)
    for name, (sums, positions) in out.items():
        np.testing.assert_array_equal(out["python"][1], positions, err_msg=name)
        np.testing.assert_array_equal(out["python"][0], sums, err_msg=name)


def test_torus_identity_gap_chunked_equals_one_shot():
    n_limit = 5 * 2 ** 16 + 123                      # several chunks plus a partial one
    dist = nearest_integer_distance(np.arange(1, n_limit + 1), GOLDEN_ALPHA)
    one_shot = np.max(np.abs((1.0 - np.cos(2.0 * np.pi * dist))
                             - 2.0 * np.sin(np.pi * dist) ** 2))
    assert torus_identity_gap(n_limit) == one_shot


def test_torus_identity_gap_memory_does_not_grow_with_the_limit():
    torus_identity_gap(10)
    tracemalloc.start()
    try:
        torus_identity_gap(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_condition_report_leaves_symmetry_to_the_walk():
    assert [f.name for f in dataclasses.fields(ConditionReport)] == [
        "sr_sum", "g1_sum", "sn1_sum", "sr_spectral"]


def test_derived_record_values_match_their_expressions():
    derived = {ChainingCheck: ["ok"], DominationReport: ["increment_bound", "ok"],
               GroupWalk: ["elements", "symmetric"], TorusRow: ["ratio"]}
    for record, names in derived.items():
        fields = {f.name for f in dataclasses.fields(record)}
        assert all(isinstance(vars(record)[name], property) for name in names)
        assert not fields & set(names)
    assert not hasattr(TorusRow, "frac") and "frac" not in {
        f.name for f in dataclasses.fields(TorusRow)}

    # each property against the expression it stands for, bit for bit
    rng = np.random.default_rng(3)
    for family in (DyadicFamily.deterministic([0.0, 1.0, 0.0]),
                   DyadicFamily.from_samples(rng.normal(size=(300, 9))),
                   DyadicFamily.from_samples(recursion_rows(rng.normal(size=(300, 5)), 0.5))):
        check = chaining_maximal_check(family)
        assert check.ok is (check.lhs <= check.rhs + check.slack)

    chain = two_state_chain(0.25)
    f = sign_observable(chain)
    seq = kernel_dyadic_sequence(chain, f, 5)
    for measure in (spectral_measure(chain, f),
                    SpectralMeasure(np.array([0.5, -0.25]), np.array([2.0, 1.0]))):
        rep = dyadic_domination_check(measure, seq)
        increment = (math.pi ** 2 / 6.0) * rep.dyadic_bound_sum
        assert rep.increment_bound.hex() == increment.hex()
        bound = 3.0 * (seq.msq(1) + increment + rep.dyadic_bound_sum)
        assert rep.max_bound.hex() == bound.hex()
        assert rep.ok is (rep.max_msq <= bound + 1e-9 * (1.0 + bound))

    for moduli, atoms in [((5,), {1: 0.5, 4: 0.5}), ((7,), {0: 0.5, 1: 0.3, 6: 0.2}),
                          ((4, 3), {(1, 0): 0.25, (3, 0): 0.25, (0, 1): 0.25, (0, 2): 0.25}),
                          ((11, 10), {(1, 0): 0.4, (0, 3): 0.35, (5, 7): 0.25})]:
        walk = build_group_walk(moduli, atoms)
        coords = np.indices(moduli).reshape(len(moduli), -1)
        assert walk.elements == tuple(map(tuple, coords.T.tolist()))
        nu = np.zeros(moduli)
        for z, p in walk.atoms:
            nu[z] = p
        reflected = nu[np.ix_(*((-np.arange(m)) % m for m in moduli))]
        assert walk.symmetric == bool(np.all(np.abs(nu - reflected) <= 1e-12))

    for lazy in (0.0, 0.5, 0.9):
        walk = make_torus_walk(GOLDEN_ALPHA, lazy=lazy, fhat={1: 0.5, 13: 0.25, 10946: 0.1})
        for row in torus_condition(walk, cutoff=20000).rows:
            old = row.one_minus_nuhat / (2.0 * math.pi ** 2 * row.dist * row.dist)
            assert row.ratio.hex() == old.hex()
