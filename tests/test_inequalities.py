import math

import numpy as np
import pytest

from qclt.chain import center_observable
from qclt.errors import (
    BadLength,
    CondViolated,
    GridTouchesSingularity,
    NonFiniteValue,
    NotReversible,
)
from qclt.inequalities import (
    DyadicFamily,
    ExactSequence,
    builtin_block_weight,
    chaining_maximal_check,
    dyadic_block_maxsum,
    dyadic_domination_check,
    kernel_dyadic_sequence,
    log_envelope_ratio,
)
from qclt.spectral import SpectralMeasure, spectral_measure
from qclt.verify import check_chaining_randomized, random_dyadic_family
from tests import oracles
from tests.conftest import sign_of
from tests.test_chain import random_reversible


def test_chaining_deterministic_spike():
    res = chaining_maximal_check(DyadicFamily.deterministic([0.0, 1.0, 0.0]))
    assert res.lhs == pytest.approx(1.0, abs=1e-12)
    assert res.rhs == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert res.ok


def test_chaining_all_equal():
    res = chaining_maximal_check(DyadicFamily.deterministic([3.0] * 9))
    assert res.lhs == 0.0 and res.rhs == 0.0 and res.ok


def test_chaining_bad_length():
    with pytest.raises(BadLength):
        DyadicFamily.deterministic([0.0, 1.0, 2.0, 3.0])


def test_chaining_exact_two_atoms():
    fam = DyadicFamily.from_exact([[0.0, 2.0, 1.0], [0.0, -1.0, 3.0]], [0.25, 0.75])
    res = chaining_maximal_check(fam)
    lhs_sq = 0.25 * 4.0 + 0.75 * 9.0
    assert res.lhs == pytest.approx(math.sqrt(lhs_sq), abs=1e-12)
    assert res.ok


def test_chaining_random_walk_margin():
    rng = np.random.default_rng(123)
    inc = rng.choice([-1.0, 1.0], size=(10_000, 33))
    res = chaining_maximal_check(DyadicFamily.from_samples(np.cumsum(inc, axis=1)))
    assert res.ok
    assert res.rhs > res.lhs  # comfortable margin for a martingale


def test_chaining_random_families_never_violate():
    rng = np.random.default_rng(77)
    for _ in range(60):
        res = chaining_maximal_check(random_dyadic_family(rng, int(rng.integers(1, 6)), 2000))
        assert res.ok


# -- the whole-array chaining check and AR(1) generator against their
# -- earlier loop-based forms, kept here as references

def _reference_chaining(family):
    tbl = oracles.dyadic_table(family)
    if family.probs is None:
        weights = np.full(tbl.shape[0], 1.0 / tbl.shape[0])
        sampled = True
    else:
        weights, sampled = family.probs, False
    dev = tbl - tbl[:, :1]
    sup = np.max(np.abs(dev[:, 1:]), axis=1)
    lhs = math.sqrt(float(np.sum(weights * sup * sup)))
    rhs = 0.0
    for r in range(family.d + 1):
        idx = np.arange(0, 2 ** family.d + 1, 2 ** r)
        inc = tbl[:, idx[1:]] - tbl[:, idx[:-1]]
        rhs += math.sqrt(float(np.sum(weights[:, None] * inc * inc)))
    if sampled:
        se_msq = float(np.std(sup * sup)) / math.sqrt(tbl.shape[0])
        slack = 3.0 * se_msq / (2.0 * lhs) if lhs > 0 else 0.0
    else:
        slack = 1e-12
    return lhs, rhs, slack, lhs <= rhs + slack


def _reference_dyadic_family(rng, d, paths):
    count = 2 ** d + 1
    shape = rng.integers(0, 5)
    if shape == 0:
        inc = rng.normal(0.0, rng.uniform(0.2, 2.0), size=(paths, count))
        t = np.cumsum(inc, axis=1)
    elif shape == 1:
        inc = rng.choice([-1.0, 1.0], size=(paths, count))
        t = np.cumsum(inc, axis=1)
    elif shape == 2:
        a = rng.uniform(-0.9, 0.9)
        noise = rng.normal(size=(paths, count))
        t = np.empty_like(noise)
        t[:, 0] = noise[:, 0]
        for k in range(1, count):
            t[:, k] = a * t[:, k - 1] + noise[:, k]
    elif shape == 3:
        z = rng.normal(size=(paths, 1))
        profile = rng.uniform(-1.0, 1.0, size=count)
        t = z * profile[None, :] + 0.1 * rng.normal(size=(paths, count))
    else:
        inc = rng.exponential(1.0, size=(paths, count)) - rng.uniform(0.0, 2.0)
        t = np.cumsum(inc, axis=1)
    return int(shape), t


def _assert_matches_reference(family):
    res = chaining_maximal_check(family)
    got = (res.lhs, res.rhs, res.slack, res.ok)
    # the einsum check runs the same arithmetic in the same order: exact
    assert got == oracles.chaining_check_einsum(oracles.dyadic_table(family), family.probs)
    # the loop form sums in another order (np.sum, weights * sup * sup)
    lhs, rhs, slack, ok = _reference_chaining(family)
    np.testing.assert_allclose([res.lhs, res.rhs, res.slack], [lhs, rhs, slack],
                               rtol=1e-12, atol=0.0)
    assert res.ok == ok


def test_chaining_matches_reference_on_sampled_families():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        d = int(rng.integers(0, 6))
        _assert_matches_reference(random_dyadic_family(rng, d, int(rng.integers(1, 500))))


def test_chaining_matches_reference_on_exact_families():
    rng = np.random.default_rng(99)
    for _ in range(40):
        d = int(rng.integers(0, 6))
        atoms = int(rng.integers(1, 30))
        values = np.cumsum(rng.normal(size=(atoms, 2 ** d + 1)), axis=1)
        probs = rng.uniform(0.0, 1.0, size=atoms) ** 3
        probs[0] += 1e-3                       # keep the total weight positive
        _assert_matches_reference(DyadicFamily.from_exact(values, probs))


def test_chaining_matches_reference_on_deterministic_cases():
    for seq in ([0.0, 1.0, 0.0], [2.0] * 5, [3.0] * 9, [0.0, -4.0, 1.0, 1.0, 7.5]):
        _assert_matches_reference(DyadicFamily.deterministic(seq))


def test_random_dyadic_family_bit_identical_to_reference():
    shapes = set()
    workspace = np.full(257 * 65, np.nan)     # one workspace serves every d, as in verify
    for seed in range(50):
        d = seed % 6
        ref_rng = np.random.default_rng(seed)
        shape, ref = _reference_dyadic_family(ref_rng, d, 257)
        shapes.add(shape)
        for out in (None, workspace):
            rng = np.random.default_rng(seed)
            fam = random_dyadic_family(rng, d, 257, out=out)
            assert np.array_equal(oracles.dyadic_table(fam), ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.shares_memory(fam.table, workspace)
    assert shapes == {0, 1, 2, 3, 4}


def test_chaining_randomized_matches_the_einsum_oracle():
    # a reduced size of verify's seed-2024 check: every family's (lhs, rhs,
    # slack, ok) and the generator state after the loop, bit for bit
    families, paths = 60, 300
    want, ref_rng = oracles.chaining_randomized_results(families, paths)
    got = []
    real_check = chaining_maximal_check

    def recording_check(family):
        res = real_check(family)
        got.append((res.lhs, res.rhs, res.slack, res.ok))
        return res

    real_rng = np.random.default_rng
    made = []

    def recording_rng(seed):
        made.append(real_rng(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qclt.verify.chaining_maximal_check", recording_check)
        mp.setattr("qclt.verify.np.random.default_rng", recording_rng)
        result = check_chaining_randomized(families, paths)
    assert got == want
    assert made[0].bit_generator.state == ref_rng.bit_generator.state
    worst = min(rhs + slack - lhs for lhs, rhs, slack, _ in want)
    assert result.detail == f"violations=0 min margin={worst:.3e}" and result.ok


def test_from_samples_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        table = np.zeros((4, 3))
        table[2, 1] = bad
        with pytest.raises(NonFiniteValue):
            DyadicFamily.from_samples(table)
        with pytest.raises(NonFiniteValue):
            DyadicFamily.from_recursion(table, 1.0)
        with pytest.raises(NonFiniteValue):
            DyadicFamily.from_recursion(np.zeros((4, 3)), bad)


def test_from_samples_rejects_bad_shapes():
    for bad in (np.zeros((0, 3)), np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(BadLength):
            DyadicFamily.from_samples(bad)


def test_constructor_validates_as_the_factories_do():
    nan_row = np.array([[0.0, 1.0, np.nan]])
    with pytest.raises(NonFiniteValue):
        DyadicFamily(d=1, table=nan_row)
    with pytest.raises(NonFiniteValue):
        DyadicFamily(d=1, table=np.zeros((2, 3)), ar=float("nan"))
    with pytest.raises(BadLength):
        DyadicFamily(d=2, table=np.zeros((2, 3)))
    with pytest.raises(BadLength):
        DyadicFamily(d=1, table=[[0.0, 1.0, 2.0]])


def test_from_exact_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((2, 3))
        values[1, 2] = bad
        with pytest.raises(NonFiniteValue):
            DyadicFamily.from_exact(values, [0.5, 0.5])
        with pytest.raises(NonFiniteValue):
            DyadicFamily.from_exact(np.zeros((2, 3)), [0.5, bad])


def test_from_exact_rejects_zero_total_weight():
    with pytest.raises(BadLength):
        DyadicFamily.from_exact(np.zeros((2, 3)), [0.0, 0.0])
    with pytest.raises(BadLength):
        DyadicFamily.from_exact(np.zeros((0, 3)), [])
    with pytest.raises(BadLength):
        DyadicFamily.from_exact(np.zeros((2, 3)), [0.5, -0.5])


def test_domination_equality_two_state(two_state, sign):
    seq = kernel_dyadic_sequence(two_state, sign, 5)
    rep = dyadic_domination_check(spectral_measure(two_state, sign), seq)
    assert rep.ok
    assert abs(rep.cond_worst_slack) <= 1e-9
    assert rep.cond2_value > 0.0
    assert rep.max_msq <= rep.max_bound


def test_domination_shrunken_measure_violates(two_state, sign):
    measure = spectral_measure(two_state, sign)
    shrunk = SpectralMeasure(measure.locations, 0.5 * measure.masses,
                             total=0.5 * measure.total)
    seq = kernel_dyadic_sequence(two_state, sign, 5)
    with pytest.raises(CondViolated):
        dyadic_domination_check(shrunk, seq)


def test_domination_zero_family_constant_sequence():
    zero = SpectralMeasure(np.array([0.5]), np.array([0.0]), 0.0)
    const = ExactSequence(values=np.zeros((4, 3)), probs=np.full(3, 1 / 3))
    rep = dyadic_domination_check(zero, const)
    assert rep.ok
    assert rep.cond2_value == 0.0
    assert rep.max_msq == 0.0 and rep.dyadic_bound_sum == 0.0


def test_domination_rejects_a_complex_measure():
    disk = SpectralMeasure(np.array([0.5j]), np.array([1.0]), 1.0)
    const = ExactSequence(values=np.zeros((4, 3)), probs=np.full(3, 1 / 3))
    with pytest.raises(NotReversible):
        dyadic_domination_check(disk, const)


def test_builtin_block_weight_nonnegative():
    t = np.linspace(-1.0, 1.0, 201)
    for n in (1, 2, 5):
        assert np.min(builtin_block_weight(n, t)) >= -1e-15


def test_builtin_block_weight_is_the_explicit_power_sum():
    t = np.concatenate([np.linspace(-1.0, 1.0, 2001), [0.999, -0.999]])
    for n in range(7):
        powers = t[:, None] ** np.arange(2 ** n, 2 ** (n + 1))[None, :]
        want = np.sqrt(np.maximum(1.0 - t * t, 0.0)) * powers.sum(axis=1)
        np.testing.assert_allclose(builtin_block_weight(n, t), want, rtol=1e-12, atol=1e-15)


def test_dyadic_block_maxsum_fixtures(two_state, iid, flip):
    lhs, rhs = dyadic_block_maxsum(iid, center_observable(iid, [1.0, -1.0]), 6)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    lhs, rhs = dyadic_block_maxsum(two_state, sign_of(two_state), 10)
    assert rhs == pytest.approx(3.0, abs=1e-12)
    assert lhs <= rhs + 1e-12
    lhs, rhs = dyadic_block_maxsum(flip, center_observable(flip, [1.0, -1.0]), 6)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == pytest.approx(0.0, abs=1e-15)


def test_dyadic_block_maxsum_monotone_and_random(two_state):
    f = sign_of(two_state)
    values = [dyadic_block_maxsum(two_state, f, d)[0] for d in range(0, 8)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    rng = np.random.default_rng(15)
    for _ in range(3):
        chain = random_reversible(rng, int(rng.integers(3, 7)))
        obs = center_observable(chain, rng.normal(size=chain.n_states))
        lhs, rhs = dyadic_block_maxsum(chain, obs, 8)
        assert lhs <= rhs + 1e-12


def test_dyadic_block_maxsum_requires_reversible():
    from qclt.chain import make_chain
    rotation = make_chain("012", [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                          stationary=[1 / 3] * 3)
    with pytest.raises(NotReversible):
        dyadic_block_maxsum(rotation, center_observable(rotation, [1, 0, -1]), 3)


def test_log_envelope_ratio():
    worst, where = log_envelope_ratio([0.0], 20)
    assert worst == 0.0 and where == 0.0
    r1, _ = log_envelope_ratio([0.99], 24)
    r2, _ = log_envelope_ratio([0.99], 48)
    assert math.isfinite(r1) and r1 > 0
    assert abs(r2 - r1) <= 0.01 * r1
    neg, _ = log_envelope_ratio([-0.99], 24)
    assert math.isfinite(neg)
    with pytest.raises(GridTouchesSingularity):
        log_envelope_ratio([1.0 - 1e-9], 24)
