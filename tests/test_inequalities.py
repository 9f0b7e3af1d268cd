import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qclt import _kernels_py, inequalities, kernels, verify
from qclt.chain import center_observable
from qclt.errors import (
    BadLength,
    CondViolated,
    GridTouchesSingularity,
    NonFiniteValue,
    NotReversible,
)
from qclt.inequalities import (
    ChainingCheck,
    DyadicFamily,
    ExactSequence,
    builtin_block_weight,
    chaining_maximal_check,
    dyadic_block_maxsum,
    dyadic_domination_check,
    kernel_dyadic_sequence,
    log_envelope_ratio,
)
from qclt.kernels import LAW_COUNT, LAW_FACTOR
from qclt.rng import stream_keys
from qclt.spectral import SpectralMeasure, spectral_measure
from qclt.verify import CHAINING_MAX_D, check_chaining_randomized, random_dyadic_families
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
    for fam in random_dyadic_families(77, range(60)):
        assert fam.check(2000).ok


# -- the whole-array chaining check and AR(1) generator against their
# -- earlier loop-based forms, kept here as references

def _reference_chaining(family):
    tbl = family.table
    weights = np.full(tbl.shape[0], 1.0 / tbl.shape[0]) if family.probs is None else family.probs
    dev = tbl - tbl[:, :1]
    sup = np.max(np.abs(dev[:, 1:]), axis=1)
    lhs = math.sqrt(float(np.sum(weights * sup * sup)))
    rhs = 0.0
    for r in range(family.d + 1):
        idx = np.arange(0, 2 ** family.d + 1, 2 ** r)
        inc = tbl[:, idx[1:]] - tbl[:, idx[:-1]]
        rhs += math.sqrt(float(np.sum(weights[:, None] * inc * inc)))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-12)


def _lane_verdict(table):
    # the sampled verdict from the Python lane loop's sums of the row loop's
    # sup and acc: the drawn pass's arithmetic in its order
    sums = oracles.moment_sums_rows(*oracles.dyadic_moments_rows(table))
    res = verify.chaining_verdict(sums, table.shape[0])
    return res.lhs, res.rhs, res.ok


def _assert_matches_reference(family):
    res = chaining_maximal_check(family)
    got = (res.lhs, res.rhs, res.ok)
    einsum = oracles.chaining_check_einsum(family.table, family.probs)
    if family.probs is None:
        # a sampled family's sums are added lane by lane, as the drawn pass
        # adds them, and the einsum check's by weighted dot products
        assert got == _lane_verdict(family.table)
        np.testing.assert_allclose(got[:2], einsum[:2], rtol=1e-12, atol=0.0)
        assert got[2] == einsum[2]
    else:
        # the einsum check runs the same arithmetic in the same order: exact
        assert got == einsum
    # the loop form sums in another order (np.sum, weights * sup * sup)
    lhs, rhs, ok = _reference_chaining(family)
    np.testing.assert_allclose([res.lhs, res.rhs], [lhs, rhs], rtol=1e-12, atol=0.0)
    assert res.ok == ok


def _oracle_family(fam, paths, d=None):
    # the T table of a drawn family, as a DyadicFamily of samples;
    # at another level d, the factor law takes a fixed profile of 2^d + 1 entries
    profile = fam.profile
    if d is not None and d != fam.d:
        profile = np.linspace(-1.0, 1.0, 2 ** d + 1) if fam.law == LAW_FACTOR else np.empty(0)
    return oracles.drawn_family(fam.law, fam.d if d is None else d, fam.scale, fam.a, fam.drift,
                                profile, stream_keys(fam.row_seed, paths))


def test_chaining_matches_reference_on_sampled_families():
    # d = 0..5; test_tight_chaining_families holds lhs == rhs at d = 0
    for index, fam in enumerate(random_dyadic_families(2024, range(40))):
        _assert_matches_reference(_oracle_family(fam, 1 + index * 13, index % 6))


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


def _family_params(fam):
    return {**dataclasses.asdict(fam), "profile": fam.profile.tolist()}


def test_random_dyadic_family_bit_identical_to_reference(kernel_modules, monkeypatch):
    # the law and parameters from Python-int draws, and each family's check
    # on every backend against the check of its oracle table, bit for bit
    laws = set()
    for index, fam in enumerate(random_dyadic_families(2024, range(50))):
        want = oracles.random_family_params(2024, index)
        assert want == _family_params(fam)
        assert fam.profile.dtype == np.float64
        laws.add(fam.law)
        want = _lane_verdict(_oracle_family(fam, 257).table)
        for impl in kernel_modules.values():
            monkeypatch.setattr(kernels, "_impl", impl)
            res = fam.check(257)
            assert (res.lhs, res.rhs, res.ok) == want
    assert laws == set(range(LAW_COUNT))


@pytest.mark.parametrize("seed, count", [(2024, 1000), (77, 200), (909, 200)])
def test_random_dyadic_families_equal_the_python_int_draws(seed, count):
    # verify's one-pass drawer against each family's Python-int draws: every
    # law and every d turn up, and each profile is float64
    families = random_dyadic_families(seed, range(count))
    assert len(families) == count
    for index, fam in enumerate(families):
        assert _family_params(fam) == oracles.random_family_params(seed, index), index
        assert fam.profile.dtype == np.float64
    assert {fam.law for fam in families} == set(range(LAW_COUNT))
    assert {fam.d for fam in families} == set(range(1, CHAINING_MAX_D + 1))


def test_random_dyadic_families_of_none_and_one():
    assert random_dyadic_families(2024, []) == []
    assert random_dyadic_families(2024, range(0)) == []
    for index in (0, 1, 999):
        (fam,) = random_dyadic_families(2024, [index])
        assert _family_params(fam) == oracles.random_family_params(2024, index)
    # a family does not depend on which others are drawn beside it
    picked = random_dyadic_families(2024, [7, 3])
    assert [_family_params(f) for f in picked] == [
        oracles.random_family_params(2024, i) for i in (7, 3)]


def test_random_dyadic_families_raise_no_warning():
    # the counters wrap mod 2^64; a numpy scalar overflow would warn, and a
    # warning on stderr breaks the CLI's one-error-line contract
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2024, 2 ** 64 - 1):
            random_dyadic_families(seed, range(1000))
        assert check_chaining_randomized(20, 100).ok


def test_drawing_a_family_allocates_no_table_sized_temporary(kernel_modules):
    # a d = 5 family of 10^4 paths would be a 2.6 MB table: no backend draws
    # one, and a DyadicFamily checks a table that size for NaN and infinities
    # without a mask of it
    paths, d = 10 ** 4, 5
    out_sums = np.empty(d + 2)
    table = np.random.default_rng(4).standard_normal((paths, 2 ** d + 1))
    for impl in kernel_modules.values():
        for law in range(LAW_COUNT):
            profile = np.linspace(-1.0, 1.0, 2 ** d + 1) if law == LAW_FACTOR else np.empty(0)
            tracemalloc.start()
            try:
                impl.drawn_dyadic_moments(law, d, 1.0, 0.5, 0.25, profile, 3, paths, out_sums)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (impl, law, peak)
    tracemalloc.start()
    try:
        DyadicFamily(table=table)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check_peak < 1 << 16, check_peak


@pytest.mark.parametrize("ar", [None, 0.3])
def test_fallback_chaining_moments_allocate_no_table_sized_temporary(ar):
    # the numpy dyadic_moments walks this 2.6 MB table in row blocks: raw
    # normals, or the oracle recursion's output over them
    paths, d = 10 ** 4, 5
    table = np.random.default_rng(4).standard_normal((paths, 2 ** d + 1))
    if ar is not None:
        table = oracles.recursion_rows(table, ar)
    tracemalloc.start()
    try:
        sup, acc = _kernels_py.dyadic_moments(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kernel allocates its two results, which are not temporaries
    assert peak - sup.nbytes - acc.nbytes < 1 << 20, peak


def test_chaining_randomized_matches_the_einsum_oracle():
    # a reduced size of verify's seed-2024 check: every family's (lhs, rhs,
    # ok) against the verdict of its Python-int oracle table's lane
    # sums bit for bit, and against the table's einsum check to rounding
    # (the einsum check adds by weighted dot products), with numpy's
    # generators out of reach
    families, paths = 60, 300
    want, einsum = [], []
    for index in range(families):
        params = oracles.random_family_params(2024, index)
        keys = stream_keys(params.pop("row_seed"), paths)
        table = oracles.drawn_family(**params, keys=keys).table
        want.append(_lane_verdict(table))
        einsum.append(oracles.chaining_check_einsum(table))
    got = []
    real_verdict = verify.chaining_verdict

    def recording_verdict(sums, rows):
        res = real_verdict(sums, rows)
        got.append((res.lhs, res.rhs, res.ok))
        return res

    def no_generator(*args, **kwargs):
        raise AssertionError("verify drew from a numpy generator")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "chaining_verdict", recording_verdict)
        mp.setattr(np.random, "default_rng", no_generator)
        mp.setattr(np.random, "Generator", no_generator)
        result = check_chaining_randomized(families, paths)
    assert got == want
    np.testing.assert_allclose([g[:2] for g in got], [e[:2] for e in einsum], rtol=1e-12, atol=0)
    assert [g[2] for g in got] == [e[2] for e in einsum]
    worst = min(rhs - lhs for lhs, rhs, _ in einsum)
    assert result.detail == f"violations=0 min margin={worst:.3e}" and result.ok


def test_chaining_randomized_catches_a_bound_without_its_finest_scale(monkeypatch):
    # the right side with its r = 0 term dropped is no bound at all: at the
    # quick size the check must report violations
    real = kernels.drawn_dyadic_moments

    def finest_scale_dropped(*args):
        sums = real(*args)
        sums[0] = 0.0
        return sums

    monkeypatch.setattr(kernels, "drawn_dyadic_moments", finest_scale_dropped)
    result = check_chaining_randomized(100, 2000)
    violations = int(result.detail.split()[0].removeprefix("violations="))
    assert not result.ok and violations > 0, result.detail


def _off_by(reduction, side, factor):
    # one reduction with one side of its verdicts scaled by `factor`: the
    # drawn pass's scale sums or sup^2 sum, or a stored table's acc or sup
    real_drawn, real_table = kernels.drawn_dyadic_moments, inequalities.dyadic_moments

    def drawn(*args):
        sums = real_drawn(*args)
        sums[slice(None, -1) if side == "rhs" else slice(-1, None)] *= factor
        return sums

    def table(t):
        sup, acc = real_table(t)
        return (sup, acc * factor) if side == "rhs" else (sup * factor, acc)
    return {"drawn": (kernels, "drawn_dyadic_moments", drawn),
            "table": (inequalities, "dyadic_moments", table)}[reduction]


@pytest.mark.parametrize("case", ["every module", "scaled by 2^+-40"] + [
    f"{reduction} {side} x{factor!r}" for reduction in ("drawn", "table")
    for side in ("lhs", "rhs") for factor in (1 - 1e-9, 1 + 1e-9)])
def test_tight_chaining_families(kernel_modules, monkeypatch, case):
    # the d = 0 families of verify's deterministic check, where lhs == rhs
    tight = 2 + LAW_COUNT
    if case == "every module":
        # a drawn family of each law too, on the fallback and both C lane sets
        for name, impl in kernel_modules.items():
            monkeypatch.setattr(kernels, "_impl", impl)
            checks = verify.tight_chaining_checks()
            assert len(checks) == tight and all(c.ok and c.lhs == c.rhs for c in checks), name
    elif case == "scaled by 2^+-40":
        # a sampled and a tight family: both sides scale exactly, and the
        # relative rule keeps every verdict, a failing one included
        walk = np.cumsum(np.random.default_rng(8).choice([-1.0, 1.0], size=(500, 17)), axis=1)
        for table, probs in ((walk, None), (verify._TIGHT_ROWS, np.array([0.5, 0.25, 0.25]))):
            base = chaining_maximal_check(DyadicFamily(table, probs))
            for scale in (2.0 ** 40, 2.0 ** -40):
                res = chaining_maximal_check(DyadicFamily(table * scale, probs))
                assert (res.lhs, res.rhs, res.ok) == (base.lhs * scale, base.rhs * scale, base.ok)
        for over, ok in ((0.5e-12, True), (2e-12, False)):
            for scale in (1.0, 2.0 ** 40, 2.0 ** -40):
                assert ChainingCheck(lhs=scale * (1.0 + over), rhs=scale).ok is ok
    else:
        # a reduction off by 1 +- 1e-9 on either side fails verify
        reduction, side, factor = case.split()
        monkeypatch.setattr(*_off_by(reduction, side, float(factor[1:])))
        result = verify.check_chaining_deterministic()
        equal = 2 if reduction == "drawn" else LAW_COUNT
        assert not result.ok and result.detail.endswith(f" {equal}/{tight}"), result.detail


@pytest.mark.parametrize("values", [np.array([1.0, 2.0, 3.0]), np.zeros((2, 3, 1)),
                                    np.zeros((2, 3), dtype=np.float32), [[0.0] * 3] * 2],
                         ids=["1-d", "3-d", "float32", "list"])
def test_exact_sequence_refuses_values_that_are_not_a_2d_float64_table(values):
    with pytest.raises(BadLength):
        ExactSequence(values=values, probs=np.full(3, 1 / 3))


def test_from_samples_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        table = np.zeros((4, 3))
        table[2, 1] = bad
        with pytest.raises(NonFiniteValue):
            DyadicFamily.from_samples(table)
    # a family's table holds T: no factory runs a recursion to build it
    assert not hasattr(DyadicFamily, "from_recursion")


def test_from_samples_rejects_bad_shapes():
    for bad in (np.zeros((0, 3)), np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(BadLength):
            DyadicFamily.from_samples(bad)


def test_constructor_validates_as_the_factories_do():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteValue):
            DyadicFamily(table=np.array([[0.0, 1.0, bad]]))
    for big in (1e308, -1e308):
        DyadicFamily(table=np.array([[0.0, big, -big]]))
    with pytest.raises(TypeError, match="'ar'"):       # the recursion field is gone
        DyadicFamily(table=np.zeros((2, 3)), ar=float("nan"))
    with pytest.raises(BadLength):
        DyadicFamily(table=np.zeros((2, 4)))
    with pytest.raises(BadLength):
        DyadicFamily(table=[[0.0, 1.0, 2.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.int64, ">f8"])
def test_constructor_refuses_a_table_that_is_not_float64(dtype):
    table = np.arange(10).reshape(2, 5).astype(dtype)
    with pytest.raises(BadLength, match="float64"):
        DyadicFamily(table=table)


TABLE_LAYOUTS = {
    "fortran": np.asfortranarray,
    "strided": lambda v: np.repeat(v, 2, axis=0)[::2],
}


@pytest.mark.parametrize("layout", sorted(TABLE_LAYOUTS))
def test_chaining_check_is_the_same_on_any_table_layout(layout):
    # 2500 rows of 33 values take three row blocks of the table kernel;
    # sampled and exact families alike give the C-ordered table's bits
    table = oracles.recursion_rows(np.random.default_rng(6).standard_normal((2500, 33)), 0.5)
    probs = np.random.default_rng(7).uniform(size=2500)
    spoiled = TABLE_LAYOUTS[layout](table)
    assert not spoiled.flags.c_contiguous and np.array_equal(spoiled, table)
    for weights in (None, probs / probs.sum()):
        got, want = (dataclasses.astuple(chaining_maximal_check(DyadicFamily(t, weights)))
                     for t in (spoiled, table))
        assert list(map(float.hex, got)) == list(map(float.hex, want)), weights is None


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


# atom weights that break the rule for a two-atom law, with the error each raises
BAD_WEIGHTS = {
    "negative": (np.array([-1.0, 2.0]), BadLength),
    "total_6": (np.array([3.0, 3.0]), BadLength),
    "total_1+2e-12": (np.array([0.5, 0.5 + 2e-12]), BadLength),
    "nan": (np.array([np.nan, 1.0]), NonFiniteValue),
    "inf": (np.array([np.inf, 1.0]), NonFiniteValue),
    "one_for_two_atoms": (np.array([1.0]), BadLength),
    "2-d": (np.array([[0.5, 0.5]]), BadLength),
    "float32": (np.array([0.5, 0.5], dtype=np.float32), BadLength),
    "list": ([0.5, 0.5], BadLength),
}


@pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
def test_constructors_refuse_weights_that_are_not_a_probability_vector(bad):
    probs, error = BAD_WEIGHTS[bad]
    with pytest.raises(error):
        DyadicFamily(np.array([[0.0, 1.0, 0.5], [0.0, -1.0, 2.0]]), probs)
    with pytest.raises(error):
        ExactSequence(values=np.zeros((3, 2)), probs=probs)


def test_weights_may_miss_a_total_of_1_by_1e_12():
    table = np.array([[0.0, 1.0, 0.5], [0.0, -1.0, 2.0]])
    near = np.array([0.25, 0.75 + 5e-13])
    assert chaining_maximal_check(DyadicFamily(table, near)).ok
    assert ExactSequence(values=np.zeros((3, 2)), probs=near).msq(1) == 0.0
    # from_exact divides a positive total out before the rule is applied
    assert np.array_equal(DyadicFamily.from_exact(table, [3.0, 3.0]).probs, [0.5, 0.5])


def test_domination_equality_two_state(two_state, sign):
    seq = kernel_dyadic_sequence(two_state, sign, 5)
    rep = dyadic_domination_check(spectral_measure(two_state, sign), seq)
    assert rep.ok
    assert abs(rep.cond_worst_slack) <= 1e-9
    assert rep.cond2_value > 0.0
    assert rep.max_msq <= rep.max_bound


def test_domination_shrunken_measure_violates(two_state, sign):
    measure = spectral_measure(two_state, sign)
    shrunk = SpectralMeasure(measure.locations, 0.5 * measure.masses)
    seq = kernel_dyadic_sequence(two_state, sign, 5)
    with pytest.raises(CondViolated):
        dyadic_domination_check(shrunk, seq)


def test_domination_zero_family_constant_sequence():
    zero = SpectralMeasure(np.array([0.5]), np.array([0.0]))
    const = ExactSequence(values=np.zeros((4, 3)), probs=np.full(3, 1 / 3))
    rep = dyadic_domination_check(zero, const)
    assert rep.ok
    assert rep.cond2_value == 0.0
    assert rep.max_msq == 0.0 and rep.dyadic_bound_sum == 0.0


def test_domination_rejects_a_complex_measure():
    disk = SpectralMeasure(np.array([0.5j]), np.array([1.0]))
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


def test_family_level_comes_from_the_table_width():
    assert [f.name for f in dataclasses.fields(DyadicFamily)] == ["table", "probs"]
    for d in range(6):
        assert DyadicFamily.from_samples(np.zeros((2, 2 ** d + 1))).d == d
        assert DyadicFamily.deterministic(np.zeros(2 ** d + 1)).d == d
    for width in (0, 1, 4, 6, 10):
        with pytest.raises(BadLength, match="2\\^d \\+ 1 columns"):
            DyadicFamily.from_samples(np.zeros((2, width)))
        with pytest.raises(BadLength):
            _kernels_py.dyadic_moments(np.zeros((2, width)))
