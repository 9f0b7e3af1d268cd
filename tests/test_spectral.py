import dataclasses
import importlib
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclt
from qclt import verify
from qclt.chain import as_observable, center_observable, make_chain
from qclt.cli import main
from qclt.errors import (
    BadIndexOrder,
    DimensionMismatch,
    DivergentIntegral,
    NonFiniteValue,
    NotReversible,
    SpectralDefect,
)
from qclt.group_walk import build_group_walk
from qclt.martingale import kernel_gap_msq_table
from qclt.spectral import (
    WEIGHTS,
    SpectralMeasure,
    _merge_atoms,
    chain_spectrum,
    kernel_gap_msq_spectral_table,
    spectral_integral,
    spectral_measure,
    variance_growth,
    variance_tail_constant,
)
from tests.oracles import (
    jacobi_eigh,
    kernel_gap_msq,
    kernel_gap_msq_spectral,
    kernel_gap_msq_spectral_table_blocks,
    variance_growth_loop,
)
from tests.test_chain import random_reversible


def atoms(*pairs):
    locs = np.array([p[0] for p in pairs], dtype=np.float64)
    mass = np.array([p[1] for p in pairs], dtype=np.float64)
    return SpectralMeasure(locations=locs, masses=mass)


# -- eigensolver ---------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10_000))
def test_jacobi_matches_lapack(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    vals, vecs = jacobi_eigh(a)
    order = np.argsort(vals)
    ref = np.linalg.eigvalsh(a)
    np.testing.assert_allclose(np.sort(vals), ref, atol=1e-10 * max(1, np.abs(a).max()))
    np.testing.assert_allclose(vecs @ vecs.T, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(a @ vecs, vecs * vals[None, :], atol=1e-9)
    del order


def test_jacobi_zero_and_diagonal():
    vals, vecs = jacobi_eigh(np.zeros((3, 3)))
    np.testing.assert_array_equal(vals, np.zeros(3))
    vals, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    np.testing.assert_array_equal(vals, [3.0, -1.0, 2.0])


# -- LAPACK chain spectrum against the Jacobi oracle --------------------------------

# the order-110 walk on Z_11 x Z_10: half the mass at the identity, the rest
# split evenly over +-g, so every character pair gives a double eigenvalue
WIDE_MODULI = (11, 10)
WIDE_STEP = [((1, 0), 0.16), ((0, 1), 0.12), ((3, 2), 0.12), ((5, 7), 0.10)]


def wide_walk():
    step = {(0, 0): 0.5}
    for g, w in WIDE_STEP:
        for e in (g, tuple(-c for c in g)):
            e = tuple(c % m for c, m in zip(e, WIDE_MODULI))
            step[e] = step.get(e, 0.0) + w / 2.0
    return build_group_walk(WIDE_MODULI, step)


def jacobi_spectrum(chain):
    rt = np.sqrt(chain.stationary)
    sym = rt[:, None] * chain.kernel / rt[None, :]
    return jacobi_eigh(0.5 * (sym + sym.T))


def assert_measure_matches_jacobi(chain, f, jacobi):
    # the oracle measure goes through the same merge and roundoff-atom drop
    vals, vecs = jacobi
    w = vecs.T @ (np.sqrt(chain.stationary) * f.values)
    locs, masses = _merge_atoms(np.clip(vals, -1.0, 1.0), w * w)
    keep = masses > 1e-14 * float(np.sum(masses))
    m = spectral_measure(chain, f)
    assert len(m.masses) == int(np.sum(keep))
    np.testing.assert_allclose(m.locations, locs[keep], rtol=0, atol=1e-12)
    np.testing.assert_allclose(m.masses, masses[keep], rtol=0, atol=1e-12 * m.total)


@pytest.mark.parametrize("size", [2, 3, 7, 40])
def test_lapack_measure_matches_jacobi(size):
    rng = np.random.default_rng(size)
    for _ in range(3):
        chain = random_reversible(rng, size)
        jacobi = jacobi_spectrum(chain)
        for _ in range(2):
            f = center_observable(chain, rng.normal(size=size))
            assert_measure_matches_jacobi(chain, f, jacobi)


def test_lapack_measure_matches_jacobi_degenerate_walk():
    walk = wide_walk()
    chain = walk.chain
    vals = chain_spectrum(chain)[0]
    assert np.min(np.diff(vals)) <= 1e-12  # the +- character pairs
    jacobi = jacobi_spectrum(chain)
    rng = np.random.default_rng(110)
    elements = np.array(walk.elements, dtype=float)
    harmonic = np.sqrt(2.0) * np.cos(2 * np.pi * (3 * elements[:, 0] / 11 + elements[:, 1] / 10))
    for raw in (harmonic, rng.normal(size=chain.n_states)):
        assert_measure_matches_jacobi(chain, center_observable(chain, raw), jacobi)


def test_chain_spectrum_cached_and_read_only(two_state):
    vals, vecs = chain_spectrum(two_state)
    assert chain_spectrum(two_state)[0] is vals
    np.testing.assert_allclose(vals, [0.5, 1.0], atol=1e-15)
    assert not vals.flags.writeable and not vecs.flags.writeable


def test_chain_spectrum_errors(two_state, monkeypatch):
    rotation = make_chain("012", [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                          stationary=[1 / 3] * 3)
    with pytest.raises(NotReversible):
        chain_spectrum(rotation)

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(SpectralDefect):
        chain_spectrum(two_state)


def test_hot_path_never_calls_jacobi(capsys, tmp_path):
    # the oracles live in tests/oracles.py; no library module defines them,
    # so the commands below cannot reach them
    names = ["qclt"] + [f"qclt.{m.name}" for m in pkgutil.iter_modules(qclt.__path__)]
    for name in names:
        module = importlib.import_module(name)
        for oracle in ("jacobi_eigh", "kernel_gap_msq", "kernel_gap_msq_spectral"):
            assert not hasattr(module, oracle), f"{name} defines {oracle}"
    doc = tmp_path / "walk.json"
    assert main(["group", "--moduli", "4,3", "--step",
                 "0.0:0.5,1.0:0.125,3.0:0.125,0.1:0.125,0.2:0.125",
                 "--harmonic", "1,1", "--output", str(doc)]) == 0
    assert "SR_spectral" in capsys.readouterr().out
    common = [str(doc), "--observable", "harmonic1_1"]
    for argv in (["analyze", *common], ["approx", *common, "--n", "1,4"],
                 ["simulate", *common, "--start", "0,0", "--n", "16", "--paths", "100"]):
        assert main(argv) == 0, argv


# -- measures -------------------------------------------------------------------

def test_two_state_measure(two_state, sign):
    m = spectral_measure(two_state, sign)
    np.testing.assert_allclose(m.locations, [0.5], atol=1e-12)
    np.testing.assert_allclose(m.masses, [1.0], atol=1e-12)


def test_flip_measure(flip):
    f = center_observable(flip, [1.0, -1.0])
    m = spectral_measure(flip, f)
    np.testing.assert_allclose(m.locations, [-1.0], atol=1e-12)
    np.testing.assert_allclose(m.masses, [1.0], atol=1e-12)


def test_zero_observable_measure(two_state):
    m = spectral_measure(two_state, center_observable(two_state, [0.0, 0.0]))
    assert len(m.masses) == 0
    assert m.total == 0.0


@pytest.mark.parametrize("locations, masses", [
    (np.array([0.5, 0.2]), np.array([1.0])),
    (np.array([[0.5, 0.2]]), np.array([[1.0, 1.0]])),
    (np.array(0.5), np.array(1.0)),
    ([0.5, 0.2], [1.0, 1.0]),
], ids=["two_locations_one_mass", "2-d", "0-d", "lists"])
def test_spectral_measure_needs_two_1d_arrays_of_one_length(locations, masses):
    with pytest.raises(DimensionMismatch):
        SpectralMeasure(locations, masses)


def test_not_reversible_rejected():
    rotation = make_chain("012", [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                          stationary=[1 / 3] * 3)
    with pytest.raises(NotReversible):
        spectral_measure(rotation, center_observable(rotation, [1.0, 0.0, -1.0]))


def test_completeness_and_scaling():
    rng = np.random.default_rng(17)
    for _ in range(5):
        chain = random_reversible(rng, int(rng.integers(3, 10)))
        f = center_observable(chain, rng.normal(size=chain.n_states))
        m = spectral_measure(chain, f)
        assert abs(m.total - f.norm_sq) <= 1e-9 * m.total
        scaled = spectral_measure(chain, as_observable(chain, 3.0 * f.values))
        np.testing.assert_allclose(scaled.locations, m.locations, atol=1e-10)
        np.testing.assert_allclose(scaled.masses, 9.0 * m.masses, rtol=1e-9)


def test_moment_identity():
    # sum t^k mass == <f, Q^k f> certifies the eigensolver at full rank
    rng = np.random.default_rng(23)
    for _ in range(5):
        chain = random_reversible(rng, int(rng.integers(2, 12)))
        f = center_observable(chain, rng.normal(size=chain.n_states))
        m = spectral_measure(chain, f)
        qkf = f.values.copy()
        for k in range(21):
            lhs = float(np.sum(m.locations ** k * m.masses))
            rhs = float(np.sum(chain.stationary * f.values * qkf))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))
            qkf = chain.kernel @ qkf


# -- condition integrals ---------------------------------------------------------

def test_integral_values():
    m = atoms((0.5, 1.0))
    assert spectral_integral(m, "sigma_sq") == pytest.approx(3.0, abs=1e-12)
    assert spectral_integral(m, "SR") == pytest.approx(2.0, abs=1e-12)
    assert spectral_integral(m, "SR2") == 0.0  # |log 0.5| < 1 so log+ vanishes
    assert spectral_integral(atoms((-1.0, 1.0)), "sigma_sq") == 0.0


def test_integral_divergence_and_roundoff_mass():
    with pytest.raises(DivergentIntegral):
        spectral_integral(atoms((1.0, 0.5)), "SR")
    # roundoff-sized mass at the pole must not fail the condition
    m = atoms((1.0, 1e-12), (0.5, 1.0))
    assert spectral_integral(m, "SR") == pytest.approx(2.0, abs=1e-12)


def test_overflowing_sum_raises_without_a_warning():
    m = atoms((0.5, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weight in ("SR", "sigma_sq"):
            with pytest.raises(NonFiniteValue, match="is not finite"):
                spectral_integral(m, weight)
        with pytest.raises(NonFiniteValue, match="is not finite"):
            variance_tail_constant(m)
        assert spectral_integral(m, "SR2") == 0.0


def test_tail_constant_shares_the_pole_rule():
    with pytest.raises(DivergentIntegral):
        variance_tail_constant(atoms((1.0, 0.5), (0.5, 1.0)))
    # the roundoff-sized atom at the pole is dropped; the rest sums as before
    t, mass = np.array([0.5, -0.25, 0.9]), np.array([1.0, 0.3, 0.7])
    m = atoms((1.0, 1e-12), *zip(t, mass))
    assert variance_tail_constant(m) == float(np.sum(mass * np.abs(t) / (1.0 - t) ** 2))


def test_integral_unknown_weight():
    m = atoms((0.5, 2.0))
    with pytest.raises(ValueError):
        spectral_integral(m, "nope")


def test_sr2_on_real_locations_is_the_real_axis_formula():
    # |1 - t| is 1 - t bitwise for t <= 1, so the disk form of the weight
    # rounds as (log+ |log(1 - t)|)^2 / (1 - t) did
    t = np.concatenate([np.linspace(-1.0, 1.0 - 1e-9, 2001), 1.0 - np.logspace(-11, -1, 50)])
    with np.errstate(divide="ignore"):
        old = np.maximum(np.log(np.abs(np.log(1.0 - t))), 0.0) ** 2 / (1.0 - t)
    weight, real_only = WEIGHTS["SR2"]
    assert not real_only
    assert np.array_equal(weight(t), old)


def test_sr2_on_disk():
    # (log+ |log|1 - z||)^2 / |1 - z| at two conjugate atoms near 1 and one
    # at |1 - z| = 1, where log+ vanishes
    z = np.array([1.0 - 0.01 + 0.02j, 1.0 - 0.01 - 0.02j, 0j])
    m = SpectralMeasure(locations=z, masses=np.array([0.25, 0.25, 0.5]))
    gap = abs(0.01 - 0.02j)
    assert spectral_integral(m, "SR2") == pytest.approx(
        0.5 * np.log(abs(np.log(gap))) ** 2 / gap, rel=1e-14)


def test_sn_weights_on_disk():
    z = np.array([np.exp(2j * np.pi / 3)])
    m = SpectralMeasure(locations=z, masses=np.array([1.0]))
    assert spectral_integral(m, "SN") == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    with pytest.raises(NotReversible):
        spectral_integral(m, "SR")


# -- horizon-gap moments ----------------------------------------------------------

def test_gap_msq_spectral_values():
    assert kernel_gap_msq_spectral(atoms((0.5, 1.0)), 1, 2) == pytest.approx(0.1875, abs=1e-12)
    assert kernel_gap_msq_spectral(atoms((-1.0, 1.0)), 1, 3) == 0.0
    with pytest.raises(BadIndexOrder):
        kernel_gap_msq_spectral(atoms((0.5, 1.0)), 2, 2)


def test_gap_msq_matches_direct():
    rng = np.random.default_rng(41)
    for _ in range(4):
        chain = random_reversible(rng, int(rng.integers(3, 9)))
        f = center_observable(chain, rng.normal(size=chain.n_states))
        m = spectral_measure(chain, f)
        for mm, nn in [(1, 2), (1, 7), (3, 5), (2, 16), (7, 33)]:
            direct = kernel_gap_msq(chain, f, mm, nn)
            assert kernel_gap_msq_spectral(m, mm, nn) == pytest.approx(
                direct, rel=1e-9, abs=1e-12)


def test_gap_msq_spectral_table_matches_scalar():
    rng = np.random.default_rng(43)
    measures = []
    for _ in range(5):
        chain = random_reversible(rng, int(rng.integers(3, 11)))
        f = center_observable(chain, rng.normal(size=chain.n_states))
        measures.append(spectral_measure(chain, f))
    # atoms at -1, 0, just inside and exactly on the near-one branch, and at 1
    measures.append(atoms((-1.0, 0.5), (0.0, 0.25), (1.0 - 1e-13, 0.125),
                          (1.0, 0.125), (0.3, 0.0625)))
    n_max = 40
    for measure in measures:
        table = kernel_gap_msq_spectral_table(measure, n_max)
        expect = np.zeros((n_max, n_max))
        for m in range(1, n_max):
            for n in range(m + 1, n_max + 1):
                expect[m - 1, n - 1] = kernel_gap_msq_spectral(measure, m, n)
        assert table.shape == (n_max, n_max)
        assert np.all(np.isfinite(table))
        np.testing.assert_allclose(table, expect, rtol=1e-13, atol=1e-15)
        assert not np.any(np.tril(table))    # lower triangle and diagonal


def test_gap_msq_spectral_table_equals_the_broadcast_block_sums_bitwise():
    # each power t^k taken once gives the bits of the pairwise block sums:
    # ** of the same base and exponent rounds the same, and so do the
    # difference and division that follow
    rng = np.random.default_rng(45)
    measures = [spectral_measure(chain, center_observable(chain, rng.normal(size=size)))
                for size in (3, 7, 12) for chain in [random_reversible(rng, size)]]
    measures.append(atoms((-1.0, 0.5), (0.0, 0.25), (1.0 - 1e-13, 0.125),
                          (1.0, 0.125), (0.3, 0.0625), (-0.999, 0.5)))
    for measure in measures:
        for n_max in (2, 16, 64, 200):
            table = kernel_gap_msq_spectral_table(measure, n_max)
            assert table.tobytes() == kernel_gap_msq_spectral_table_blocks(measure,
                                                                           n_max).tobytes()


def test_gap_msq_spectral_table_matches_direct_table():
    rng = np.random.default_rng(44)
    for _ in range(3):
        chain = random_reversible(rng, int(rng.integers(3, 9)))
        f = center_observable(chain, rng.normal(size=chain.n_states))
        direct = kernel_gap_msq_table(chain, f, 32)
        spectral = kernel_gap_msq_spectral_table(spectral_measure(chain, f), 32)
        np.testing.assert_allclose(spectral, direct, rtol=1e-9, atol=1e-12)


def test_gap_msq_spectral_table_rejects_bad_input():
    with pytest.raises(BadIndexOrder):
        kernel_gap_msq_spectral_table(atoms((0.5, 1.0)), 1)
    disk = SpectralMeasure(locations=np.array([0.5j]), masses=np.array([1.0]))
    with pytest.raises(NotReversible):
        kernel_gap_msq_spectral_table(disk, 4)


# -- variance growth ---------------------------------------------------------------

def test_variance_growth_values(two_state, iid, sign):
    assert variance_growth(two_state, sign, 2) == pytest.approx(1.5, abs=1e-12)
    f = center_observable(iid, [1.0, -1.0])
    for n in (1, 7, 64):
        assert variance_growth(iid, f, n) == pytest.approx(1.0, abs=1e-12)
    assert abs(variance_growth(two_state, sign, 10_000) - 3.0) <= 4.0 / 10_000


def test_variance_growth_equals_the_loop_oracle(two_state, iid, flip, sign):
    rng = np.random.default_rng(21)
    cases = [(two_state, sign), (iid, center_observable(iid, [1.0, -1.0])),
             (flip, center_observable(flip, [1.0, -1.0]))]
    for size in (3, 5, 9, 14):
        chain = random_reversible(rng, size)
        cases.append((chain, center_observable(chain, rng.normal(size=size))))
    # binary powering sums in another order than the loop: they agree to
    # roundoff, not bit for bit.  n - 1 = 1022, 1023 and 1024 in binary are
    # nine ones and a zero, ten ones, and a one and ten zeros, so each branch
    # of the doubling runs alone and mixed; 2^14 is verify's horizon
    for chain, f in cases:
        for n in (1, 2, 3, 17, 300, 1023, 1024, 1025, 2 ** 14):
            got, want = variance_growth(chain, f, n), variance_growth_loop(chain, f, n)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (n, got, want)


def _growth_without_the_m_a_term(chain, f, n):
    # variance_growth's doubling with b_{2m} = b_m + P^m b_m, the m a_m term
    # dropped: a wrong sum for every n > 2
    p = chain.kernel - chain.stationary[None, :]
    pf = p @ f.values
    a, b, pm = pf, pf, p
    for bit in bin(n - 1)[3:]:
        a, b, pm = a + pm @ a, b + pm @ b, pm @ pm
        if bit == "1":
            a = p @ (f.values + a)
            b, pm = b + a, pm @ p
    return (n * f.norm_sq + 2.0 * float(np.dot(chain.stationary * f.values, b))) / n


@pytest.mark.parametrize("mutant", [
    _growth_without_the_m_a_term,
    lambda chain, f, n: variance_growth(chain, f, n) + 1e-3,
], ids=["m-a-term-dropped", "offset-1e-3"])
def test_sigma_triangulation_fails_on_a_wrong_variance_growth(monkeypatch, mutant):
    assert verify.check_sigma_triangulation(2 ** 14).ok
    monkeypatch.setattr(verify, "variance_growth", mutant)
    assert not verify.check_sigma_triangulation(2 ** 14).ok


def test_variance_growth_tail_bound(two_state, sign):
    m = spectral_measure(two_state, sign)
    sigma_sq = spectral_integral(m, "sigma_sq")
    c = variance_tail_constant(m)
    for n in (2 ** 6, 2 ** 10, 2 ** 14):
        gap = abs(variance_growth(two_state, sign, n) - sigma_sq)
        assert gap <= 4.0 * c / n + 1e-12


def test_total_is_the_sum_of_the_masses():
    assert [f.name for f in dataclasses.fields(SpectralMeasure)] == ["locations", "masses"]
    rng = np.random.default_rng(41)
    chain = random_reversible(rng, 9)
    m = spectral_measure(chain, center_observable(chain, rng.normal(size=9)))
    assert m.total.hex() == float(np.sum(m.masses)).hex()
