import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from qclt.chain import center_observable, make_chain
from qclt.errors import (
    BadIndexOrder,
    NearSingular,
    NonFiniteValue,
    NotIrreducible,
    NotMeanZero,
    RateNotContractive,
)
from qclt.martingale import (
    ApproximationDiagnostics,
    MartingaleScheme,
    poisson_solve,
    projection_series,
    quenched_diagnostics,
    tail_sup_deviation,
    truncated_scheme,
)
from qclt.spectral import spectral_integral, spectral_measure
from tests.conftest import sign_of
from tests.oracles import kernel_gap_msq, tail_sup_deviation_table
from tests.test_chain import random_reversible
from tests.test_spectral import jacobi_spectrum, wide_walk


def test_poisson_two_state(two_state, sign):
    s = poisson_solve(two_state, sign)
    np.testing.assert_allclose(s.g, [2.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(s.qg, [1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(s.diff_kernel, [[1.0, -3.0], [3.0, -1.0]], atol=1e-12)
    assert s.sigma_sq == pytest.approx(3.0, abs=1e-12)
    assert s.rate == pytest.approx(0.5, abs=1e-12)


def test_poisson_iid(iid):
    f = center_observable(iid, [1.0, -1.0])
    s = poisson_solve(iid, f)
    np.testing.assert_allclose(s.g, f.values, atol=1e-12)
    np.testing.assert_allclose(s.qg, [0.0, 0.0], atol=1e-12)
    # H(x, y) = f(y): rows all equal f
    np.testing.assert_allclose(s.diff_kernel, np.tile(f.values, (2, 1)), atol=1e-12)
    assert s.sigma_sq == pytest.approx(1.0, abs=1e-12)
    assert s.rate == pytest.approx(0.0, abs=1e-12)


def test_poisson_rejects_bad_inputs(two_state):
    from qclt.chain import Observable
    not_centered = Observable(values=np.array([1.0, 1.0]), norm_sq=1.0, mean=1.0)
    with pytest.raises(NotMeanZero):
        poisson_solve(two_state, not_centered)
    reducible = make_chain("01", np.eye(2), stationary=[0.5, 0.5])
    with pytest.raises(NotIrreducible):
        poisson_solve(reducible, center_observable(reducible, [1.0, -1.0]))


def test_poisson_rejects_non_finite_sigma_sq(two_state):
    from qclt.chain import Observable
    # sum pi f^2 = 1e308 is finite, but the squared martingale jumps overflow
    with pytest.raises(NonFiniteValue):
        poisson_solve(two_state, center_observable(two_state, [1e154, -1e154]))
    # a NaN passes the residual test; it reaches sigma^2 and is caught there
    nan = Observable(values=np.array([np.nan, np.nan]), norm_sq=0.0, mean=0.0)
    with pytest.raises(NonFiniteValue):
        poisson_solve(two_state, nan)


def test_martingale_property_random_chains():
    rng = np.random.default_rng(6)
    for _ in range(6):
        chain = random_reversible(rng, int(rng.integers(2, 12)))
        f = center_observable(chain, rng.normal(size=chain.n_states))
        s = poisson_solve(chain, f)
        cond = np.abs(np.sum(chain.kernel * s.diff_kernel, axis=1))
        assert float(cond.max()) <= 1e-12


def test_truncated_scheme_values(two_state, iid, sign):
    v2, h2 = truncated_scheme(two_state, sign, 2)
    np.testing.assert_allclose(v2, [1.5, -1.5], atol=1e-12)
    assert h2[0, 1] == pytest.approx(-2.25, abs=1e-12)
    v1, h1 = truncated_scheme(two_state, sign, 1)
    np.testing.assert_allclose(v1, sign.values, atol=1e-15)
    qf = two_state.kernel @ sign.values
    np.testing.assert_allclose(h1, sign.values[None, :] - qf[:, None], atol=1e-15)
    f = center_observable(iid, [1.0, -1.0])
    for n in (1, 5, 30):
        vn, hn = truncated_scheme(iid, f, n)
        np.testing.assert_allclose(vn, f.values, atol=1e-12)
        np.testing.assert_allclose(hn, np.tile(f.values, (2, 1)), atol=1e-12)


def test_truncated_equals_poisson_tail(two_state, sign):
    s = poisson_solve(two_state, sign)
    for n in (1, 3, 10, 40):
        vn, hn = truncated_scheme(two_state, sign, n)
        qpow = s.g.copy()
        for _ in range(n):
            qpow = two_state.kernel @ qpow
        np.testing.assert_allclose(vn, s.g - qpow, atol=1e-10)
        # uniform convergence of the horizon kernels at geometric rate
        gap = float(np.max(np.abs(hn - s.diff_kernel)))
        assert gap <= 2.0 * float(np.max(np.abs(qpow))) + 1e-12
        assert gap <= 4.0 * s.rate ** n + 1e-12


def test_gap_msq_values(two_state, iid, sign):
    assert kernel_gap_msq(two_state, sign, 1, 2) == pytest.approx(0.1875, abs=1e-12)
    with pytest.raises(BadIndexOrder):
        kernel_gap_msq(two_state, sign, 2, 2)
    f = center_observable(iid, [1.0, -1.0])
    for m, n in [(1, 2), (2, 9)]:
        assert kernel_gap_msq(iid, f, m, n) == pytest.approx(0.0, abs=1e-15)


def test_tail_sup_deviation(two_state, iid, flip, sign):
    f = center_observable(iid, [1.0, -1.0])
    assert tail_sup_deviation(iid, poisson_solve(iid, f), 0) == pytest.approx(0.0, abs=1e-15)
    scheme = poisson_solve(two_state, sign)
    values = [tail_sup_deviation(two_state, scheme, n) for n in range(5, 10)]
    for a, b in zip(values, values[1:]):
        assert b <= a
        assert 0.2 <= b / a <= 0.3  # contraction rate 0.5 squares to 0.25
    ff = center_observable(flip, [1.0, -1.0])
    with pytest.raises(RateNotContractive):
        tail_sup_deviation(flip, poisson_solve(flip, ff), 1)


@pytest.mark.parametrize("S", [2, 3, 7, 40])
def test_tail_sup_deviation_equals_the_table_form_bitwise(S):
    chain = random_reversible(np.random.default_rng(S), S)
    f = center_observable(chain, np.random.default_rng(S + 1).standard_normal(S))
    scheme = poisson_solve(chain, f)
    for N in (0, 1, 2, 7, 64, 300):
        got = tail_sup_deviation(chain, scheme, N)
        assert got.hex() == tail_sup_deviation_table(chain, scheme, N).hex(), N


def test_tail_sup_deviation_stops_at_the_exact_fixed_point():
    # Q^k g is fixed bit for bit from about k = 59 on this chain, so every
    # N past it gives the same bits, and N = 10^12 needs no 10^12 products
    chain = make_chain("abc", [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    scheme = poisson_solve(chain, center_observable(chain, [1.0, -1.0, 0.5]))
    start = time.perf_counter()
    huge = tail_sup_deviation(chain, scheme, 10 ** 12)
    assert time.perf_counter() - start < 1.0
    assert huge.hex() == tail_sup_deviation(chain, scheme, 10 ** 4).hex()


def test_tail_sup_deviation_peak_does_not_grow_with_n(two_state, sign):
    # the table form held N + 2 rows: 3.2 MB at S = 2 and N = 2 * 10^5
    scheme = poisson_solve(two_state, sign)
    peaks = []
    for N in (10, 2 * 10 ** 5):
        tracemalloc.start()
        try:
            tail_sup_deviation(two_state, scheme, N)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1024, peaks


def test_quenched_diagnostics_fixture(two_state, sign):
    scheme = poisson_solve(two_state, sign)
    d = quenched_diagnostics(two_state, scheme, [0], [3])[0]
    assert d.cond_mean == pytest.approx(0.875, abs=1e-10)
    assert d.residual_msq == pytest.approx(1.75, abs=1e-12)
    assert d.residual_over_n == pytest.approx(1.75 / 3.0, abs=1e-12)
    assert d.asdl_sup == pytest.approx(0.875 / np.sqrt(3.0), abs=1e-10)


def test_quenched_diagnostics_iid_and_bound(two_state, iid, sign):
    f = center_observable(iid, [1.0, -1.0])
    s = poisson_solve(iid, f)
    for x in (0, 1):
        assert quenched_diagnostics(iid, s, [x], [9])[0].residual_msq == pytest.approx(0.0, abs=1e-15)
    scheme = poisson_solve(two_state, sign)
    bound = 4.0 * float(np.max(np.abs(scheme.qg))) ** 2
    for n in (64, 512, 4096):
        d = quenched_diagnostics(two_state, scheme, [1], [n])[0]
        assert d.residual_over_n <= bound / n + 1e-12


@pytest.mark.parametrize("horizons", [[], [4, 0]])
def test_quenched_diagnostics_needs_horizons_of_at_least_one(two_state, sign, horizons):
    with pytest.raises(BadIndexOrder):
        quenched_diagnostics(two_state, poisson_solve(two_state, sign), [0], horizons)


def test_projection_series_fixture(two_state, sign):
    rep = projection_series(two_state, sign, 8)
    # ||Q^k f||^2 = 0.25^k
    assert rep.mixing_partial[1] == pytest.approx(0.5 + 0.25 / np.sqrt(2.0), abs=1e-12)
    pr_terms = np.diff(np.concatenate([[0.0], rep.projection_partial]))
    expected = [np.sqrt(0.75 * 0.25 ** k) for k in range(1, 9)]
    np.testing.assert_allclose(pr_terms, expected, rtol=1e-12)


def test_projection_series_iid(iid):
    f = center_observable(iid, [1.0, -1.0])
    rep = projection_series(iid, f, 10)
    np.testing.assert_allclose(rep.projection_partial, 0.0, atol=1e-15)
    np.testing.assert_allclose(rep.mixing_partial, 0.0, atol=1e-15)
    # the resolvent series keeps V_j f = f: terms (log log max(j,3))^2 / j^2
    assert rep.resolvent_partial[-1] > 0


def test_projection_orthogonality_bound():
    rng = np.random.default_rng(29)
    for _ in range(4):
        chain = random_reversible(rng, int(rng.integers(2, 10)))
        f = center_observable(chain, rng.normal(size=chain.n_states))
        rep = projection_series(chain, f, 40)
        # telescoping: partial sums of squared projection norms stay below <f,f>
        qf = chain.kernel @ f.values
        first_sq = f.norm_sq - float(np.sum(chain.stationary * qf * qf))
        total_sq = first_sq
        pr_terms = np.diff(np.concatenate([[0.0], rep.projection_partial]))
        total_sq += float(np.sum(pr_terms ** 2))
        assert total_sq <= f.norm_sq + 1e-9


def test_scheme_sigma_matches_spectral():
    rng = np.random.default_rng(31)
    for _ in range(5):
        chain = random_reversible(rng, int(rng.integers(3, 12)))
        f = center_observable(chain, rng.normal(size=chain.n_states))
        sigma_spec = spectral_integral(spectral_measure(chain, f), "sigma_sq")
        sigma_scheme = poisson_solve(chain, f).sigma_sq
        assert sigma_scheme == pytest.approx(sigma_spec, rel=1e-9)


def jacobi_rate(chain):
    vals, _ = jacobi_spectrum(chain)
    rest = np.delete(vals, int(np.argmin(np.abs(vals - 1.0))))
    return float(np.max(np.abs(rest))) if len(rest) else 0.0


def test_mean_zero_rate_matches_jacobi(two_state, iid, flip):
    rng = np.random.default_rng(37)
    chains = [two_state, iid, flip, wide_walk().chain]
    chains += [random_reversible(rng, size) for size in (2, 3, 7, 40)]
    for chain in chains:
        rate = poisson_solve(chain, sign_of(chain)).rate
        assert abs(rate - jacobi_rate(chain)) <= 1e-12


def test_one_eigendecomposition_per_chain(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    chain = random_reversible(np.random.default_rng(43), 6)
    f = center_observable(chain, np.arange(6.0))
    spectral_measure(chain, f)
    poisson_solve(chain, f)
    spectral_measure(chain, center_observable(chain, np.arange(6.0) ** 2))
    assert calls == [(6, 6)]


def count_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counting_eigvals(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    return calls


def test_poisson_solve_takes_one_spectrum_on_the_three_cycle(monkeypatch):
    # non-reversible, with mean-zero eigenvalues of modulus 1: the rate and
    # the near-+1 test read the same eigvals call
    calls = count_eigvals(monkeypatch)
    cycle = make_chain("012", [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    scheme = poisson_solve(cycle, center_observable(cycle, [1.0, 0.0, 0.0]))
    assert calls == [(3, 3)]
    assert scheme.rate == pytest.approx(1.0, abs=1e-12)


def test_poisson_solve_reuses_the_cached_spectrum_on_the_flip_chain(monkeypatch, flip):
    calls = count_eigvals(monkeypatch)
    scheme = poisson_solve(flip, center_observable(flip, [1.0, -1.0]))
    assert calls == []
    assert scheme.rate == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(scheme.g, [0.5, -0.5], atol=1e-12)


@pytest.mark.parametrize("kernel", [
    [[1 - 1e-14, 1e-14], [1e-14, 1 - 1e-14]],                            # reversible
    [[1 - 1e-14, 1e-14, 0], [0, 1 - 1e-14, 1e-14], [1e-14, 0, 1 - 1e-14]],  # a slow cycle
], ids=["reversible", "non-reversible"])
def test_poisson_solve_rejects_an_eigenvalue_near_one(kernel):
    n = len(kernel)
    chain = make_chain([str(i) for i in range(n)], kernel, stationary=[1.0 / n] * n)
    assert chain.flags.irreducible
    with pytest.raises(NearSingular):
        poisson_solve(chain, center_observable(chain, np.arange(float(n))))


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_scheme_derives_its_difference_kernel(two_state, sign):
    assert [f.name for f in dataclasses.fields(MartingaleScheme)] == ["g", "qg", "sigma_sq", "rate"]
    rng = np.random.default_rng(31)
    nonrev = make_chain([str(i) for i in range(5)], rng.dirichlet(np.ones(5), size=5))
    for chain, f in [(two_state, sign), (random_reversible(rng, 7), None), (nonrev, None)]:
        f = f or center_observable(chain, rng.normal(size=chain.n_states))
        s = poisson_solve(chain, f)
        assert _hex(s.diff_kernel) == _hex(s.g[None, :] - s.qg[:, None])


def test_residual_over_n_is_derived(two_state, sign):
    assert "residual_over_n" not in {f.name for f in dataclasses.fields(ApproximationDiagnostics)}
    scheme = poisson_solve(two_state, sign)
    for d in quenched_diagnostics(two_state, scheme, [0, 1], [1, 3, 7, 1000]):
        assert d.residual_over_n.hex() == (d.residual_msq / float(d.n)).hex()


def test_poisson_solve_retains_no_pair_table():
    S = 300
    chain = random_reversible(np.random.default_rng(8), S)
    f = center_observable(chain, np.random.default_rng(9).normal(size=S))
    poisson_solve(chain, f)         # caches the chain's spectrum, which the chain keeps
    tracemalloc.start()
    try:
        scheme = poisson_solve(chain, f)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert scheme.g.shape == (S,)
    assert retained < S * S * 8 // 2, retained
