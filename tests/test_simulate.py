import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from qclt import kernels, rng
from qclt.chain import center_observable, make_chain
from qclt.errors import DegenerateSigma, EmptySample
from qclt.martingale import poisson_solve, quenched_diagnostics
from qclt.rng import GOLDEN, MASK64, Stream, stream_keys
from qclt.simulate import (
    SimulationReport,
    cumulative_rows,
    ks_distance,
    sample_report,
    simulate_quenched,
    _dump_samples,
    standard_normal_cdf,
)
from tests.oracles import PathStream, dump_samples_loop, sample_path, stream_key


def test_stream_keys_match_scalar():
    keys = stream_keys(99, 8)
    assert [int(k) for k in keys] == [stream_key(99, i) for i in range(8)]


@pytest.mark.parametrize("shape", [0, 1, 7, (3, 4), (2, 0, 3)])
@pytest.mark.parametrize("counter", [None, (-3 * GOLDEN) % 2 ** 64, MASK64])
def test_stream_uniforms_equal_the_per_draw_uniforms(shape, counter):
    # the one-pass array against `uniform` draw by draw, bit for bit, and the
    # counter left where the draws leave it, so an `integer` draw after them
    # agrees too; from 2^64 - 3 GOLDEN the third draw's counter wraps to 0
    batch, single = Stream(2024, 5), Stream(2024, 5)
    if counter is not None:
        batch.counter = single.counter = counter
    got = batch.uniforms(-0.5, 2.0, shape)
    want = np.array([single.uniform(-0.5, 2.0) for _ in range(int(np.prod(shape)))])
    assert got.shape == np.empty(shape).shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert batch.counter == single.counter
    assert batch.integer(3, 13) == single.integer(3, 13)


def test_numpy_integer_seeds_draw_as_python_integers():
    # a seed is taken mod 2^64 as a Python integer, never added to in
    # numpy's fixed width, where it would overflow or warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [Stream(seed).uniforms(0.0, 1.0, 4).tobytes()
                 for seed in (np.int64(-1), -1, 2 ** 64 - 1)]
        assert draws[0] == draws[1] == draws[2]
        assert rng.stream_key(np.uint64(2 ** 63), np.int64(3)) == rng.stream_key(2 ** 63, 3)
        assert Stream(np.uint64(2 ** 63)).bits() == Stream(2 ** 63).bits()


def test_sample_path_identity_and_flip(flip):
    ident = make_chain("012", np.eye(3), stationary=[1 / 3] * 3)
    path = sample_path(ident, 1, 16, PathStream(0, 0))
    np.testing.assert_array_equal(path, np.ones(17, dtype=np.int64))
    path = sample_path(flip, 0, 6, PathStream(0, 0))
    np.testing.assert_array_equal(path, [0, 1, 0, 1, 0, 1, 0])


def test_sample_path_replays(two_state):
    a = sample_path(two_state, 0, 64, PathStream(7, 3))
    b = sample_path(two_state, 0, 64, PathStream(7, 3))
    np.testing.assert_array_equal(a, b)
    c = sample_path(two_state, 0, 64, PathStream(7, 4))
    assert not np.array_equal(a, c)


def test_sample_path_consistent_with_kernels(two_state, sign):
    # the scalar path replay and the batch kernels draw identical transitions
    scheme = poisson_solve(two_state, sign)
    n, paths, seed = 33, 6, 123
    for backend in kernels.available_backends():
        sums, mart, last = kernels.run_chain_paths(
            cumulative_rows(two_state), sign.values,
            np.ascontiguousarray(scheme.diff_kernel), 0, n, paths, seed,
            backend=backend)
        for i in range(paths):
            states = sample_path(two_state, 0, n, PathStream(seed, i))
            assert last[i] == states[-1]
            assert sums[i] == pytest.approx(float(np.sum(sign.values[states[1:]])), abs=1e-12)
            h = scheme.diff_kernel
            assert mart[i] == pytest.approx(
                float(np.sum(h[states[:-1], states[1:]])), abs=1e-12)


@pytest.mark.parametrize("workers", [1, 2])
def test_backends_bitwise_identical_on_chain(two_state, sign, compiled_backend, workers):
    scheme = poisson_solve(two_state, sign)
    args = (cumulative_rows(two_state), sign.values,
            np.ascontiguousarray(scheme.diff_kernel), 0, 257, 512, 77)
    out = {name: compiled_backend.run_chain_paths(*args, workers=workers, backend=name)
           for name in compiled_backend.available_backends()}
    a = out["python"]
    for name, b in out.items():
        np.testing.assert_array_equal(a[0], b[0], err_msg=name)
        np.testing.assert_array_equal(a[1], b[1], err_msg=name)
        np.testing.assert_array_equal(a[2], b[2], err_msg=name)


def test_ks_distance_values():
    assert ks_distance(np.array([0.0]), standard_normal_cdf) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(EmptySample):
        ks_distance(np.array([]), standard_normal_cdf)
    # inverse-transform quantile grid lands within 1/N
    n = 1000
    grid = scipy.stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    assert ks_distance(grid, standard_normal_cdf) <= 1.0 / n


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(5):
        sample = np.sort(rng.normal(size=257))
        mine = ks_distance(sample, standard_normal_cdf)
        ref = scipy.stats.kstest(sample, "norm").statistic
        assert mine == pytest.approx(ref, abs=1e-12)


def test_ks_null_scale():
    n = 100_000
    for seed in (0, 1):
        sample = np.sort(np.random.default_rng(seed).normal(size=n))
        d = ks_distance(sample, standard_normal_cdf)
        assert d <= 1.5 * 1.36 / np.sqrt(n)
        assert d >= 0.05 / np.sqrt(n)


def test_normal_cdf_accuracy():
    xs = np.linspace(-8, 8, 321)
    np.testing.assert_allclose(standard_normal_cdf(xs), scipy.stats.norm.cdf(xs),
                               atol=1e-12)


def test_simulate_deterministic_across_workers(two_state, sign):
    scheme = poisson_solve(two_state, sign)
    reports = [simulate_quenched(two_state, scheme, 0, 128, 3000, seed=5, workers=w)
               for w in (1, 2, 3, 7)]
    assert all(r == reports[0] for r in reports[1:])


def test_simulate_residual_and_moments(two_state, sign):
    scheme = poisson_solve(two_state, sign)
    rep = simulate_quenched(two_state, scheme, 1, 512, 4000, seed=9)
    assert rep.residual_max <= 1e-9
    # E^x(S_n)/sqrt(n) within 4 standard errors of the empirical mean
    diag = quenched_diagnostics(two_state, scheme, [1], [512])[0]
    se = np.sqrt(rep.sample_var / rep.num_paths)
    assert abs(rep.sample_mean - diag.cond_mean / np.sqrt(512)) <= 4 * se


def test_simulate_iid_clt_smoke(iid):
    f = center_observable(iid, [1.0, -1.0])
    scheme = poisson_solve(iid, f)
    rep = simulate_quenched(iid, scheme, 0, 256, 20_000, seed=3)
    assert rep.ks_distance <= 0.05
    assert rep.sample_var == pytest.approx(1.0, rel=0.05)


def test_annealed_mixture_matches_sigma_sq(two_state, sign):
    # mixing fixed-start samples with pi weights reproduces the limit variance
    scheme = poisson_solve(two_state, sign)
    a = simulate_quenched(two_state, scheme, 0, 1024, 10_000, seed=2)
    b = simulate_quenched(two_state, scheme, 1, 1024, 10_000, seed=3)
    mixed_second_moment = 0.5 * (a.sample_var + a.sample_mean ** 2) \
        + 0.5 * (b.sample_var + b.sample_mean ** 2)
    assert mixed_second_moment == pytest.approx(scheme.sigma_sq, rel=0.05)


def test_simulate_rejects_degenerate_and_tiny(flip, two_state, sign):
    f = center_observable(flip, [1.0, -1.0])
    scheme = poisson_solve(flip, f)
    with pytest.raises(DegenerateSigma):
        simulate_quenched(flip, scheme, 0, 64, 1000, seed=0)
    with pytest.raises(EmptySample):
        simulate_quenched(two_state, poisson_solve(two_state, sign), 0, 8, 99, seed=0)


def test_sample_variance_is_the_two_pass_variance():
    rng = np.random.default_rng(17)
    for _ in range(200):
        sums = rng.standard_normal(int(rng.integers(100, 400))) * 10.0 ** rng.uniform(-100, 100)
        scaled = sums / math.sqrt(16)
        mean = float(np.mean(scaled))
        two_pass = float(np.sum((scaled - mean) ** 2) / (len(scaled) - 1))
        assert sample_report(sums, 0, 16, 0, 1.0).sample_var == two_pass


def test_huge_observable_scales_exactly(two_state):
    # 2^510 scales every path sum exactly; the squared deviations alone would overflow
    big = 2.0 ** 510
    unit, huge = (simulate_quenched(two_state,
                                    poisson_solve(two_state,
                                                  center_observable(two_state, [c, -c])),
                                    0, 8, 200, seed=4)
                  for c in (1.0, big))
    assert huge.sample_var == unit.sample_var * big * big
    assert huge.sample_mean == unit.sample_mean * big
    assert huge.ks_distance == unit.ks_distance


def test_dump_format(tmp_path, two_state, sign):
    scheme = poisson_solve(two_state, sign)
    out = tmp_path / "dump.csv"
    simulate_quenched(two_state, scheme, 0, 16, 200, seed=1, dump_path=out)
    lines = out.read_text().splitlines()
    assert lines[0] == "path_index,s_scaled,m_scaled"
    assert len(lines) == 201
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[1]), float(first[2])


def test_dump_matches_row_loop():
    rng = np.random.default_rng(12)
    s_scaled = rng.standard_normal(1000)
    s_scaled[:4] = [0.0, -0.0, 1e-300, 123456789.123456789]
    m_scaled = s_scaled + 1e-9 * rng.standard_normal(1000)
    joined, looped = io.StringIO(), io.StringIO()
    _dump_samples(joined, s_scaled, m_scaled)
    dump_samples_loop(looped, s_scaled, m_scaled)
    assert joined.getvalue() == looped.getvalue()


def test_sample_path_matches_kernel_last_states_on_wide_chain(compiled_backend):
    # nine states, a third of the transitions impossible: the scalar replay's
    # searchsorted and both kernels' searches land on the same states
    rng = np.random.default_rng(9)
    q = rng.random((9, 9))
    q[rng.random((9, 9)) < 0.35] = 0.0
    q += 1e-3 * np.eye(9)
    q /= q.sum(axis=1, keepdims=True)
    chain = make_chain([str(i) for i in range(9)], q)
    fvals, hmat = rng.standard_normal(9), rng.standard_normal((9, 9))
    n, paths, seed = 40, 11, 31
    for backend in compiled_backend.available_backends():
        _, _, last = compiled_backend.run_chain_paths(cumulative_rows(chain), fvals, hmat, 8,
                                                      n, paths, seed, backend=backend)
        for i in range(paths):
            assert last[i] == sample_path(chain, "8", n, PathStream(seed, i))[-1]


def test_report_does_not_carry_the_backend():
    # the backend is a process-wide fact: kernels.BACKEND, echoed in the simulate config
    assert "backend" not in {f.name for f in dataclasses.fields(SimulationReport)}
