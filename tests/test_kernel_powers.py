"""The partial-sum routines built on ``kernel_powers`` against the explicit
``q @ v`` loops they replaced (kept in ``tests/oracles.py``)."""

import numpy as np
import pytest

from qclt import chain as chain_module
from qclt import martingale
from qclt.chain import center_observable, make_chain, partial_sums
from qclt.inequalities import dyadic_block_maxsum, kernel_dyadic_sequence
from qclt.martingale import (
    kernel_gap_msq_table,
    kernel_powers,
    poisson_solve,
    projection_series,
    quenched_diagnostics,
    truncated_scheme,
)
from tests.oracles import (
    dyadic_block_maxsum_loop,
    kernel_dyadic_sequence_loop,
    kernel_gap_msq_table_loop,
    projection_series_loop,
    quenched_residual_loop,
    truncated_scheme_loop,
)
from tests.test_chain import random_reversible

SIZES = [2, 3, 7, 40]


def random_nonreversible(rng, n):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    return make_chain([str(i) for i in range(n)], w / w.sum(axis=1, keepdims=True))


def cases(size):
    rng = np.random.default_rng(size)
    out = []
    for build in (random_reversible, random_nonreversible):
        chain = build(rng, size)
        out.append((chain, center_observable(chain, rng.normal(size=size))))
    return out


def assert_close(actual, expect):
    # rtol 1e-12, with an absolute floor at the same relative size of the
    # largest entry for values that cancel to near zero
    expect = np.asarray(expect)
    np.testing.assert_allclose(actual, expect, rtol=1e-12,
                               atol=1e-12 * max(float(np.max(np.abs(expect))), 1e-300))


@pytest.mark.parametrize("size", SIZES)
def test_kernel_powers_rows_match_loop(size):
    for chain, f in cases(size):
        rows = kernel_powers(chain, f.values, 9)
        qkf = f.values.copy()
        expect = [qkf]
        for _ in range(9):
            qkf = chain.kernel @ qkf
            expect.append(qkf)
        assert rows.shape == (10, size)
        assert np.array_equal(rows, np.array(expect))


def test_kernel_powers_lives_in_chain_and_imports_from_martingale():
    assert martingale.kernel_powers is chain_module.kernel_powers


@pytest.mark.parametrize("size", SIZES)
def test_partial_sums_match_loop(size):
    # row k-1: V_k v and Q V_k v, each added in increasing power
    for chain, f in cases(size):
        v, qv = partial_sums(chain, f.values, 9)
        assert v.shape == qv.shape == (9, size)
        qkf, v_k, qv_k = f.values.copy(), np.zeros(size), np.zeros(size)
        for k in range(9):
            v_k = v_k + qkf
            qkf = chain.kernel @ qkf
            qv_k = qv_k + qkf
            assert np.array_equal(v[k], v_k)
            assert np.array_equal(qv[k], qv_k)


def test_kernel_powers_zero_power_is_v(two_state, sign):
    rows = kernel_powers(two_state, sign.values, 0)
    assert rows.shape == (1, 2)
    assert np.array_equal(rows[0], sign.values)


@pytest.mark.parametrize("size", SIZES)
def test_truncated_scheme_matches_loop(size):
    for chain, f in cases(size):
        for n in (1, 2, 5, 17):
            v, h = truncated_scheme(chain, f, n)
            v_loop, h_loop = truncated_scheme_loop(chain, f, n)
            assert_close(v, v_loop)
            assert_close(h, h_loop)


@pytest.mark.parametrize("size", SIZES)
def test_gap_msq_table_matches_loop(size):
    for chain, f in cases(size):
        assert_close(kernel_gap_msq_table(chain, f, 24), kernel_gap_msq_table_loop(chain, f, 24))


@pytest.mark.parametrize("size", SIZES)
def test_projection_series_matches_loop(size):
    for chain, f in cases(size):
        rep = projection_series(chain, f, 30)
        pr, mix, res = projection_series_loop(chain, f, 30)
        assert_close(rep.projection_partial, pr)
        assert_close(rep.mixing_partial, mix)
        assert_close(rep.resolvent_partial, res)


@pytest.mark.parametrize("size", SIZES)
def test_kernel_dyadic_sequence_matches_loop(size):
    for chain, f in cases(size):
        seq = kernel_dyadic_sequence(chain, f, 5)
        assert_close(seq.values, kernel_dyadic_sequence_loop(chain, f, 5))
        pair = (chain.stationary[:, None] * chain.kernel).reshape(-1)
        assert np.array_equal(seq.probs, pair)
        assert kernel_dyadic_sequence(chain, f, 0).values.shape == (0, size * size)


@pytest.mark.parametrize("size", SIZES)
def test_dyadic_block_maxsum_matches_loop(size):
    chain, f = cases(size)[0]      # the bound is a reversible-chain statement
    for d in (0, 3, 6):
        lhs, _ = dyadic_block_maxsum(chain, f, d)
        assert_close(lhs, dyadic_block_maxsum_loop(chain, f, d))


@pytest.mark.parametrize("size", SIZES)
def test_quenched_cond_mean_matches_loop(size):
    for chain, f in cases(size):
        scheme = poisson_solve(chain, f)
        fv = scheme.g - scheme.qg
        for n in (1, 3, 16):
            cond_means = np.zeros(size)
            qkf = fv.copy()
            for _ in range(n):
                qkf = chain.kernel @ qkf
                cond_means += qkf
            for x in range(size):
                d = quenched_diagnostics(chain, scheme, x, n)
                assert np.array_equal(d.cond_mean, cond_means[x])
                assert np.array_equal(d.asdl_sup,
                                      float(np.max(np.abs(cond_means))) / float(np.sqrt(n)))


@pytest.mark.parametrize("size", SIZES)
def test_quenched_residual_matches_row_loop(size):
    # Q^n applied to the squared jumps, not a row of Q^n: equal up to roundoff
    for chain, f in cases(size):
        scheme = poisson_solve(chain, f)
        for n in (1, 3, 16, 257):
            for x in range(size):
                d = quenched_diagnostics(chain, scheme, x, n)
                assert_close(d.residual_msq, quenched_residual_loop(chain, scheme, x, n))
