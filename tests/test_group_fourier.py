"""The array-built group walk against the element-tuple loops it replaced.

Kernels, elements, labels and flags must match the loops exactly; the FFT
multipliers and coefficients must match the direct sums to 1e-12.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclt.chain import center_observable
from qclt.errors import SpectralDefect
from qclt.group_walk import build_group_walk, condition_sums, fourier_measure, walk_fourier
from tests.oracles import group_walk_loop, walk_fourier_loop

WALKS = [
    ((1,), {0: 1.0}),
    ((3,), {1: 1.0}),
    ((4,), {1: 0.25, 3: 0.25, 2: 0.5}),
    ((5,), {1: 0.5, 4: 0.5}),
    ((7,), {1: 0.3, 2: 0.7}),
    ((4, 3), {(1, 0): 0.25, (3, 0): 0.25, (0, 1): 0.25, (0, 2): 0.25}),
    ((11, 10), {(1, 0): 0.4, (0, 3): 0.35, (5, 7): 0.25}),
    ((2, 3, 4), {(1, 1, 1): 0.5, (0, 2, 3): 0.25, (1, 2, 1): 0.25}),
    ((40, 25), {(1, 0): 0.25, (39, 0): 0.25, (0, 1): 0.25, (0, 24): 0.25}),
]


def assert_matches_loops(moduli, atoms, seed=0):
    walk = build_group_walk(moduli, atoms)
    pooled_atoms, elements, chain, symmetric, ergodic = group_walk_loop(moduli, atoms)
    assert walk.atoms == pooled_atoms
    assert walk.elements == elements
    assert np.array_equal(walk.chain.kernel, chain.kernel)
    assert walk.chain.state_labels == chain.state_labels
    assert walk.chain.flags == chain.flags
    assert walk.symmetric == symmetric and walk.ergodic == ergodic
    pooled = dict(pooled_atoms)
    raw = np.random.default_rng(seed).normal(size=len(elements))
    f = center_observable(walk.chain, raw)
    nuhat, fhat = walk_fourier(walk, f)
    nuhat_loop, fhat_loop = walk_fourier_loop(moduli, pooled, f.values)
    np.testing.assert_allclose(nuhat, nuhat_loop, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fhat, fhat_loop, rtol=0, atol=1e-12)


@pytest.mark.parametrize("moduli, atoms", WALKS, ids=[str(m) for m, _ in WALKS])
def test_fixed_walks_match_loops(moduli, atoms):
    assert_matches_loops(moduli, atoms)


@st.composite
def walks(draw):
    moduli = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    count = draw(st.integers(1, 6))
    steps = [tuple(draw(st.integers(-20, 20)) for _ in moduli) for _ in range(count)]
    weights = [draw(st.integers(1, 10)) for _ in range(count)]
    total = sum(weights)
    # a list of pairs, so repeated and congruent steps are pooled by the build
    return moduli, [(z, w / total) for z, w in zip(steps, weights)]


@settings(max_examples=150, deadline=None)
@given(walks(), st.integers(0, 2 ** 32 - 1))
def test_random_walks_match_loops(walk, seed):
    moduli, atoms = walk
    assert_matches_loops(moduli, atoms, seed)


def test_roundoff_characters_leave_the_measure():
    # the (1,1) harmonic on Z4 x Z3 lives on two characters whose G1 weight
    # (log+ |log 0.625|)^2 is 0; the other characters carry only roundoff
    walk = build_group_walk([4, 3], {(0, 0): 0.5, (1, 0): 0.125, (3, 0): 0.125,
                                     (0, 1): 0.125, (0, 2): 0.125})
    coords = np.indices((4, 3)).reshape(2, -1)
    raw = math.sqrt(2.0) * np.cos(2 * math.pi * (coords[0] / 4 + coords[1] / 3))
    f = center_observable(walk.chain, raw)
    measure = fourier_measure(walk, f)
    assert len(measure.masses) == 2
    np.testing.assert_allclose(np.abs(1.0 - measure.locations), 0.625, atol=1e-12)
    assert condition_sums(walk, f).g1_sum == 0.0


def test_unit_gap_gives_zero_log_weights_without_warnings():
    # on Z4 with steps +-1 the size-4 FFT is exact: nuhat(1) = nuhat(3) = 0,
    # so |1 - nuhat| = 1 and both log weights vanish
    walk = build_group_walk([4], {1: 0.5, 3: 0.5})
    f = center_observable(walk.chain, math.sqrt(2.0) * np.cos(np.pi * np.arange(4) / 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = condition_sums(walk, f)
    assert rep.g1_sum == 0.0 and rep.sn1_sum == 0.0
    assert rep.sr_sum == pytest.approx(1.0, abs=1e-15)


def g1_loop(moduli, pooled, fvalues) -> float:
    """``sum (log+ |log|1 - nuhat||)^2 |fhat|^2 / |1 - nuhat|`` over the
    non-identity characters, one character at a time on Python floats."""
    nuhat, fhat = walk_fourier_loop(moduli, pooled, fvalues)
    total = 0.0
    for nu, c in zip(nuhat[1:].tolist(), fhat[1:].tolist()):
        gap = abs(1.0 - nu)
        total += math.log(max(abs(math.log(gap)), 1.0)) ** 2 * abs(c) ** 2 / gap
    return total


@pytest.mark.parametrize("moduli, atoms", [
    ((7,), {0: 0.5, 1: 0.3, 6: 0.2}),
    ((11, 10), {(0, 0): 0.5, (1, 0): 0.125, (10, 0): 0.125, (0, 1): 0.125, (0, 9): 0.125}),
    ((11, 10), {(1, 0): 0.4, (0, 3): 0.35, (5, 7): 0.25}),
    ((9,), {0: 0.3, 1: 0.5, 8: 0.2}),
], ids=["Z7-lazy-drift", "Z11xZ10-lazy-symmetric", "Z11xZ10-drift", "Z9-lazy-drift"])
@pytest.mark.parametrize("seed", [0, 5])
def test_positive_g1_sum_matches_the_character_loop(moduli, atoms, seed):
    walk = build_group_walk(moduli, atoms)
    f = center_observable(walk.chain, np.random.default_rng(seed).normal(size=len(walk.elements)))
    expect = g1_loop(moduli, dict(walk.atoms), f.values)
    assert expect > 1e-3
    assert condition_sums(walk, f).g1_sum == pytest.approx(expect, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scale", [2.0, float("nan")], ids=["doubled", "nan"])
def test_parseval_defect_is_a_spectral_defect(scale):
    # a norm that the coefficients do not reproduce, NaN included, is a
    # defect of the spectral data, not of the step measure
    walk = build_group_walk([5], {1: 0.5, 4: 0.5})
    f = center_observable(walk.chain, np.arange(5.0))
    walk_fourier(walk, f)
    with pytest.raises(SpectralDefect, match="Parseval"):
        walk_fourier(walk, dataclasses.replace(f, norm_sq=scale * f.norm_sq))
