import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclt.chain import (
    DEFAULT_CLASSIFY_TOL,
    adjoint_kernel,
    as_observable,
    center_observable,
    classify_chain,
    dump_document,
    inner_product,
    load_document,
    make_chain,
    open_output,
    pair_law,
    read_json,
)
from qclt.errors import (
    BadFile,
    DimensionMismatch,
    DuplicateLabel,
    NegativeEntry,
    NonFiniteValue,
    NonStochasticRow,
    NotMeanZero,
    SingularStationary,
)
from qclt.group_walk import build_group_walk
from tests.oracles import classify_chain_search, dump_document_indented

ROTATION3 = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]


def random_reversible(rng, n):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = 0.5 * (w + w.T)
    return make_chain([str(i) for i in range(n)], w / w.sum(axis=1, keepdims=True))


def test_two_state_load(two_state):
    np.testing.assert_allclose(two_state.stationary, [0.5, 0.5], atol=1e-14)
    assert two_state.flags.reversible
    assert two_state.flags.normal
    assert two_state.flags.irreducible
    assert two_state.flags.aperiodic


def test_identity_kernel_needs_explicit_pi():
    eye = np.eye(3).tolist()
    with pytest.raises(SingularStationary):
        make_chain("012", eye)
    chain = make_chain("012", eye, stationary=[1 / 3] * 3)
    assert not chain.flags.irreducible
    assert chain.flags.reversible


def test_row_sum_rejected():
    with pytest.raises(NonStochasticRow):
        make_chain("01", [[0.6, 0.6], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(two_state, bad):
    with pytest.raises(NonFiniteValue):
        make_chain("01", [[bad, 0.5], [0.5, 0.5]])
    with pytest.raises(NonFiniteValue):
        make_chain("01", [[0.5, 0.5], [0.5, 0.5]], stationary=[bad, 0.5])
    with pytest.raises(NonFiniteValue):
        center_observable(two_state, [1.0, bad])
    with pytest.raises(NonFiniteValue):
        as_observable(two_state, [bad, bad])


@pytest.mark.parametrize("big", [1e200, 1.7e308])
def test_overflowing_second_moment_rejected(two_state, big):
    with pytest.raises(NonFiniteValue, match="overflows"):
        center_observable(two_state, [big, -big])
    with pytest.raises(NonFiniteValue, match="overflows"):
        as_observable(two_state, [big, -big])
    skewed = make_chain("01", [[0.5, 0.5], [0.9, 0.1]])    # pi = (9/14, 5/14)
    with pytest.raises(NonFiniteValue, match="overflows"):
        center_observable(skewed, [big, -big])


def test_negative_entry_rejected():
    with pytest.raises(NegativeEntry):
        make_chain("01", [[1.2, -0.2], [0.5, 0.5]])


def test_supplied_pi_validated(two_state):
    with pytest.raises(SingularStationary):
        make_chain("01", two_state.kernel, stationary=[0.9, 0.1])


def test_adjoint_symmetric_uniform(two_state):
    np.testing.assert_allclose(adjoint_kernel(two_state), two_state.kernel, atol=1e-15)


def test_adjoint_rotation_is_reverse_rotation():
    chain = make_chain("012", ROTATION3, stationary=[1 / 3] * 3)
    expected = np.array(ROTATION3).T  # the walk stepping by -1
    np.testing.assert_allclose(adjoint_kernel(chain), expected, atol=1e-15)


def test_adjoint_involution_and_stationarity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        w = rng.uniform(0.05, 1.0, size=(n, n))
        chain = make_chain([str(i) for i in range(n)], w / w.sum(1, keepdims=True))
        qstar = adjoint_kernel(chain)
        np.testing.assert_allclose(qstar.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(chain.stationary @ qstar, chain.stationary, atol=1e-12)
        pi = chain.stationary
        qss = (pi[None, :] * qstar.T) / pi[:, None]  # adjoint of the adjoint
        np.testing.assert_allclose(qss, chain.kernel, atol=1e-12)


def test_classification_flags():
    rotation = make_chain("012", ROTATION3, stationary=[1 / 3] * 3)
    assert not rotation.flags.reversible
    assert rotation.flags.normal
    assert rotation.flags.irreducible
    assert not rotation.flags.aperiodic

    swap = make_chain("01", [[0.0, 1.0], [1.0, 0.0]])
    assert swap.flags.reversible
    assert swap.flags.normal
    assert swap.flags.irreducible
    assert not swap.flags.aperiodic


def test_inner_product_values(two_state, sign):
    assert inner_product(two_state, sign, sign) == pytest.approx(1.0, abs=1e-14)
    qf = as_observable(two_state, two_state.kernel @ sign.values)
    assert inner_product(two_state, sign, qf) == pytest.approx(0.5, abs=1e-14)
    ones_dir = center_observable(two_state, [1.0, 1.0])  # centers to zero
    assert inner_product(two_state, sign, ones_dir) == 0.0
    with pytest.raises(DimensionMismatch):
        inner_product(two_state, sign, as_observable(
            make_chain("012", np.full((3, 3), 1 / 3)), [1.0, 0.0, -1.0]))


def test_center_observable(two_state):
    f = center_observable(two_state, [2.0, 0.0])
    np.testing.assert_allclose(f.values, [1.0, -1.0], atol=1e-15)
    assert f.norm_sq == pytest.approx(1.0)
    zero = center_observable(two_state, [5.0, 5.0])
    np.testing.assert_array_equal(zero.values, [0.0, 0.0])
    z3 = make_chain("012", np.full((3, 3), 1 / 3))
    np.testing.assert_allclose(center_observable(z3, [1.0, 2.0, 3.0]).values,
                               [-1.0, 0.0, 1.0], atol=1e-15)


def test_center_idempotent(two_state):
    once = center_observable(two_state, [3.0, 1.0])
    twice = center_observable(two_state, once.values)
    np.testing.assert_array_equal(once.values, twice.values)


def test_as_observable_rejects_nonzero_mean(two_state):
    with pytest.raises(NotMeanZero):
        as_observable(two_state, [1.0, 0.5])


def test_document_roundtrip(tmp_path, two_state):
    text = dump_document(two_state, {"f": [1.0, -1.0]})
    path = tmp_path / "chain.json"
    path.write_text(text)
    chain, obs = load_document(path)
    np.testing.assert_array_equal(chain.kernel, two_state.kernel)
    np.testing.assert_array_equal(obs["f"], [1.0, -1.0])
    # also accepted as a raw JSON string and as a mapping
    chain2, _ = load_document(text)
    np.testing.assert_array_equal(chain2.kernel, two_state.kernel)
    chain3, _ = load_document(json.loads(text))
    np.testing.assert_array_equal(chain3.kernel, two_state.kernel)


# Z7 with a non-symmetric step, the 4x3 walk of the golden tests with a
# harmonic and a non-eigen observable, and the order-1000 walk Z40 x Z25
DOCUMENT_WALKS = [
    ((7,), {0: 0.3, 1: 0.5, 6: 0.2}),
    ((4, 3), {(0, 0): 0.5, (1, 0): 0.125, (3, 0): 0.125, (0, 1): 0.125, (0, 2): 0.125}),
    ((40, 25), {(0, 0): 0.5, (1, 0): 0.125, (39, 0): 0.125, (0, 1): 0.125,
                (0, 24): 0.125}),
]


@pytest.mark.parametrize("moduli, atoms", DOCUMENT_WALKS)
def test_document_parses_as_indented_dump(moduli, atoms):
    walk = build_group_walk(moduli, atoms)
    coords = np.indices(moduli).reshape(len(moduli), -1)
    ang = sum(2.0 * np.pi * c / m for c, m in zip(coords, moduli))
    observables = {"harmonic": np.sqrt(2.0) * np.cos(ang),
                   "mix": [float((3 * i * i + i) % 7) - 3.0 for i in range(coords.shape[1])]}
    for obs in (None, observables):
        text = dump_document(walk.chain, obs)
        assert json.loads(text) == json.loads(dump_document_indented(walk.chain, obs))
        assert text.count("\n") == walk.chain.n_states + 5 + (len(obs) + 2 if obs else 0)


def test_pair_law_is_pi_times_kernel():
    rng = np.random.default_rng(3)
    chains = [random_reversible(rng, 6),
              build_group_walk((7,), {0: 0.3, 1: 0.5, 6: 0.2}).chain,
              make_chain("012", ROTATION3)]
    for chain in chains:
        law = pair_law(chain)
        assert np.array_equal(law, chain.stationary[:, None] * chain.kernel)
        assert abs(law.sum() - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_random_reversible_invariants(n, seed):
    chain = random_reversible(np.random.default_rng(seed), n)
    assert chain.flags.reversible
    np.testing.assert_allclose(chain.stationary @ chain.kernel, chain.stationary,
                               atol=1e-12)
    np.testing.assert_allclose(adjoint_kernel(chain), chain.kernel, atol=1e-9)
    assert abs(chain.stationary.sum() - 1.0) <= 1e-12


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel, match="'a'"):
        make_chain(["a", "b", "a"], np.full((3, 3), 1 / 3))
    with pytest.raises(DuplicateLabel):
        make_chain([0, "0"], [[0.5, 0.5], [0.5, 0.5]])   # labels compare as text


@pytest.mark.parametrize("kernel", [[[0.5, 0.5], [1.0]], [["a", "b"], ["c", "d"]],
                                    [[{}, 1.0], [0.5, 0.5]],
                                    # numpy reads these as numbers
                                    [["0.5", "0.5"], ["0.5", "0.5"]],
                                    [[True, False], [False, True]],
                                    np.array([[True, False], [False, True]])])
def test_non_numeric_kernel_rejected(kernel):
    with pytest.raises(DimensionMismatch, match="numeric"):
        make_chain("01", kernel)


def test_load_document_structure_errors():
    q = [[0.5, 0.5], [0.5, 0.5]]
    for doc in ([1, 2], {"Q": q, "states": 3}, {"Q": q, "observables": [1.0]},
                {"Q": q, "observables": {"f": [1.0, "x"]}}, {"Q": q, "pi": ["x", 1]}):
        with pytest.raises(DimensionMismatch):
            load_document(json.dumps(doc))


@pytest.mark.parametrize("named", [False, 0, "", [], None])
def test_load_document_reads_no_observables_only_from_an_absent_key(named):
    q = [[0.5, 0.5], [0.5, 0.5]]
    assert load_document({"Q": q})[1] == {}
    with pytest.raises(DimensionMismatch, match="'observables' must map names to vectors"):
        load_document({"Q": q, "observables": named})


def test_load_document_file_errors(tmp_path):
    with pytest.raises(BadFile, match="neither an existing file"):
        load_document(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"Q": [[1.0')
    with pytest.raises(BadFile, match="not valid JSON"):
        load_document(bad)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    with pytest.raises(BadFile):
        read_json(binary)
    with pytest.raises(BadFile, match="cannot read"):
        read_json(tmp_path)                      # a directory
    with pytest.raises(BadFile, match="cannot write"):
        with open_output(tmp_path / "absent" / "out.csv"):
            pass


# -- classification against the explicit graph search ------------------------------

def assert_flags_match_search(chain):
    expect = classify_chain_search(chain.kernel, chain.stationary, chain.flags.tol)
    assert chain.flags == expect
    return expect


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.floats(0.02, 0.6), st.integers(0, 2 ** 32 - 1))
def test_classify_matches_search_on_sparse_kernels(n, density, seed):
    # every row keeps at least one edge; pi is any positive vector, since
    # reachability and period read the support graph only
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    mask[np.arange(n), rng.integers(0, n, size=n)] = True
    q = np.where(mask, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
    q = q / q.sum(axis=1, keepdims=True)
    pi = rng.uniform(0.5, 1.0, size=n)
    pi = pi / pi.sum()
    assert classify_chain(q, pi) == classify_chain_search(q, pi, DEFAULT_CLASSIFY_TOL)


def cycle(length):
    return np.roll(np.eye(length), 1, axis=1)


@pytest.mark.parametrize("period", [2, 3, 6])
def test_classify_cycles(period):
    chain = make_chain([str(i) for i in range(period)], cycle(period),
                       stationary=[1.0 / period] * period)
    flags = assert_flags_match_search(chain)
    assert flags.irreducible and not flags.aperiodic


def test_classify_cycles_sharing_a_state():
    # loops of lengths 4 and 6 through state 0 give period 2; adding a
    # loop of length 3 makes the chain aperiodic
    def two_loops(extra):
        n = 9 + (2 if extra else 0)
        q = np.zeros((n, n))
        loops = [[0, 1, 2, 3], [0, 4, 5, 6, 7, 8]] + ([[0, 9, 10]] if extra else [])
        for loop in loops:
            for a, b in zip(loop, loop[1:] + [0]):
                q[a, b] = 1.0
        return make_chain([str(i) for i in range(n)], q / q.sum(axis=1, keepdims=True))
    assert not assert_flags_match_search(two_loops(False)).aperiodic
    assert assert_flags_match_search(two_loops(True)).aperiodic


def test_classify_bipartite_walk():
    # simple random walk on the complete bipartite graph K_{3,4}
    adj = np.zeros((7, 7))
    adj[:3, 3:] = 1.0
    adj[3:, :3] = 1.0
    chain = make_chain([str(i) for i in range(7)], adj / adj.sum(axis=1, keepdims=True))
    flags = assert_flags_match_search(chain)
    assert flags.reversible and flags.irreducible and not flags.aperiodic


def test_classify_reducible_with_supplied_pi():
    rng = np.random.default_rng(3)
    identity = make_chain("abc", np.eye(3), stationary=[0.2, 0.3, 0.5])
    assert not assert_flags_match_search(identity).irreducible
    # two closed classes (a random reversible block and a 3-cycle) under a
    # random relabelling, with pi mixing the two stationary laws
    block = random_reversible(rng, 4)
    q = np.zeros((7, 7))
    q[:4, :4] = block.kernel
    q[4:, 4:] = cycle(3)
    pi = np.concatenate([0.5 * block.stationary, [0.5 / 3] * 3])
    perm = rng.permutation(7)
    chain = make_chain([str(i) for i in range(7)], q[np.ix_(perm, perm)], stationary=pi[perm])
    flags = assert_flags_match_search(chain)
    assert not flags.irreducible


def test_classify_single_state():
    flags = assert_flags_match_search(make_chain(["only"], [[1.0]]))
    assert flags.reversible and flags.irreducible and flags.aperiodic


# -- the normality flag: reversible chains skip the two products -------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.floats(0.05, 1.0), st.integers(0, 2 ** 32 - 1))
def test_reversible_normal_flag_matches_products(n, density, seed):
    # symmetric weights on a symmetric support with a full diagonal: detailed
    # balance holds for pi proportional to the row sums, and the support may
    # split into several classes
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    w = np.where(mask | mask.T, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
    w = np.triu(w) + np.triu(w, 1).T + np.diag(rng.uniform(0.1, 1.0, size=n))
    mass = w.sum(axis=1)
    chain = make_chain([str(i) for i in range(n)], w / mass[:, None],
                       stationary=mass / mass.sum())
    flags = assert_flags_match_search(chain)
    assert flags.reversible and flags.normal


def test_normal_flag_matches_products_on_fixtures(two_state, iid, flip):
    chains = [two_state, iid, flip, make_chain("012", ROTATION3, stationary=[1 / 3] * 3),
              make_chain("abc", np.eye(3), stationary=[0.2, 0.3, 0.5]),
              make_chain(["only"], [[1.0]])]
    rng = np.random.default_rng(7)
    chains += [random_reversible(rng, size) for size in (2, 5, 40)]
    chains += [make_chain([str(i) for i in range(p)], cycle(p), stationary=[1.0 / p] * p)
               for p in (2, 3, 6)]
    w = rng.uniform(0.1, 1.0, size=(6, 6))   # neither reversible nor normal
    chains.append(make_chain([str(i) for i in range(6)], w / w.sum(axis=1, keepdims=True)))
    assert not chains[-1].flags.normal
    for chain in chains:
        assert_flags_match_search(chain)


@pytest.mark.parametrize("moduli, atoms", [
    ((7,), {0: 0.5, 1: 0.3, 6: 0.2}),
    ((5,), {1: 0.5, 4: 0.5}),
    ((11, 10), {(1, 0): 0.4, (0, 3): 0.35, (5, 7): 0.25}),
    ((40, 25), {(1, 0): 0.25, (39, 0): 0.25, (0, 1): 0.25, (0, 24): 0.25}),
])
def test_normal_flag_matches_products_on_group_walks(moduli, atoms):
    walk = build_group_walk(moduli, atoms)
    flags = assert_flags_match_search(walk.chain)
    assert flags.normal and flags.reversible == walk.symmetric
