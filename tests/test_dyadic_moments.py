"""The dyadic moment reductions, of a stored table and of a family drawn
inside the kernel, each against per-row Python loops, and the drawn pass's
argument checks.

A stored table has one reduction, the numpy ``_kernels_py.dyadic_moments``,
on every backend, so the table tests take no backend.  A table's layout and
dtype are checked where a ``DyadicFamily`` is made
(``tests/test_inequalities.py``).  A drawn family is reduced by each
backend's own pass, which returns its per-row sups and its moment sums,
checked against the row loop and the sums' Python lane loop
(``oracles.moment_sums_rows``).  The drawn tests take their backends
from the ``kernel_modules`` fixture: the numpy fallback always, and
wherever a C compiler exists two builds of the extension from this
checkout, ``"compiled"`` on the lanes its CPU picks and
``"compiled-scalar"`` on the scalar lanes whatever the CPU, so an AVX-512
host runs both lane sets and no test skips its fallback half.
"""

import functools
import math

import numpy as np
import pytest

from qclt import _kernels_py, verify
from qclt.kernels import LAW_BELL, LAW_COUNT, LAW_FACTOR
from qclt.rng import stream_keys
from tests import oracles

# the shape of a table's rows: raw normals (None), or the output of the
# oracle recursion T_k = z_k + a T_{k-1} over them (a walk for a = 1.0)
RECURSIONS = [None, 1.0, -0.9, 0.37]


def _table(rng, shape, ar):
    z = rng.standard_normal(shape)
    return z if ar is None else oracles.recursion_rows(z, ar)


def _scaled_table(d, rows, ar):
    rng = np.random.default_rng([d, rows])
    return _table(rng, (rows, 2 ** d + 1), ar) * rng.uniform(0.1, 10.0)


def _seed_5_table(d, ar):
    # the table at d of 33-row tables drawn from one default_rng(5) at d = 0, 1, 3, 5 in turn
    rng = np.random.default_rng(5)
    return {k: _table(rng, (33, 2 ** k + 1), ar) for k in (0, 1, 3, 5)}[d]


def _scaled_rows(d):
    # 0, 1 and 257 rows; one row under, at and over one of the row blocks
    # that the numpy kernel walks a table in; and two blocks and 7 rows
    block = max(_kernels_py.ROW_BLOCK, _kernels_py.BLOCK_ITEMS // (2 ** d + 1))
    return (0, 1, 257, block - 1, block, block + 1, 2 * block + 7)


# one id per table
TABLES = ([pytest.param(functools.partial(_scaled_table, d, rows), id=f"d{d}-rows{rows}")
           for d in range(7) for rows in _scaled_rows(d)]
          + [pytest.param(functools.partial(_seed_5_table, d), id=f"seed5-d{d}-rows33")
             for d in (0, 1, 3, 5)])


@pytest.mark.parametrize("ar", RECURSIONS)
@pytest.mark.parametrize("make", TABLES)
def test_stored_table_moments_match_the_row_loop(make, ar):
    table = make(ar)
    want_sup, want_acc = oracles.dyadic_moments_rows(table)
    sup, acc = _kernels_py.dyadic_moments(table)
    assert np.array_equal(sup, want_sup) and np.array_equal(acc, want_acc)


@pytest.mark.parametrize("rows", [1, 40])
def test_table_is_not_modified(rows):
    table = np.random.default_rng(2).standard_normal((rows, 17))
    before = table.copy()
    _kernels_py.dyadic_moments(table)
    assert np.array_equal(table, before)


# -- families drawn inside the kernel --------------------------------------------

LAW_PARAMS = dict(scale=1.37, a=-0.61, drift=0.29)
ORACLE_ROWS = 1025


def _profile(law, d):
    return np.linspace(-1.0, 0.75, 2 ** d + 1) if law == LAW_FACTOR else np.empty(0)


def _drawn_passes(kernel_modules):
    # each backend's drawn pass by name
    return {name: impl.drawn_dyadic_moments for name, impl in kernel_modules.items()}


def _drawn(drawn_pass, law, d, row_seed, rows, **params):
    # the pass's (sup, sums) of `rows` rows under `row_seed`, the d + 3 sums
    # as a list of floats
    params = {**LAW_PARAMS, **params}
    out_sup = np.full(rows, np.nan)
    out_sums = np.full(d + 3, np.nan)
    drawn_pass(law, d, params["scale"], params["a"], params["drift"], _profile(law, d), row_seed,
               out_sup, out_sums)
    return out_sup, out_sums.tolist()


def _assert_drawn_matches(drawn_pass, law, d, row_seed, want_sup, want_acc, name):
    # the pass's sups equal the row loop's and its sums the lane loop's, bit
    # for bit (float.hex tells -0.0 from 0.0)
    sup, sums = _drawn(drawn_pass, law, d, row_seed, want_sup.shape[0])
    want_sums = oracles.moment_sums_rows(want_sup, want_acc)
    assert np.array_equal(sup, want_sup), name
    assert list(map(float.hex, sums)) == list(map(float.hex, want_sums)), name


@functools.cache
def _oracle(law, d):
    # row i depends only on key i, and stream_keys(seed, n) is a prefix of
    # stream_keys(seed, m) for n <= m, so one table serves every row count
    fam = oracles.drawn_family(law, d, **LAW_PARAMS, profile=_profile(law, d),
                               keys=stream_keys(7 * law + d, ORACLE_ROWS))
    return oracles.dyadic_moments_rows(fam.table)


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("rows", [1, 31, 32, 33, ORACLE_ROWS])
@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("law", range(LAW_COUNT))
def test_drawn_moments_match_the_whole_table_oracle(kernel_modules, monkeypatch, law, d, rows,
                                                    blocks):
    # the compiled pass takes up to 32 rows a block, so 33 rows take two;
    # the fallback's blocks are set here to hold ceil(rows / blocks) rows,
    # and with two it draws each block one column at a time
    if blocks == 2:
        monkeypatch.setattr(_kernels_py, "ROW_BLOCK", math.ceil(rows / 2))
        monkeypatch.setattr(_kernels_py, "BLOCK_ITEMS", 1)
        monkeypatch.setattr(_kernels_py, "DRAW_ITEMS", 1)
    want_sup, want_acc = (w[..., :rows] for w in _oracle(law, d))
    for name, drawn_pass in _drawn_passes(kernel_modules).items():
        _assert_drawn_matches(drawn_pass, law, d, 7 * law + d, want_sup, want_acc, name)


# the compiled pass holds 4096 // (2^d + 1) rows to a block, at least one:
# 31 at d = 7, 7 at d = 9 and 1 at d = 12 and 13, where each sum has one lane
WIDE_BLOCK_ROWS = {7: 31, 9: 7, 12: 1, 13: 1}


@pytest.mark.parametrize("d", sorted(WIDE_BLOCK_ROWS))
@pytest.mark.parametrize("law", range(LAW_COUNT))
def test_drawn_moments_match_the_oracle_with_fewer_than_32_rows_to_a_block(kernel_modules,
                                                                           law, d):
    # one row more than a compiled block holds, so the last block has one row
    rows, row_seed = WIDE_BLOCK_ROWS[d] + 1, 11 * law + d
    fam = oracles.drawn_family(law, d, **LAW_PARAMS, profile=_profile(law, d),
                               keys=stream_keys(row_seed, rows))
    want_sup, want_acc = oracles.dyadic_moments_rows(fam.table)
    for name, drawn_pass in _drawn_passes(kernel_modules).items():
        _assert_drawn_matches(drawn_pass, law, d, row_seed, want_sup, want_acc, name)


# (rows, d, fallback rows to a block).  A row at d = 13 is 8193 values: on
# the fallback 10^4 rows take about 2 s a law, and 999 rows in 7-row blocks
# about 3 s, so those two run at d <= 5 only
SUM_CASES = [(rows, d, block) for rows in (1, 31, 32, 33, 999, 10 ** 4)
             for d in (*range(6), 13) for block in (7, 1024)
             if d < 13 or rows <= (999 if block == 1024 else 33)]


@pytest.mark.parametrize("rows, d, block", SUM_CASES)
def test_drawn_sums_are_bitwise_equal_on_every_module(kernel_modules, monkeypatch, rows, d,
                                                      block):
    # the sums that make the chaining verdict, and the sups, byte for byte on
    # the fallback with `block` rows to its blocks and on both C lane sets,
    # whose blocks of min(32, 4096 // (2^d + 1)) rows fix the sums' lanes:
    # 32 of them at d <= 5 and one at d = 13
    monkeypatch.setattr(_kernels_py, "ROW_BLOCK", block)
    monkeypatch.setattr(_kernels_py, "BLOCK_ITEMS", 1)
    for law in range(LAW_COUNT):
        outs = {name: _drawn(drawn_pass, law, d, rows + 5 * law + d, rows)
                for name, drawn_pass in _drawn_passes(kernel_modules).items()}
        want_sup, want_sums = outs["python"]
        for name, (sup, sums) in outs.items():
            assert sup.tobytes() == want_sup.tobytes(), (name, law)
            assert list(map(float.hex, sums)) == list(map(float.hex, want_sums)), (name, law)


def test_scalar_drawn_pass_matches_the_picked_one_on_verify_families(compiled_kernels,
                                                                    compiled_scalar_kernels):
    # all 1000 of verify's families at its 10^4 paths, byte for byte (on a
    # CPU without AVX-512F/DQ both builds run the scalar pass)
    for index, fam in enumerate(verify.random_dyadic_families(2024, range(1000))):
        outs = []
        for drawn_pass in (compiled_kernels.drawn_dyadic_moments,
                           compiled_scalar_kernels.drawn_dyadic_moments):
            out_sup, out_sums = np.empty(10_000), np.empty(fam.d + 3)
            drawn_pass(fam.law, fam.d, fam.scale, fam.a, fam.drift, fam.profile, fam.row_seed,
                       out_sup, out_sums)
            outs.append(out_sup.tobytes() + out_sums.tobytes())
        assert outs[0] == outs[1], index


BAD_SPECS = {                         # case: the spec's changed items
    "law -1": dict(law=-1),
    "law past the last": dict(law=LAW_COUNT),
    "d -1": dict(d=-1),
    "d 21": dict(d=21),
    "float row seed": dict(row_seed=1.0),
    "array row seed": dict(row_seed=np.ones(5, dtype=np.uint64)),
    "no row seed": dict(row_seed=None),
    "numpy float row seed": dict(row_seed=np.float64(2.0)),
    "string row seed": dict(row_seed="3"),
    "nan scale": dict(scale=math.nan),
    "inf scale": dict(scale=math.inf),
    "huge scale": dict(scale=2.0 ** 33),
    "nan a": dict(a=math.nan),
    "a above 1": dict(a=1.5),
    "-inf drift": dict(drift=-math.inf),
    "nan profile": dict(profile=np.array([0.5, math.nan, 0.0, 1.0, 2.0])),
    "short profile": dict(profile=np.zeros(4)),
    "profile for a walk": dict(law=LAW_BELL, profile=np.zeros(5)),
    "short out_acc": dict(out_acc=np.empty(4)),
}


@pytest.mark.parametrize("bad", sorted(BAD_SPECS))
@pytest.mark.parametrize("backend", ["python", "compiled", "compiled-scalar"])
def test_drawn_rejects_bad_spec_before_writing(kernel_modules, backend, bad):
    passes = _drawn_passes(kernel_modules)
    if backend not in passes:
        pytest.skip("no C compiler to build the compiled kernels")
    drawn_pass = passes[backend]
    args = dict(law=LAW_FACTOR, d=2, scale=1.0, a=0.5, drift=0.1,
                profile=np.zeros(5), row_seed=1, out_sup=np.empty(5),
                out_acc=np.empty(5))
    args.update(BAD_SPECS[bad])
    for out in (args["out_sup"], args["out_acc"]):
        out[...] = -7
    # a row seed that is not an integer is the wrong type, as for operator.index
    with pytest.raises(TypeError if "row seed" in bad else ValueError):
        drawn_pass(*args.values())
    assert (args["out_sup"] == -7).all() and (args["out_acc"] == -7).all()
