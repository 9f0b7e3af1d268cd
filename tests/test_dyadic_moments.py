"""The ``dyadic_moments`` kernel: compiled against numpy, both against a
per-row loop, and the argument checks of both backends.

The extension is built from this checkout (the ``compiled_kernels``
fixture), so the compiled cases run wherever a C compiler exists.
"""

import numpy as np
import pytest

from qclt import _kernels_py

RECURSIONS = [None, 1.0, -0.9, 0.37]


@pytest.fixture
def backends(compiled_kernels):
    return {"python": _kernels_py, "compiled": compiled_kernels}


def _run(impl, table, ar):
    rows, width = table.shape
    out_sup = np.full(rows, np.nan)
    out_acc = np.full(((width - 1).bit_length(), rows), np.nan)
    impl.dyadic_moments(table, ar, out_sup, out_acc)
    return out_sup, out_acc


def _row_loop(table, ar):
    """``(sup, acc)`` row by row in plain Python floats."""
    rows, width = table.shape
    d = (width - 1).bit_length() - 1
    sup, acc = np.empty(rows), np.empty((d + 1, rows))
    for i, z in enumerate(table.tolist()):
        t = list(z)
        if ar is not None:
            for k in range(1, width):
                t[k] = z[k] + ar * t[k - 1]
        sup[i] = max(abs(tk - t[0]) for tk in t[1:])
        for r in range(d + 1):
            step = 2 ** r
            s = 0.0
            for k in range(step, width, step):
                inc = t[k] - t[k - step]
                s += inc * inc
            acc[r, i] = s
    return sup, acc


def _assert_backends_agree(backends, d, rows, ar):
    rng = np.random.default_rng([d, rows])
    table = rng.standard_normal((rows, 2 ** d + 1)) * rng.uniform(0.1, 10.0)
    py_sup, py_acc = _run(backends["python"], table, ar)
    c_sup, c_acc = _run(backends["compiled"], table, ar)
    assert np.array_equal(py_sup, c_sup) and np.array_equal(py_acc, c_acc)
    assert py_sup.shape == (rows,) and py_acc.shape == (d + 1, rows)


@pytest.mark.parametrize("ar", RECURSIONS)
@pytest.mark.parametrize("rows", [0, 1, 257])
@pytest.mark.parametrize("d", range(7))
def test_backends_bitwise_identical(backends, d, rows, ar):
    _assert_backends_agree(backends, d, rows, ar)


@pytest.mark.parametrize("ar", RECURSIONS)
@pytest.mark.parametrize("d", range(7))
def test_backends_bitwise_identical_across_row_blocks(backends, d, ar):
    # the fallback walks the table in blocks of this many rows
    block = max(_kernels_py.ROW_BLOCK, _kernels_py.BLOCK_ITEMS // (2 ** d + 1))
    for rows in (block - 1, block, block + 1, 2 * block + 7):
        _assert_backends_agree(backends, d, rows, ar)


@pytest.mark.parametrize("ar", RECURSIONS)
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_matches_row_loop(backends, backend, ar):
    rng = np.random.default_rng(5)
    for d in (0, 1, 3, 5):
        table = rng.standard_normal((33, 2 ** d + 1))
        sup, acc = _run(backends[backend], table, ar)
        want_sup, want_acc = _row_loop(table, ar)
        assert np.array_equal(sup, want_sup) and np.array_equal(acc, want_acc)


@pytest.mark.parametrize("rows", [1, 40])
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_table_is_not_modified(backends, backend, rows):
    table = np.random.default_rng(2).standard_normal((rows, 17))
    before = table.copy()
    _run(backends[backend], table, 0.5)
    assert np.array_equal(table, before)


def _args(rows=5, d=2):
    table = np.random.default_rng(0).standard_normal((rows, 2 ** d + 1))
    return dict(table=table, ar=1.0, out_sup=np.empty(rows), out_acc=np.empty((d + 1) * rows))


BAD_ARGS = {                          # case: (argument, how to spoil it)
    "float32 table": ("table", lambda v: v.astype(np.float32)),
    "int64 table": ("table", lambda v: v.astype(np.int64)),
    "big-endian table": ("table", lambda v: v.astype(">f8")),
    "float32 out_sup": ("out_sup", lambda v: v.astype(np.float32)),
    "int64 out_acc": ("out_acc", lambda v: v.astype(np.int64)),
    "fortran table": ("table", np.asfortranarray),
    "strided table": ("table", lambda v: np.repeat(v, 2, axis=0)[::2]),
    "1-d table": ("table", lambda v: v.ravel()),
    "width 4": ("table", lambda v: np.ascontiguousarray(v[:, :4])),
    "width 1": ("table", lambda v: np.ascontiguousarray(v[:, :1])),
    "width 0": ("table", lambda v: np.ascontiguousarray(v[:, :0])),
    "short out_sup": ("out_sup", lambda v: v[:-1]),
    "long out_sup": ("out_sup", lambda v: np.empty(v.size + 1)),
    "short out_acc": ("out_acc", lambda v: v[:-1]),
    "long out_acc": ("out_acc", lambda v: np.empty(v.size + 1)),
    "read-only out_acc": ("out_acc", lambda v: np.frombuffer(v.tobytes())),
    "strided out_sup": ("out_sup", lambda v: np.empty(2 * v.size)[::2]),
}


@pytest.mark.parametrize("bad", sorted(BAD_ARGS))
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_rejects_bad_buffers_before_writing(backends, backend, bad):
    args = _args()
    name, spoil = BAD_ARGS[bad]
    args[name] = spoil(args[name])
    outs = [args[k] for k in ("out_sup", "out_acc") if args[k].flags.writeable]
    for out in outs:
        out[...] = -7
    with pytest.raises(ValueError):
        backends[backend].dyadic_moments(*args.values())
    for out in outs:
        assert (out == -7).all()
