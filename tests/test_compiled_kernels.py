"""The C path kernels against the numpy fallback and the oracles, their
argument checks, and the thread pool that runs them.

The extension is built from this checkout's ``setup.py`` into a temporary
directory (the ``compiled_kernels`` fixture), so these tests run wherever a
C compiler exists, whether or not the package was installed.  A second
build (``compiled_scalar_kernels``) takes the scalar C lanes on any CPU, and
every bitwise test runs it as the backend ``"compiled-scalar"``, so an
AVX-512 host tests both lane sets.
"""

import hashlib
import platform
import sys
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from qclt import _kernels_py, kernels
from qclt.rng import GOLDEN, MASK64, MIX_A, MIX_B, mix64, stream_keys
from tests.oracles import chain_paths_bisect, chain_paths_scan


def _cum_rows(q):
    cum = np.cumsum(q, axis=1)
    cum[:, -1] = 1.0
    return np.ascontiguousarray(cum)


def _chain_case(S, rng, zero_cols=0):
    q = rng.random((S, S))
    if zero_cols:
        # zero-probability columns, the last one included, so the cumulative
        # rows repeat values and the final column is pinned, not summed
        cols = rng.choice(S, size=zero_cols, replace=False)
        q[:, cols] = 0.0
        q[:, S - 1] = 0.0
        q[:, 0] += 1e-3
    q /= q.sum(axis=1, keepdims=True)
    return _cum_rows(q), rng.standard_normal(S), rng.standard_normal((S, S))


CASES = {
    "S1": lambda rng: _chain_case(1, rng),
    "S2": lambda rng: _chain_case(2, rng),
    "S3": lambda rng: _chain_case(3, rng),
    "S7": lambda rng: _chain_case(7, rng),
    "S110": lambda rng: _chain_case(110, rng),
    "S110-zero-cols": lambda rng: _chain_case(110, rng, zero_cols=40),
}
# around the C walks' blocks, 8 paths on the scalar lanes and 32 on the
# AVX-512 ones, one or two blocks and the tails of each; with 2 workers, of
# each chunk too
LANE_EDGE_PATHS = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_bitwise_identical_to_numpy(compiled_backend, case, workers):
    rng = np.random.default_rng(sorted(CASES).index(case))
    cum, fvals, hmat = CASES[case](rng)
    S = len(fvals)
    shapes = [(n_steps, num_paths) for n_steps in (0, 1, 5) for num_paths in LANE_EDGE_PATHS]
    for n_steps, num_paths in shapes + [(301, 257)]:
        args = (cum, fvals, hmat, S // 2, n_steps, num_paths, 91)
        ref = compiled_backend.run_chain_paths(*args, workers=1, backend="python")
        for backend in compiled_backend.available_backends():
            got = compiled_backend.run_chain_paths(*args, workers=workers, backend=backend)
            for a, b in zip(ref, got):
                assert a.dtype == b.dtype and np.array_equal(a, b), (backend, n_steps, num_paths)
        assert 0 <= ref[2].min() and ref[2].max() < S


def _oracle_case(S, rows, rng):
    q = rng.random((S, S))
    if rows == "repeats":
        # zero-probability columns, the last one included, so the cumulative
        # rows repeat values and reach 1.0 before the pinned column
        q[:, rng.random(S) < 0.4] = 0.0
        q[:, S - 1] = 0.0
        q[:, 0] += 1e-3
    q /= q.sum(axis=1, keepdims=True)
    cum = _cum_rows(q)
    if rows == "overshoot":
        cum[:, :-1] *= 1.5      # the sums pass 1.0 before the pinned column
    return cum, rng.standard_normal(S), rng.standard_normal((S, S))


# around the C chain walk's blocks of 8 (scalar) and 32 (AVX-512) paths
LANE_PATH_COUNTS = [0, 1, 7, 8, 9, 31, 32, 33, 37, 63, 64, 65]


@pytest.mark.parametrize("rows", ["plain", "repeats", "overshoot"])
@pytest.mark.parametrize("S", [1, 2, 3, 7, 8, 9, 17, 33, 110])
def test_chain_kernels_match_oracles(compiled_backend, S, rows):
    rng = np.random.default_rng(S)
    cum, fvals, hmat = _oracle_case(S, rows, rng)
    n_steps, pad = 24, 16
    impls = compiled_backend.available_backends()
    for start in sorted({0, S - 1}):
        for npaths in LANE_PATH_COUNTS:
            seed = 1000 * S + npaths
            keys = stream_keys(seed, npaths)
            want = chain_paths_bisect(cum, fvals, hmat, start, n_steps, keys)
            for a, b in zip(want, chain_paths_scan(cum, fvals, hmat, start, n_steps, keys)):
                assert np.array_equal(a, b)
            for name, impl in impls.items():
                # out slots are views into longer arrays: nothing past them may change
                outs = [np.full(npaths + pad, -7.0), np.full(npaths + pad, -7.0),
                        np.full(npaths + pad, -7, dtype=np.int64)]
                impl.chain_paths(cum, fvals, hmat, start, n_steps, keys,
                                 *(o[:npaths] for o in outs))
                for o, w in zip(outs, want):
                    assert np.array_equal(o[:npaths], w), (name, start, npaths)
                    assert (o[npaths:] == -7).all(), (name, start, npaths)
                for workers in (1, 2, 3):
                    got = compiled_backend.run_chain_paths(cum, fvals, hmat, start, n_steps,
                                                           npaths, seed, workers=workers,
                                                           backend=name)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w), (name, start, npaths, workers)


@pytest.mark.parametrize("S", [2, 3, 5, 6, 9, 17, 33, 110])
def test_search_never_reads_the_pinned_column(compiled_backend, S):
    # every backend searches a row's first S - 1 entries only, so the last
    # column's value cannot change a path
    cum, fvals, hmat = _chain_case(S, np.random.default_rng(S))
    zeroed = cum.copy()
    zeroed[:, -1] = 0.0
    for backend in compiled_backend.available_backends():
        for workers in (1, 2):
            want = compiled_backend.run_chain_paths(cum, fvals, hmat, S // 2, 40, 37, S,
                                                    workers=workers, backend=backend)
            got = compiled_backend.run_chain_paths(zeroed, fvals, hmat, S // 2, 40, 37, S,
                                                   workers=workers, backend=backend)
            for a, b in zip(want, got):
                assert np.array_equal(a, b), (backend, workers)


def _unshift(z, k):
    # inverse of z ^ (z >> k) on 64 bits
    out, shift = z, k
    while shift < 64:
        out ^= z >> shift
        shift += k
    return out


def _key_for_uniform(u):
    """A stream key whose first draw is exactly ``u`` (a multiple of 2^-53)."""
    z = int(u * 2 ** 53) << 11
    z = _unshift(z, 31)
    z = (z * pow(MIX_B, -1, 1 << 64)) & MASK64
    z = _unshift(z, 27)
    z = (z * pow(MIX_A, -1, 1 << 64)) & MASK64
    counter = _unshift(z, 30)
    assert mix64(counter) >> 11 == int(u * 2 ** 53)
    return (counter - GOLDEN) & MASK64


@pytest.mark.parametrize("u, expected", [(0.0, 1), (0.25, 3), (0.5, 3), (0.75, 4),
                                         (1 - 2 ** -53, 4)])
def test_chain_ties_pick_first_state_above_u(kernel_modules, u, expected):
    # zero-probability columns 0 and 2 repeat cumulative values; a uniform
    # equal to one of them must move past it, as the linear scan does
    cum = np.array([[0.0, 0.25, 0.25, 0.75, 1.0]] * 5)
    fvals, hmat = np.arange(5.0), np.zeros((5, 5))
    for name, impl in kernel_modules.items():
        keys = np.array([_key_for_uniform(u)], dtype=np.uint64)
        out_s, out_m, out_last = np.empty(1), np.empty(1), np.empty(1, dtype=np.int64)
        impl.chain_paths(cum, fvals, hmat, 0, 1, keys, out_s, out_m, out_last)
        assert out_last[0] == expected, name


def _chain_args(S=3, npaths=8):
    rng = np.random.default_rng(0)
    cum, fvals, hmat = _chain_case(S, rng)
    return dict(cum_rows=cum, fvals=fvals, hmat=hmat, start=0, n_steps=5,
                keys=stream_keys(1, npaths), out_s=np.empty(npaths),
                out_m=np.empty(npaths), out_last=np.empty(npaths, dtype=np.int64))


BAD_CHAIN_ARGS = {                     # case: (argument, how to spoil it)
    "short fvals": ("fvals", lambda v: v[:-1]),
    "short out slot": ("out_m", lambda v: v[:-1]),
    "float32 fvals": ("fvals", lambda v: v.astype(np.float32)),
    "int64 fvals": ("fvals", lambda v: v.astype(np.int64)),
    "int64 keys": ("keys", lambda v: v.astype(np.int64)),
    "int32 out_last": ("out_last", lambda v: v.astype(np.int32)),
    "float64 out_last": ("out_last", lambda v: v.astype(np.float64)),
    "big-endian hmat": ("hmat", lambda v: v.astype(">f8")),
    "read-only out slot": ("out_s", lambda v: np.frombuffer(v.tobytes())),
    "non-contiguous keys": ("keys", lambda v: np.repeat(v, 2)[::2]),
    "non-contiguous hmat": ("hmat", np.asfortranarray),
}


@pytest.mark.parametrize("bad", sorted(BAD_CHAIN_ARGS))
def test_chain_rejects_bad_buffers(compiled_kernels, bad):
    args = _chain_args()
    name, spoil = BAD_CHAIN_ARGS[bad]
    args[name] = spoil(args[name])
    with pytest.raises(ValueError):
        compiled_kernels.chain_paths(*args.values())


@pytest.mark.parametrize("start", [-1, 3, 10 ** 6])
def test_chain_rejects_start_outside_states(compiled_kernels, start):
    args = _chain_args(S=3)
    args["start"] = start
    with pytest.raises(ValueError, match="start"):
        compiled_kernels.chain_paths(*args.values())


def test_chain_writes_nothing_on_rejection(compiled_kernels):
    args = _chain_args()
    args["out_s"][:] = -7.0
    args["out_last"] = args["out_last"][:-1]
    with pytest.raises(ValueError):
        compiled_kernels.chain_paths(*args.values())
    assert (args["out_s"] == -7.0).all()


def test_torus_rejects_bad_buffers(compiled_kernels):
    keys = stream_keys(1, 4)
    om, cc = np.array([2 * np.pi, 4 * np.pi]), np.array([0.5, 0.5])
    out_s, out_x = np.empty(4), np.empty(4)
    with pytest.raises(ValueError, match="csin"):
        compiled_kernels.torus_paths(0.3, 0.5, om, cc, cc[:1], 0.0, 5, keys, out_s, out_x)
    with pytest.raises(ValueError, match="out_x"):
        compiled_kernels.torus_paths(0.3, 0.5, om, cc, cc, 0.0, 5, keys, out_s, out_x[:3])
    with pytest.raises(ValueError):
        compiled_kernels.torus_paths(0.3, 0.5, np.repeat(om, 2)[::2], cc, cc, 0.0, 5,
                                     keys, out_s, out_x)


def _drawn_squares(module, row_seed, rows):
    # the drawn pass's sups and sums of a d = 0 drifting sum with drift 0:
    # row i draws u, u' from its stream, and its sup is ((u u + u' u') - u u)
    out_sup, out_sums = np.full(rows, np.nan), np.full(3, np.nan)
    module.drawn_dyadic_moments(_kernels_py.LAW_DRIFT, 0, 1.0, 1.0, 0.0, np.empty(0), row_seed,
                                out_sup, out_sums)
    return out_sup.tobytes() + out_sums.tobytes()


# row counts at and around the edges of the drawn pass's 8-row zmm lanes
# and 32-row blocks
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17, 31, 32, 33, 10_000])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_drawn_rows_and_path_walks_take_rng_stream_keys(compiled_backend, kernel_modules,
                                                        monkeypatch, seed, n):
    # the drawn pass forms row i's key as rng.stream_keys(seed, n)[i]: on
    # both C builds, so an AVX-512 host checks both lane sets, and on the
    # fallback, whose 7-row blocks take rng.stream_keys of their own rows
    monkeypatch.setattr(_kernels_py, "ROW_BLOCK", 7)
    monkeypatch.setattr(_kernels_py, "BLOCK_ITEMS", 1)
    keys = stream_keys(seed, n)
    uniforms = [[(mix64(key + j * GOLDEN) >> 11) * 2.0 ** -53 for j in (1, 2)]
                for key in keys.tolist()]
    want = _drawn_squares(_kernels_py, seed, n)
    sups = [(u * u + v * v) - u * u for u, v in uniforms]
    assert want[:8 * n] == np.array(sups, dtype=np.float64).tobytes()
    for name, module in kernel_modules.items():
        assert _drawn_squares(module, seed, n) == want, name
    # the path walks take rng.stream_keys(seed, n) on every backend
    alpha, lazy, x0, n_steps = 0.3, 0.25, 0.1, 9
    omegas, ccos, csin = np.array([2 * np.pi]), np.array([0.5]), np.array([0.25])
    for name, module in kernel_modules.items():
        out_s, out_x = np.empty(n), np.empty(n)
        module.torus_paths(alpha, lazy, omegas, ccos, csin, x0, n_steps, keys, out_s, out_x)
        got = compiled_backend.run_torus_paths(alpha, lazy, omegas, ccos, csin, x0, n_steps, n,
                                               seed, backend=name)
        assert got[0].tobytes() == out_s.tobytes() and got[1].tobytes() == out_x.tobytes()


def test_row_seed_is_any_integer_mod_2_64(compiled_kernels, compiled_scalar_kernels):
    # the drawn pass takes an integer outside [0, 2^64) mod 2^64, as
    # rng.stream_keys takes it, on both C builds and the fallback; a seed
    # that is not an integer is refused by test_drawn_rejects_bad_spec_before_writing
    for module in (compiled_kernels, compiled_scalar_kernels):
        for seed, same in ((-1, 2 ** 64 - 1), (2 ** 64 + 5, 5), (np.uint64(2 ** 63), 2 ** 63),
                           (np.int64(-1), 2 ** 64 - 1)):
            assert _drawn_squares(module, seed, 40) == _drawn_squares(module, same, 40)
            assert _drawn_squares(_kernels_py, seed, 40) == _drawn_squares(module, same, 40)
            assert stream_keys(seed, 40).tobytes() == stream_keys(same, 40).tobytes()


def test_the_extension_exports_only_the_kernels_the_library_calls(compiled_kernels):
    # the table reduction and the path streams' keys stay in numpy: nothing
    # that only tests call is compiled
    exported = {name for name in dir(compiled_kernels)
                if callable(getattr(compiled_kernels, name))}
    assert exported == {"chain_paths", "torus_paths", "drawn_dyadic_moments"}


def test_backend_name(compiled_kernels):
    assert compiled_kernels.BACKEND_NAME == "compiled"


def test_in_place_build_matches_the_source():
    # a build left from an older _kernels.c (or one from before the digest)
    # fails here rather than being tested and timed as the current one
    source = Path(__file__).resolve().parents[1] / "src" / "qclt" / "_kernels.c"
    if kernels._compiled is None or not source.is_file():
        pytest.skip("no compiled extension in use, or no C source beside the tests")
    want = hashlib.sha256(source.read_bytes()).hexdigest()
    assert getattr(kernels._compiled, "SOURCE_DIGEST", None) == want, kernels._compiled.__file__


def test_lane_path_follows_the_cpu(compiled_kernels, compiled_scalar_kernels):
    # the second build's CPU has no feature, whatever this CPU has
    assert compiled_scalar_kernels.LANE_PATH == "scalar"
    if not sys.platform.startswith("linux") or platform.machine() != "x86_64":
        pytest.skip("the AVX-512 lanes are built for x86-64, and read here from /proc/cpuinfo")
    with open("/proc/cpuinfo") as fh:
        flags = next(line for line in fh if line.startswith("flags")).split(":", 1)[1].split()
    want = "avx512" if {"avx512f", "avx512dq"} <= set(flags) else "scalar"
    assert compiled_kernels.LANE_PATH == want


def _torus_args(npaths=4):
    return dict(alpha=0.3, lazy=0.5, omegas=np.array([2 * np.pi]), ccos=np.array([0.5]),
                csin=np.array([0.0]), x0=0.25, n_steps=5, keys=stream_keys(1, npaths),
                out_s=np.full(npaths, -7.0), out_x=np.full(npaths, -7.0))


def _impl(compiled_kernels, backend):
    return compiled_kernels if backend == "compiled" else _kernels_py


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_negative_step_count_rejected(compiled_kernels, backend):
    impl = _impl(compiled_kernels, backend)
    chain = _chain_args()
    chain["n_steps"] = -1
    chain["out_s"][:] = -7.0
    with pytest.raises(ValueError, match="n_steps -1 is negative"):
        impl.chain_paths(*chain.values())
    assert (chain["out_s"] == -7.0).all()
    torus = _torus_args()
    torus["n_steps"] = -1
    with pytest.raises(ValueError, match="n_steps -1 is negative"):
        impl.torus_paths(*torus.values())
    assert (torus["out_s"] == -7.0).all() and (torus["out_x"] == -7.0).all()


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_torus_table_size_overflow_rejected(compiled_kernels, backend):
    # 2 * 2**62 + 1 table entries overflow a signed 64-bit size; the guard
    # must fire before anything of that size is requested
    args = _torus_args()
    args["n_steps"] = 2 ** 62
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            _impl(compiled_kernels, backend).torus_paths(*args.values())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (args["out_s"] == -7.0).all() and (args["out_x"] == -7.0).all()


@pytest.mark.parametrize("lazy", [-0.1, 1.0, float("nan")])
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_torus_lazy_outside_unit_interval_rejected(compiled_kernels, backend, lazy):
    args = _torus_args()
    args["lazy"] = lazy
    with pytest.raises(ValueError, match="lazy"):
        _impl(compiled_kernels, backend).torus_paths(*args.values())
    assert (args["out_s"] == -7.0).all()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_zero_paths_give_empty_arrays(compiled_backend, backend, workers):
    cum, fvals, hmat = _chain_case(3, np.random.default_rng(0))
    chain = compiled_backend.run_chain_paths(cum, fvals, hmat, 0, 5, 0, 1,
                                             workers=workers, backend=backend)
    torus = compiled_backend.run_torus_paths(0.3, 0.5, np.array([2 * np.pi]), np.array([0.5]),
                                             np.array([0.0]), 0.25, 5, 0, 1,
                                             workers=workers, backend=backend)
    for out, dtype in zip(chain + torus, [np.float64, np.float64, np.int64] + [np.float64] * 2):
        assert out.shape == (0,) and out.dtype == dtype


class _InlinePool:
    """A stand-in for ThreadPoolExecutor that records its size and runs each
    chunk as it is submitted, so no thread starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize("cpus, pool", [(2, 2), (None, 1), (64, 5)])
def test_pool_is_capped_at_cpu_count_and_chunks_are_not(monkeypatch, cpus, pool):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: cpus)
    spans = []
    kernels._run(lambda i0, i1: spans.append((i0, i1)), 23, 5, lambda i0, i1: (i0, i1))
    assert spans == [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]
    cum, fvals, hmat = _chain_case(7, np.random.default_rng(5))
    args = (cum, fvals, hmat, 3, 40, 23, 9)
    got = kernels.run_chain_paths(*args, workers=5, backend="python")
    want = kernels.run_chain_paths(*args, workers=1, backend="python")
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert _InlinePool.sizes == [pool, pool]
