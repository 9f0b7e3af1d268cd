"""The lattice-table torus kernel against the accumulating trig kernel, and
the backends against each other at the edges of the C kernel's lanes: the
numpy fallback and both C builds, so both C lane sets run on any CPU.

Both backends tabulate the observable at ``x0 + j alpha mod 1`` and walk an
integer index; :func:`tests.oracles.torus_paths_accumulating` adds +-alpha
to a float position and evaluates the trig at every step.  The same stream
gives the same lattice path in both, so the positions agree to roundoff
and the sums to the accumulated roundoff of the old position.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qclt import _kernels_py
from qclt.group_walk import GOLDEN_ALPHA
from qclt.rng import stream_keys
from tests.oracles import torus_paths_accumulating
from tests.test_compiled_kernels import LANE_EDGE_PATHS

ALPHAS = {"golden": GOLDEN_ALPHA, "sqrt2-1": math.sqrt(2.0) - 1.0}
OBSERVABLES = {                 # name: (omegas, ccos, csin)
    "one harmonic": ([2 * math.pi], [1.0], [0.0]),
    "two harmonics": ([2 * math.pi, 26 * math.pi], [0.7, -0.2], [0.1, 0.4]),
    "three harmonics": ([2 * math.pi, -4 * math.pi, 10 * math.pi],
                        [0.3, 0.5, -0.1], [-0.6, 0.2, 0.25]),
    # not 1-periodic: the table must reduce its points mod 1
    "non-integer frequency": ([3.0], [0.8], [0.5]),
}
NUM_PATHS = 96


def _circular_gap(a, b):
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def _run(impl, alpha, lazy, observable, x0, n_steps):
    omegas, ccos, csin = (np.array(v, dtype=np.float64) for v in observable)
    keys = stream_keys(17, NUM_PATHS)
    out_s, out_x = np.full(NUM_PATHS, np.nan), np.full(NUM_PATHS, np.nan)
    impl.torus_paths(alpha, lazy, omegas, ccos, csin, x0, n_steps, keys, out_s, out_x)
    ref = torus_paths_accumulating(alpha, lazy, omegas, ccos, csin, x0, n_steps, keys)
    return (out_s, out_x), ref


@pytest.mark.parametrize("n_steps", [0, 1, 7, 300])
@pytest.mark.parametrize("lazy", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("alpha", sorted(ALPHAS))
def test_lattice_kernel_matches_accumulating_oracle(kernel_modules, alpha, lazy, n_steps):
    x0 = 0.3125
    for name, observable in OBSERVABLES.items():
        outs = {}
        for backend, impl in kernel_modules.items():
            (sums, pos), (ref_sums, ref_pos) = _run(impl, ALPHAS[alpha], lazy,
                                                    observable, x0, n_steps)
            assert np.max(_circular_gap(pos, ref_pos)) <= 1e-12, (backend, name)
            assert np.max(np.abs(sums - ref_sums)) <= 1e-9, (backend, name)
            if n_steps == 0:
                assert np.all(sums == 0.0) and np.all(pos == x0)
            outs[backend] = sums, pos
        for backend, out in outs.items():
            for a, b in zip(outs["python"], out):
                np.testing.assert_array_equal(a, b, err_msg=backend)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("lazy", [0.0, 0.5])
def test_lane_edges_bitwise_identical_to_numpy(compiled_backend, lazy, workers):
    omegas, ccos, csin = (np.array(v, dtype=np.float64)
                          for v in OBSERVABLES["three harmonics"])
    for n_steps in (0, 1, 5):
        for num_paths in LANE_EDGE_PATHS:
            args = (GOLDEN_ALPHA, lazy, omegas, ccos, csin, 0.3125, n_steps, num_paths, 5)
            ref = compiled_backend.run_torus_paths(*args, workers=1, backend="python")
            for backend in compiled_backend.available_backends():
                got = compiled_backend.run_torus_paths(*args, workers=workers, backend=backend)
                for a, b in zip(ref, got):
                    assert np.array_equal(a, b), (backend, n_steps, num_paths)




def test_fallback_table_peak_under_16_bytes_an_entry(compiled_kernels):
    # n = 2^16 steps: a table of 2^17 + 1 entries, which the fallback fills
    # in chunks, so its peak stays under 16 bytes an entry (the C table
    # takes 8); the walk over it is the C kernel's, bit for bit.  Only the
    # fill is traced: tracing slows the 2^16-step numpy walk fivefold
    n_steps, paths = 2 ** 16, 8
    omegas, ccos, csin = (np.array(v, dtype=np.float64) for v in OBSERVABLES["one harmonic"])
    tracemalloc.start()
    try:
        _kernels_py._torus_table(GOLDEN_ALPHA, omegas, ccos, csin, 0.3125, n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (2 * n_steps + 1), peak
    keys = stream_keys(23, paths)
    outs = []
    for impl in (_kernels_py, compiled_kernels):
        out_s, out_x = np.empty(paths), np.empty(paths)
        impl.torus_paths(GOLDEN_ALPHA, 0.25, omegas, ccos, csin, 0.3125, n_steps, keys,
                         out_s, out_x)
        outs.append(out_s.tobytes() + out_x.tobytes())
    assert outs[0] == outs[1]
