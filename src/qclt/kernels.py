"""Backend selection and deterministic parallel dispatch for the kernels.

The compiled extension runs the path walks and the drawn dyadic pass when
it imports, the numpy fallback otherwise; ``backend=`` picks one of
:func:`available_backends` for a single path-kernel call.  The path walks
take their streams' keys from :func:`qclt.rng.stream_keys` on every
backend, and the drawn pass takes a row seed and forms its rows' keys
itself.  A stored dyadic table has no kernel here: the numpy
``_kernels_py.dyadic_moments`` reduces it on every backend.
Worker threads split the path range into contiguous chunks writing
disjoint output slots, so results are identical for every worker count
(each path's stream depends only on ``(seed, path_index)``).
"""

from __future__ import annotations

import os

import numpy as np

from . import _kernels_py, rng
from ._kernels_py import LAW_AR, LAW_BELL, LAW_COUNT, LAW_DRIFT, LAW_FACTOR, LAW_SIGN, MAX_STEPS
from .errors import QcltError

try:
    from . import _kernels as _compiled
except ImportError:  # extension not built; numpy fallback only
    _compiled = None

_impl = _compiled if _compiled is not None else _kernels_py

BACKEND = _impl.BACKEND_NAME


def available_backends() -> dict:
    """Importable kernel modules keyed by backend name."""
    out = {"python": _kernels_py}
    if _compiled is not None:
        out["compiled"] = _compiled
    return out


def _chunks(num_paths: int, workers: int):
    # at most `workers` contiguous spans covering range(num_paths); none if empty
    workers = max(1, min(workers, num_paths))
    step = max(1, (num_paths + workers - 1) // workers)
    return [(i, min(i + step, num_paths)) for i in range(0, num_paths, step)]


def _run(fn, num_paths: int, workers: int, args_for_chunk) -> None:
    spans = _chunks(num_paths, workers)
    if len(spans) <= 1:
        for span in spans:
            fn(*args_for_chunk(*span))
        return
    # imported here, so a single-chunk run (and `import qclt.cli`) does not
    # load concurrent.futures and the logging, queue and heapq it pulls in
    from concurrent.futures import ThreadPoolExecutor

    # the chunks, and so each chunk's output slots, depend only on `workers`;
    # the pool that runs them needs no more threads than there are cores
    with ThreadPoolExecutor(max_workers=min(len(spans), os.cpu_count() or 1)) as pool:
        futures = [pool.submit(fn, *args_for_chunk(i0, i1)) for i0, i1 in spans]
        for fut in futures:
            fut.result()


def _run_paths(walk: str, lead, dtypes, num_paths, seed, workers, backend):
    # one output array per dtype; each chunk runs the backend's `walk` on
    # (*lead, keys, *outs), keys and outputs sliced to the chunk.  `walk` is
    # looked up at call time, so a wrapped chunk function is the one that runs
    impl = available_backends()[backend] if backend else _impl
    try:
        keys = rng.stream_keys(seed, num_paths)
        outs = tuple(np.empty(num_paths, dtype=dt) for dt in dtypes)
    except (MemoryError, ValueError):     # ValueError: more items than numpy can index
        raise QcltError(f"no room for {num_paths} paths") from None

    def args(i0, i1):
        return (*lead, keys[i0:i1], *(out[i0:i1] for out in outs))

    _run(getattr(impl, walk), num_paths, workers, args)
    return outs


def run_chain_paths(cum_rows, fvals, hmat, start, n_steps, num_paths, seed,
                    workers: int = 1, backend=None):
    """Sample ``num_paths`` chain paths; returns ``(sums, mart_sums, last_states)``."""
    return _run_paths("chain_paths", (cum_rows, fvals, hmat, start, n_steps),
                      (np.float64, np.float64, np.int64), num_paths, seed, workers, backend)


def run_torus_paths(alpha, lazy, omegas, ccos, csin, x0, n_steps, num_paths,
                    seed, workers: int = 1, backend=None):
    """Sample ``num_paths`` torus paths; returns ``(sums, last_positions)``."""
    return _run_paths("torus_paths", (alpha, lazy, omegas, ccos, csin, x0, n_steps),
                      (np.float64, np.float64), num_paths, seed, workers, backend)


def drawn_dyadic_moments(law, d, scale, a, drift, profile, row_seed, rows):
    """The moment sums of a family of ``rows`` rows drawn inside the kernel,
    row ``i`` from stream ``i`` under the integer ``row_seed`` (the key
    ``rng.stream_keys(row_seed, rows)[i]``), by ``law`` (one of the
    ``LAW_*`` ids, ``0 <= law < LAW_COUNT``) with its parameters; see
    ``_kernels_py.drawn_dyadic_moments``.  ``profile`` is float64.

    Returns the ``d + 2`` sums of ``_kernels_py.moment_sums``, the same bits
    on every backend; no per-row sup leaves the kernel."""
    out_sums = np.empty(d + 2)
    _impl.drawn_dyadic_moments(law, d, scale, a, drift, profile, row_seed, rows, out_sums)
    return out_sums
