"""Pure numpy path kernels; drop-in fallback for the compiled extension.

Both backends implement the identical per-path recurrence, so both kernels
are bit-for-bit reproducible across backends: all operations are integer
mixes, table lookups and float additions applied in the same order.  The
torus table takes cos/sin from the C library through ``math``, as the
compiled kernel does, and not from numpy's own vectorised trig.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .rng import GOLDEN, TWO_NEG53, mix64_vec

BACKEND_NAME = "python"

_G = np.uint64(GOLDEN)
_S11 = np.uint64(11)


def _uniforms(counters: np.ndarray) -> np.ndarray:
    # advance every stream one draw, in place, and return the uniforms
    counters += _G
    z = mix64_vec(counters)
    return (z >> _S11).astype(np.float64) * TWO_NEG53


def _check_steps(n_steps) -> None:
    if n_steps < 0:
        raise ValueError(f"n_steps {n_steps} is negative")


def chain_paths(cum_rows, fvals, hmat, start, n_steps, keys,
                out_s, out_m, out_last) -> None:
    """Walk ``len(keys)`` paths of ``n_steps`` transitions from ``start``.

    ``cum_rows`` holds per-row cumulative kernel sums with the last column
    pinned at 1.0.  Writes the additive functional sum, the martingale sum
    and the final state for each path into the ``out_*`` slots.
    """
    _check_steps(n_steps)
    npaths = keys.shape[0]
    ctr = keys.astype(np.uint64).copy()
    state = np.full(npaths, start, dtype=np.int64)
    s = np.zeros(npaths)
    m = np.zeros(npaths)
    for _ in range(n_steps):
        u = _uniforms(ctr)
        rows = cum_rows[state]                       # (npaths, n_states)
        nxt = (u[:, None] >= rows).sum(axis=1)       # first j with u < cum[j]
        m += hmat[state, nxt]
        s += fvals[nxt]
        state = nxt
    out_s[:] = s
    out_m[:] = m
    out_last[:] = state


def torus_paths(alpha, lazy, omegas, ccos, csin, x0, n_steps, keys,
                out_s, out_x) -> None:
    """Lazy +-alpha rotation walk on [0, 1) accumulating the observable sum.

    The observable is ``f(x) = sum_k ccos[k] cos(omegas[k] x) +
    csin[k] sin(omegas[k] x)`` with ``omegas`` the pre-scaled angular
    frequencies ``2 pi nu``.  Step rule per uniform ``u``: stay if
    ``u < lazy``, step ``+alpha`` if ``u < lazy + (1 - lazy)/2``, else
    ``-alpha``.

    After ``k <= n_steps`` steps a path sits at ``x0 + (j - n_steps) alpha
    mod 1`` for an integer lattice index ``j`` in ``[0, 2 n_steps]``.  So
    ``f`` is tabulated once per call at those ``2 n_steps + 1`` points (a
    ``(2 n_steps + 1) * 8``-byte table), and each path moves ``j`` from
    ``n_steps`` by lazy +-1 steps and adds ``table[j]`` per step.
    """
    _check_steps(n_steps)
    if n_steps > (sys.maxsize // 8 - 1) // 2:
        raise ValueError(f"n_steps: a table of 2 * {n_steps} + 1 values is too large")
    if not 0.0 <= lazy < 1.0:
        raise ValueError(f"lazy {lazy!r} outside [0, 1)")
    x = x0 + np.arange(-n_steps, n_steps + 1) * alpha     # x[j]: lattice point j
    x -= np.floor(x)
    table = np.zeros_like(x)
    for om, cc, cs in zip(omegas.tolist(), ccos.tolist(), csin.tolist()):
        phase = (x * om).tolist()
        table += (cc * np.array(list(map(math.cos, phase)))
                  + cs * np.array(list(map(math.sin, phase))))
    npaths = keys.shape[0]
    ctr = keys.astype(np.uint64).copy()
    j = np.full(npaths, n_steps, dtype=np.int64)
    s = np.zeros(npaths)
    mid = lazy + 0.5 * (1.0 - lazy)
    for _ in range(n_steps):
        u = _uniforms(ctr)
        j += u >= lazy                # stay if u < lazy, +1 if u < mid, else -1
        j -= 2 * (u >= mid)
        s += table[j]
    out_s[:] = s
    out_x[:] = x[j]
