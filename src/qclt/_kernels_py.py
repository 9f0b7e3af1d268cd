"""Pure numpy kernels; drop-in fallback for the compiled extension.

Both backends run the same arithmetic in the same order, so every kernel is
bit-for-bit reproducible across backends.  The path kernels are integer
mixes, table lookups and float additions; the torus table takes cos/sin
from the C library through ``math``, as the compiled kernel does, and not
from numpy's own vectorised trig.  Both path kernels advance every path at
once through in-place ufuncs on buffers allocated once per call, drawing
through :func:`_uniforms_into`.  :func:`chain_paths` finds each next state
by the search that the ``_kernels.c`` header describes, probe for probe as
the C lanes do.
:func:`dyadic_moments` reduces a dyadic family's table to per-row maxima
and per-scale squared-increment sums, adding each row's increments in
increasing order as the C loop does, one block of rows at a time.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import BadLength
from .rng import GOLDEN, TWO_NEG53, mix64_into

BACKEND_NAME = "python"
# dyadic_moments takes max(ROW_BLOCK, BLOCK_ITEMS // width) rows per pass:
# enough rows to amortise each pass's loops, and copies of at most
# max(ROW_BLOCK * width, BLOCK_ITEMS) values
ROW_BLOCK = 1024
BLOCK_ITEMS = 1 << 15

_G = np.uint64(GOLDEN)
_S11 = np.uint64(11)


def _uniforms_into(counters, z, zt, u) -> None:
    # advance every stream one draw, in place, and write the uniforms to
    # ``u``; ``z`` and ``zt`` are uint64 scratch of the counters' shape
    counters += _G
    np.copyto(z, counters)
    mix64_into(z, zt)
    z >>= _S11
    np.multiply(z, TWO_NEG53, out=u)


def _check_steps(n_steps) -> None:
    if n_steps < 0:
        raise ValueError(f"n_steps {n_steps} is negative")


def chain_paths(cum_rows, fvals, hmat, start, n_steps, keys,
                out_s, out_m, out_last) -> None:
    """Walk ``len(keys)`` paths of ``n_steps`` transitions from ``start``.

    ``cum_rows`` holds per-row cumulative kernel sums; the search never
    reads their last column, which is pinned at 1.0.  Writes the additive
    functional sum, the martingale sum and the final state for each path
    into the ``out_*`` slots.
    """
    _check_steps(n_steps)
    S = fvals.shape[0]
    cum, hflat = cum_rows.reshape(-1), hmat.reshape(-1)
    npaths = keys.shape[0]
    ctr = keys.astype(np.uint64)                 # a copy: the streams advance in place
    z, zt = np.empty_like(ctr), np.empty_like(ctr)
    u, vals = np.empty(npaths), np.empty(npaths)
    le = np.empty(npaths, dtype=bool)
    state = np.full(npaths, start, dtype=np.int64)
    row = state * S                              # flat index of each path's row
    pos, idx = np.empty_like(row), np.empty_like(row)
    s = np.zeros(npaths)
    m = np.zeros(npaths)
    halves, width = [], S - 1                    # the C kernel's halving table
    while width > 1:
        halves.append(width // 2)
        width -= halves[-1]
    for _ in range(n_steps):
        _uniforms_into(ctr, z, zt, u)
        np.copyto(pos, row)
        for half in halves:
            np.add(pos, half, out=idx)
            cum.take(idx, out=vals)
            np.less_equal(vals, u, out=le)
            np.multiply(le, half, out=idx)
            pos += idx
        if S > 1:
            cum.take(pos, out=vals)
            np.less_equal(vals, u, out=le)
            pos += le
        m += hflat.take(pos, out=vals)           # hmat[state, next state]
        np.subtract(pos, row, out=state)
        s += fvals.take(state, out=vals)
        np.multiply(state, S, out=row)
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
    ctr = keys.astype(np.uint64)                 # a copy: the streams advance in place
    z, zt = np.empty_like(ctr), np.empty_like(ctr)
    u, vals = np.empty(npaths), np.empty(npaths)
    ge = np.empty(npaths, dtype=bool)
    j = np.full(npaths, n_steps, dtype=np.int64)
    s = np.zeros(npaths)
    mid = lazy + 0.5 * (1.0 - lazy)
    for _ in range(n_steps):
        _uniforms_into(ctr, z, zt, u)
        # stay if u < lazy, +1 if u < mid, else -1: j += [u >= lazy] - 2 [u >= mid]
        np.greater_equal(u, lazy, out=ge)
        j += ge
        np.greater_equal(u, mid, out=ge)
        j -= ge
        j -= ge
        s += table.take(j, out=vals)
    out_s[:] = s
    out_x[:] = x[j]


def dyadic_level(width: int) -> int:
    """The ``d`` of a dyadic table ``2^d + 1`` columns wide, ``d >= 0``; any
    other width raises :class:`qclt.errors.BadLength`."""
    span = width - 1
    if span < 1 or span & (span - 1):
        raise BadLength(f"a dyadic table needs 2^d + 1 columns, got {width}")
    return span.bit_length() - 1


def _check_float_array(arr, name: str, writable: bool = False) -> None:
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
        raise ValueError(f"{name}: need a float64 array")
    if not arr.flags.c_contiguous:
        raise ValueError(f"{name}: need a C-contiguous array")
    if writable and not arr.flags.writeable:
        raise ValueError(f"{name}: need a writable array")


def dyadic_moments(table, ar, out_sup, out_acc) -> None:
    """Per-row ``sup_k |T_k - T_0|`` and per-scale squared-increment sums.

    ``table`` is ``(rows, 2^d + 1)``.  ``T`` is its rows if ``ar`` is None,
    else ``T_0 = z_0``, ``T_k = z_k + ar T_{k-1}`` over the rows ``z``
    (partial sums for ``ar = 1``).  Writes ``out_sup[i]`` and, for each
    scale ``r = 0..d``, ``out_acc[r * rows + i] = sum_j (T_{(j+1) 2^r} -
    T_{j 2^r})^2`` of row ``i``, added in increasing ``j``.
    """
    _check_float_array(table, "table")
    _check_float_array(out_sup, "out_sup", writable=True)
    _check_float_array(out_acc, "out_acc", writable=True)
    if table.ndim != 2:
        raise ValueError(f"table: need 2 dimensions, got {table.ndim}")
    rows, width = table.shape
    d = dyadic_level(width)
    if out_sup.size != rows:
        raise ValueError(f"out_sup: need {rows} items, got {out_sup.size}")
    if out_acc.size != (d + 1) * rows:
        raise ValueError(f"out_acc: need {(d + 1) * rows} items, got {out_acc.size}")
    sup, acc = out_sup.reshape(rows), out_acc.reshape(d + 1, rows)
    # every operation is per row, so a block's rows get the values that a
    # whole-table pass gives them
    per_block = max(ROW_BLOCK, BLOCK_ITEMS // width)
    for i0 in range(0, rows, per_block):
        block = slice(i0, i0 + per_block)
        cols = np.array(table[block].T, order="C")    # a copy; cols[k] is T_k (z_k) of every row
        if ar is not None:
            for k in range(1, width):
                cols[k] += ar * cols[k - 1]
        # rounded subtraction is monotone, so this is max_k |T_k - T_0| exactly
        np.maximum(np.max(cols[1:], axis=0) - cols[0], cols[0] - np.min(cols[1:], axis=0),
                   out=sup[block])
        for r in range(d + 1):
            step = 2 ** r
            inc = cols[step::step] - cols[:-step:step]
            acc_r = acc[r, block]
            acc_r[:] = inc[0] * inc[0]
            for row in inc[1:]:
                acc_r += row * row
