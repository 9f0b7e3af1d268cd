"""Pure numpy kernels; drop-in fallback for the compiled extension, and the
one table reduction of every backend.

Both backends run the same arithmetic in the same order, so every kernel is
bit-for-bit reproducible across backends.  The path kernels are integer
mixes, table lookups and float additions; the torus table takes cos/sin
from the C library through ``math``, as the compiled kernel does, and not
from numpy's own vectorised trig.  Both path kernels advance every path at
once through in-place ufuncs on buffers allocated once per call, drawing
through :func:`_uniforms_into`.  :func:`chain_paths` finds each next state
by the search that the ``_kernels.c`` header describes, probe for probe as
the C lanes do.
:func:`dyadic_moments` reduces a stored dyadic table to per-row maxima
and per-scale squared-increment sums, adding each row's increments in
increasing order as the C drawn pass does, one block of rows at a time.  It
has no C twin: the stored tables that reach it are small (verify's
deterministic families are one row), so it serves the compiled backend too.
:func:`drawn_dyadic_moments` gives the same reduction of a family drawn
from the counter streams under a row seed by the laws that the
``_kernels.c`` header defines: it takes each block's keys from
:func:`qclt.rng.stream_keys`, draws the block's values through
:func:`_uniforms_into`, a few columns at a time, with the C draws'
operations in their order, and reduces the block as :func:`dyadic_moments`
does, so no table of the family exists.  It returns the family's moment
sums, added in the C pass's lane order (see :func:`moment_sums`), not its
per-row sums.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

from .errors import BadLength
from .rng import GOLDEN, TWO_NEG53, mix64_into, stream_keys

BACKEND_NAME = "python"
# dyadic_moments takes max(ROW_BLOCK, BLOCK_ITEMS // width) rows per pass:
# enough rows to amortise each pass's loops, and copies of at most
# max(ROW_BLOCK * width, BLOCK_ITEMS) values
ROW_BLOCK = 1024
BLOCK_ITEMS = 1 << 15

# drawn_dyadic_moments draws about DRAW_ITEMS values per pass (at least one
# column of a block), so its draw buffers stay small beside the block
DRAW_ITEMS = 1 << 12

# the compiled drawn pass holds min(SUM_LANES, SUM_LANE_ITEMS // width) rows
# to a block, at least one, and adds row i into lane i mod that count of
# each moment sum; the sums here take the same lanes
SUM_LANES = 32
SUM_LANE_ITEMS = 4096

# the drawn families' law ids; the _kernels.c header defines the laws
LAW_BELL, LAW_SIGN, LAW_AR, LAW_FACTOR, LAW_DRIFT = range(5)
LAW_COUNT = 5
DRAWN_MAX_D = 20
# no drawn value, sum or square can overflow below this parameter bound
PARAM_MAX = 2.0 ** 32

# torus_paths tabulates its observable this many lattice points at a time,
# so the Python floats of a chunk stay small beside the 8-byte table entries
TORUS_CHUNK = 1 << 12

# the most steps of a path walk: the torus table of 2 n + 1 float64 values
# must have a byte size below sys.maxsize
MAX_STEPS = (sys.maxsize // 8 - 1) // 2

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


def _lattice_points(x0, alpha, d):
    # x0 + d alpha reduced to [0, 1), for the integer array d
    x = x0 + d * alpha
    x -= np.floor(x)
    return x


def _torus_table(alpha, omegas, ccos, csin, x0, n_steps) -> np.ndarray:
    # the observable at lattice points j = 0..2 n_steps, TORUS_CHUNK points
    # at a time; each value adds its frequencies' terms in order from 0.0
    width = 2 * n_steps + 1
    table = np.zeros(width)
    for lo in range(0, width, TORUS_CHUNK):
        hi = min(lo + TORUS_CHUNK, width)
        x = _lattice_points(x0, alpha, np.arange(lo - n_steps, hi - n_steps))
        fval = table[lo:hi]
        for om, cc, cs in zip(omegas.tolist(), ccos.tolist(), csin.tolist()):
            phase = (x * om).tolist()
            fval += (cc * np.fromiter(map(math.cos, phase), np.float64, hi - lo)
                     + cs * np.fromiter(map(math.sin, phase), np.float64, hi - lo))
    return table


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
    ``(2 n_steps + 1) * 8``-byte table, filled ``TORUS_CHUNK`` points at a
    time), and each path moves ``j`` from
    ``n_steps`` by lazy +-1 steps and adds ``table[j]`` per step.
    """
    _check_steps(n_steps)
    if n_steps > MAX_STEPS:
        raise ValueError(f"n_steps: a table of 2 * {n_steps} + 1 values is too large")
    if not 0.0 <= lazy < 1.0:
        raise ValueError(f"lazy {lazy!r} outside [0, 1)")
    table = _torus_table(alpha, omegas, ccos, csin, x0, n_steps)
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
    out_x[:] = _lattice_points(x0, alpha, j - n_steps)


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


def _moments_block(cols, ar, sup, acc) -> None:
    # one block of a dyadic family: cols[k] holds T_k of every row, or z_k of a
    # drawn family with ``ar`` set, overwritten with T_k = z_k + ar T_{k-1}; writes
    # the block's sup and acc[r].  Every operation is per row, so a block's rows
    # get the values that a whole-table pass gives them.  Each row's terms are
    # added in increasing k, as the C loops add them (np.add.reduce may sum pairwise)
    if ar is not None:
        for k in range(1, cols.shape[0]):
            cols[k] += ar * cols[k - 1]
    # rounded subtraction is monotone, so this is max_k |T_k - T_0| exactly
    np.maximum(np.max(cols[1:], axis=0) - cols[0], cols[0] - np.min(cols[1:], axis=0),
               out=sup)
    for r in range(acc.shape[0]):
        step = 2 ** r
        inc = cols[step::step] - cols[:-step:step]
        np.multiply(inc, inc, out=inc)
        acc_r = acc[r]
        acc_r[:] = inc[0]
        for row in inc[1:]:
            acc_r += row


def _check_outputs(rows: int, acc_items: int, out_sup, out_acc) -> None:
    _check_float_array(out_sup, "out_sup", writable=True)
    _check_float_array(out_acc, "out_acc", writable=True)
    if out_sup.size != rows:
        raise ValueError(f"out_sup: need {rows} items, got {out_sup.size}")
    if out_acc.size != acc_items:
        raise ValueError(f"out_acc: need {acc_items} items, got {out_acc.size}")


def dyadic_moments(table):
    """Per-row ``sup_k |T_k - T_0|`` and per-scale squared-increment sums.

    ``table`` is a ``(rows, 2^d + 1)`` float64 array of any layout, row
    ``i`` the values ``T_0 .. T_{2^d}`` of one path or atom.  Returns
    ``(sup, acc)``: ``sup[i]`` of row ``i`` and, for each scale ``r =
    0..d``, ``acc[r, i] = sum_j (T_{(j+1) 2^r} - T_{j 2^r})^2`` of row
    ``i``, added in increasing ``j``.  Each block of rows is copied to C
    order first, so every layout gives the same bits.
    """
    rows, width = table.shape
    sup, acc = np.empty(rows), np.empty((dyadic_level(width) + 1, rows))
    per_block = max(ROW_BLOCK, BLOCK_ITEMS // width)
    for i0 in range(0, rows, per_block):
        block = slice(i0, i0 + per_block)
        cols = np.array(table[block].T, order="C")    # a copy; cols[k] is T_k of every row
        _moments_block(cols, None, sup[block], acc[:, block])
    return sup, acc


def sum_lanes(width: int) -> int:
    """The lanes of the moment sums of a family ``width`` values wide: the
    rows of a compiled drawn pass's block, ``min(32, 4096 // width)`` and at
    least 1."""
    return min(SUM_LANES, max(1, SUM_LANE_ITEMS // width))


def _add_to_lanes(lanes, terms, i0: int) -> None:
    # add terms[:, j], the terms of row i0 + j, into lanes[:, (i0 + j) % nb]
    # in increasing row order, as the C pass adds its blocks into its lanes.
    # The lanes and the zero-padded terms are laid out as 1 + blocks rows of
    # nb and added down the rows (+0.0 added to a sum of squares changes no
    # bit).  np.add.reduce adds down the rows in sequence while nb > 1; with
    # one lane the terms are contiguous and it would add them pairwise, so
    # np.add.accumulate, which adds in sequence by definition, takes them
    k, nb = lanes.shape
    n = terms.shape[1]
    off = i0 % nb
    blocks = -(-(off + n) // nb)
    buf = np.zeros((k, (1 + blocks) * nb))
    buf[:, :nb] = lanes
    buf[:, nb + off:nb + off + n] = terms
    rows = buf.reshape(k, 1 + blocks, nb)
    lanes[:] = np.add.reduce(rows, axis=1) if nb > 1 else np.add.accumulate(rows, axis=1)[:, -1]


def _lane_total(lanes) -> float:
    # a sum's lanes added in order from 0.0, as the C pass adds them
    total = 0.0
    for lane in lanes.tolist():
        total += lane
    return total


def _finish_sums(sup, lanes, per_block: int) -> list:
    # lanes holds the d + 3 sums' lanes, all but the last one filled: add
    # (sup^2 - mean)^2 into the last, per_block rows at a time, and return
    # every sum
    rows = sup.shape[0]
    mean = _lane_total(lanes[-2]) / rows if rows else 0.0
    for i0 in range(0, rows, per_block):
        dev = np.multiply(sup[i0:i0 + per_block], sup[i0:i0 + per_block])
        dev -= mean
        np.multiply(dev, dev, out=dev)
        _add_to_lanes(lanes[-1:], dev[None, :], i0)
    return [_lane_total(row) for row in lanes]


def moment_sums(sup, acc) -> list:
    """The ``d + 3`` moment sums of a family from its per-row ``sup`` and
    ``acc`` (see :func:`dyadic_moments`), as the drawn pass takes them: each
    scale's ``sum_i acc[r, i]``, then ``sum_i sup_i^2`` and
    ``sum_i (sup_i^2 - mean)^2`` with ``mean`` the second sum over the rows.
    Row ``i`` adds into lane ``i mod`` :func:`sum_lanes` of each sum, and
    the lanes are then added in order, so a table of a drawn family gets
    the drawn pass's sums bit for bit."""
    d = acc.shape[0] - 1
    lanes = np.zeros((d + 3, sum_lanes(2 ** d + 1)))
    _add_to_lanes(lanes[:-1], np.vstack([acc, sup * sup]), 0)
    return _finish_sums(sup, lanes, max(sup.shape[0], 1))


def _check_spec(law, d, scale, a, drift, profile) -> tuple:
    # a drawn family's law, level and parameters, as the C kernel checks
    # them; returns (law, d) as Python ints
    law, d = operator.index(law), operator.index(d)
    if not 0 <= law < LAW_COUNT:
        raise ValueError(f"law {law} outside [0, {LAW_COUNT})")
    if not 0 <= d <= DRAWN_MAX_D:
        raise ValueError(f"d {d} outside [0, {DRAWN_MAX_D}]")
    for name, value, bound, text in (("scale", scale, PARAM_MAX, "2^32"), ("a", a, 1.0, "1"),
                                     ("drift", drift, PARAM_MAX, "2^32")):
        if not abs(value) <= bound:
            raise ValueError(f"{name} {value!r} is not finite with magnitude at most {text}")
    _check_float_array(profile, "profile")
    need = 2 ** d + 1 if law == LAW_FACTOR else 0
    if profile.size != need:
        raise ValueError(f"profile: need {need} items, got {profile.size}")
    if need and not np.max(np.abs(profile)) <= PARAM_MAX:
        raise ValueError("profile: entries must be finite with magnitude at most 2^32")
    return law, d


def drawn_dyadic_moments(law, d, scale, a, drift, profile, row_seed, out_sup, out_acc) -> None:
    """The per-row sups and the :func:`moment_sums` of a family of
    ``out_sup.size`` rows drawn here, row ``i`` from counter stream ``i``
    under the integer ``row_seed``, by the laws that the ``_kernels.c``
    header defines; no table of the family exists.  Writes the sups to
    ``out_sup`` and the ``d + 3`` sums to ``out_acc``.

    Rows are reduced in the blocks of :func:`dyadic_moments`, each block's
    terms added into the sums' lanes before the next block is drawn.  A
    block's keys are :func:`qclt.rng.stream_keys` of its rows alone, and its
    values are drawn a few columns at a time: one counter per draw of each
    row, all advanced together through :func:`_uniforms_into`.
    """
    row_seed = operator.index(row_seed)
    law, d = _check_spec(law, d, scale, a, drift, profile)
    _check_float_array(out_sup, "out_sup", writable=True)
    rows, width = out_sup.size, 2 ** d + 1
    _check_outputs(rows, d + 3, out_sup, out_acc)
    sup = out_sup.reshape(rows)
    lanes = np.zeros((d + 3, sum_lanes(width)))
    per_value = 2 if law == LAW_BELL else 1
    lead = 2 if law == LAW_FACTOR else 0             # a row's factor takes its first draws
    per_block = max(ROW_BLOCK, BLOCK_ITEMS // width)
    n_max = min(rows, per_block)
    span = max(1, DRAW_ITEMS // (per_value * max(n_max, 1)))     # columns drawn at once
    # row k: draw k of every stream, whose counter is key + k GOLDEN before it advances
    offsets = (np.arange(lead + per_value * width, dtype=np.uint64) * _G)[:, None]
    draw_rows = max(lead, per_value * min(span, width))
    ctr_buf, zt_buf = (np.empty((draw_rows, n_max), dtype=np.uint64) for _ in range(2))
    u_buf, cols_buf = np.empty((draw_rows, n_max)), np.empty((width, n_max))
    terms_buf = np.empty((d + 2, n_max))            # a block's acc rows, then its sup^2
    # the recursion that builds T from the drawn values: the walks' partial
    # sums, the AR(1) coefficient, or none for the factor law
    ar = a if law == LAW_AR else None if law == LAW_FACTOR else 1.0

    def uniforms(block_keys, k0, k1):
        # draws k0..k1 of the streams block_keys, one row of the result each
        m, n = k1 - k0, block_keys.shape[0]
        ctr, u = ctr_buf[:m, :n], u_buf[:m, :n]
        np.add(offsets[k0:k1], block_keys, out=ctr)
        _uniforms_into(ctr, ctr, zt_buf[:m, :n], u)
        return u

    for i0 in range(0, rows, per_block):
        block = slice(i0, i0 + per_block)
        block_keys = stream_keys(row_seed, min(per_block, rows - i0), i0)
        cols = cols_buf[:, :block_keys.shape[0]]
        if law == LAW_FACTOR:                        # F = scale ((u + u') - 1)
            u = uniforms(block_keys, 0, 2)
            factor = u[0] + u[1]
            factor -= 1.0
            factor *= scale
        for c0 in range(0, width, span):
            c1 = min(c0 + span, width)
            u = uniforms(block_keys, lead + per_value * c0, lead + per_value * c1)
            out = cols[c0:c1]
            if law == LAW_BELL:                      # scale ((u + u') - 1)
                np.add(u[0::2], u[1::2], out=out)
                out -= 1.0
                out *= scale
            elif law == LAW_SIGN:                    # +1 where u >= 1/2, else -1
                np.subtract(u, 0.5, out=out)         # exact, and +0.0 at u = 1/2
                np.copysign(1.0, out, out=out)
            elif law == LAW_DRIFT:                   # u u - drift
                np.multiply(u, u, out=out)
                out -= drift
            else:                                    # scale (2u - 1), or the factor's noise
                np.multiply(u, 2.0, out=out)
                out -= 1.0
                out *= 0.1 if law == LAW_FACTOR else scale
            if law == LAW_FACTOR:                    # F profile[k] + 0.1 (2u - 1)
                out += np.multiply.outer(profile[c0:c1], factor, out=u)
        terms = terms_buf[:, :block_keys.shape[0]]
        _moments_block(cols, ar, sup[block], terms[:-1])
        np.multiply(sup[block], sup[block], out=terms[-1])
        _add_to_lanes(lanes[:-1], terms, i0)
    out_acc.reshape(d + 3)[:] = _finish_sums(sup, lanes, per_block)
