"""Independent reference implementations the library no longer ships.

The tests check the library against these slower, simpler forms:

* :func:`jacobi_eigh`, a cyclic Jacobi eigensolver, against LAPACK;
* the scalar horizon-gap moments :func:`kernel_gap_msq` (pair space) and
  :func:`kernel_gap_msq_spectral` (spectral measure), against the tables,
  and the spectral table as it was before each power was taken once;
* the explicit ``q @ v`` loops that the partial-sum routines ran before
  they were built on :func:`qclt.chain.kernel_powers` and
  :func:`qclt.chain.partial_sums`, the one power at a time that
  ``partial_sums`` took before binary powering, and the ``row @ q`` loop
  that took the quenched residual from a row of ``Q^n``;
* the graph walks that classified chains before the whole-array
  breadth-first search;
* the element-tuple loops that built group walks and their Fourier
  transforms before the dense step grid and ``np.fft``;
* the chain path kernels that walked one path at a time, bisecting each
  cumulative row with a branch, and that compared every uniform with its
  whole gathered row, before both backends advanced paths together with a
  fixed-depth search;
* the torus path kernel that accumulated the position and evaluated the
  observable's trig at every step, before the lattice-index table;
* the chaining families drawn value by value into whole ``(paths, 2^d + 1)``
  tables on Python integers, the per-row loop that reduces a table, and the
  chaining check that transposed a table and took each scale's moment with
  ``einsum``, before the kernels drew each family block by block inside the
  one-pass reduction; and the drawn pass's moment sums, lane by lane in
  Python floats;
* the fixed-start diagnostics computed one (start, horizon) cell at a
  time, each with its own power tables, before the one-pass table of
  :func:`qclt.martingale.quenched_diagnostics`;
* the tail supremum that took ``Q^{N+1} g`` as the last row of a whole
  ``kernel_powers`` table;
* the scalar stream and the per-step path replay by ``searchsorted`` that
  the batch path kernels are checked against;
* the ``variance_growth`` loop that formed ``pi * f * Q^k f`` per step,
  before binary powering;
* the writers that pretty-printed a chain document with ``indent=2`` and
  wrote a simulation dump one row at a time.
"""

import itertools
import json
import math

import numpy as np

from qclt.chain import ChainFlags, kernel_powers, make_chain, pair_difference, pair_law
from qclt.errors import BadIndexOrder, NotReversible, SpectralDefect
from qclt.inequalities import DyadicFamily
from qclt.kernels import LAW_AR, LAW_BELL, LAW_COUNT, LAW_FACTOR, LAW_SIGN
from qclt.martingale import ApproximationDiagnostics
from qclt.rng import GOLDEN, MASK64, MIX_A, MIX_B, TWO_NEG53, mix64
from qclt.simulate import cumulative_rows
from qclt.spectral import _power_block_sum

JACOBI_REL_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100


# -- cyclic Jacobi eigensolver ---------------------------------------------------

def _off_diag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigh(sym: np.ndarray, rel_tol: float = JACOBI_REL_TOL,
                max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every upper-triangle pair in turn until the off-diagonal
    Frobenius norm falls below ``rel_tol`` times the Frobenius norm of the
    input.  Returns ``(eigenvalues, eigenvectors)`` with orthonormal
    eigenvector columns; raises :class:`SpectralDefect` if the sweep
    limit is reached first.
    """
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    scale = float(np.linalg.norm(a))
    if scale == 0.0 or n == 1:
        return np.diag(a).copy(), v
    for _ in range(max_sweeps):
        if _off_diag_norm(a) <= rel_tol * scale:
            return np.diag(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # classical symmetric Schur rotation zeroing a[p, q]
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if _off_diag_norm(a) <= rel_tol * scale:
        return np.diag(a).copy(), v
    raise SpectralDefect(
        f"off-diagonal norm {_off_diag_norm(a)!r} after {max_sweeps} sweeps"
    )


# -- scalar horizon-gap moments ----------------------------------------------------

def kernel_gap_msq(chain, f, m: int, n: int) -> float:
    """Exact stationary second moment of ``(H_n - H_m)(xi_0, xi_1)``, one
    pair ``(m, n)`` at a time, from ``V_n f - V_m f`` accumulated directly."""
    if m >= n:
        raise BadIndexOrder(f"need m < n, got m={m}, n={n}")
    if m < 1:
        raise BadIndexOrder(f"need m >= 1, got m={m}")
    q = chain.kernel
    qkf = f.values.copy()
    for _ in range(m):
        qkf = q @ qkf
    dv = np.zeros_like(qkf)
    for _ in range(n - m):
        dv = dv + qkf
        qkf = q @ qkf
    dh = dv[None, :] - (q @ dv)[:, None]
    return float(np.sum(chain.stationary[:, None] * q * dh * dh))


def kernel_gap_msq_spectral(measure, m: int, n: int) -> float:
    """``sum_i (1 - t_i^2) (sum_{k=m}^{n-1} t_i^k)^2 mass_i`` for one pair."""
    if m >= n:
        raise BadIndexOrder(f"need m < n, got m={m}, n={n}")
    if m < 1:
        raise BadIndexOrder(f"need m >= 1, got m={m}")
    if not measure.is_real:
        raise NotReversible("horizon-gap moments require a real-supported measure")
    t = measure.locations
    block = _power_block_sum(t, m, n)
    return float(np.sum((1.0 - t * t) * block * block * measure.masses))


def kernel_gap_msq_spectral_table_blocks(measure, n_max: int) -> np.ndarray:
    """The spectral horizon-gap table with every atom's block sums
    ``_power_block_sum(t, m, n)`` broadcast over all pairs ``(m, n)``: two
    ``**`` per pair, where the library takes each power ``t^k`` once."""
    span = np.arange(n_max + 1)
    table = np.zeros((n_max + 1, n_max + 1))
    for t, mass in zip(measure.locations, measure.masses):
        block = _power_block_sum(t, span[:, None], span[None, :])
        table += (1.0 - t * t) * block * block * mass
    return np.triu(table[1:, 1:], k=1)


# -- explicit power loops -------------------------------------------------------------

def truncated_scheme_loop(chain, f, n: int):
    """``(V_n f, H_n)`` with ``V_n f`` accumulated Horner style."""
    q = chain.kernel
    v = f.values.copy()
    for _ in range(n - 1):
        v = f.values + q @ v
    qv = q @ v
    return v, v[None, :] - qv[:, None]


def kernel_gap_msq_table_loop(chain, f, n_max: int) -> np.ndarray:
    """Pair-space Gram table of the horizon gaps, one horizon per step."""
    q = chain.kernel
    pair_w = (chain.stationary[:, None] * q).reshape(-1)
    flat = np.empty((n_max, chain.n_states ** 2))
    v = np.zeros(chain.n_states)
    qkf = f.values.copy()
    for n in range(1, n_max + 1):
        v = v + qkf
        qkf = q @ qkf
        flat[n - 1] = (v[None, :] - (q @ v)[:, None]).reshape(-1)
    gram = (flat * pair_w[None, :]) @ flat.T
    diag = np.diag(gram)
    return np.triu(diag[None, :] - 2.0 * gram + diag[:, None], k=1)


def projection_series_loop(chain, f, K: int):
    """``(projection, mixing, resolvent)`` partial sums, one index per step."""
    pi, q = chain.stationary, chain.kernel
    pr, mix, res = np.zeros(K), np.zeros(K), np.zeros(K)
    qprev = f.values.copy()    # Q^{j-1} f at the top of iteration j
    qcur = q @ qprev           # Q^j f
    vj = np.zeros_like(qprev)
    for j in range(1, K + 1):
        vj = vj + qprev
        qnext = q @ qcur
        norm_j = float(np.sum(pi * qcur * qcur))
        norm_j1 = float(np.sum(pi * qnext * qnext))
        v_norm = float(np.sum(pi * vj * vj))
        prev = j - 2
        pr[j - 1] = np.sqrt(max(norm_j - norm_j1, 0.0)) + (pr[prev] if j > 1 else 0.0)
        mix[j - 1] = np.sqrt(norm_j) / np.sqrt(j) + (mix[prev] if j > 1 else 0.0)
        res[j - 1] = (np.log(np.log(max(j, 3))) ** 2 * v_norm / float(j) ** 2
                      + (res[prev] if j > 1 else 0.0))
        qprev, qcur = qcur, qnext
    return pr, mix, res


def quenched_residual_loop(chain, scheme, x: int, n: int) -> float:
    """``E^x (S_n - M_n)^2`` from the row of ``Q^n`` at ``x``, built by
    ``n`` row-vector products."""
    row = np.zeros(chain.n_states)
    row[x] = 1.0
    for _ in range(n):
        row = row @ chain.kernel
    jump = scheme.qg[x] - scheme.qg
    return float(np.sum(row * jump * jump))


def quenched_diagnostics_cell(chain, scheme, x, n: int) -> ApproximationDiagnostics:
    """One row of the fixed-start table: the conditional means of every state
    summed over a fresh ``kernel_powers`` table to ``n``, and a fresh table of
    the squared jumps from ``x``."""
    if n < 1:
        raise BadIndexOrder(f"need n >= 1, got n={n}")
    xi = chain.index_of(x)
    fv = scheme.g - scheme.qg
    cond_means = kernel_powers(chain, fv, n)[1:].sum(axis=0)
    jump = scheme.qg[xi] - scheme.qg
    residual_msq = float(kernel_powers(chain, jump * jump, n)[-1][xi])
    sqrt_n = float(np.sqrt(n))
    return ApproximationDiagnostics(
        start_state=xi,
        n=n,
        cond_mean=float(cond_means[xi]),
        residual_msq=residual_msq,
        asdl_sup=float(np.max(np.abs(cond_means))) / sqrt_n,
    )


def tail_sup_deviation_table(chain, scheme, N: int) -> float:
    """``qclt.martingale.tail_sup_deviation`` for ``N >= 0`` and a contractive
    scheme, its enumeration starting from row ``N + 1`` of an
    ``(N + 2, S)`` :func:`qclt.chain.kernel_powers` table."""
    q = chain.kernel
    qmg = kernel_powers(chain, scheme.g, N + 1)[-1]
    per_pair = np.zeros((chain.n_states, chain.n_states))
    while True:
        qm1g = q @ qmg
        gm = pair_difference(qmg, qm1g)
        np.maximum(per_pair, gm * gm, out=per_pair)
        envelope = 2.0 * float(np.max(np.abs(qm1g)))
        if envelope * envelope <= float(np.min(per_pair)) + 1e-14:
            return float(np.sum(pair_law(chain) * per_pair))
        qmg = qm1g


def kernel_dyadic_sequence_loop(chain, f, M: int) -> np.ndarray:
    """Rows ``H_{2^{n+1}}`` flattened over the pair space, ``n = 1..M``,
    each from its own Horner-style truncated scheme."""
    vals = np.empty((M, chain.n_states ** 2))
    for i in range(M):
        _, hmat = truncated_scheme_loop(chain, f, 2 ** (i + 2))
        vals[i] = hmat.reshape(-1)
    return vals


def partial_sums_loop(chain, v, n: int):
    """``(V, QV)`` of :func:`qclt.chain.partial_sums` with one ``q @ v``
    per power, each row the one before plus the next power."""
    q, size = chain.kernel, chain.n_states
    rows_v, rows_qv = np.empty((n, size)), np.empty((n, size))
    qkv, v_k, qv_k = np.array(v, dtype=np.float64), np.zeros(size), np.zeros(size)
    for k in range(n):
        v_k = v_k + qkv
        qkv = q @ qkv
        qv_k = qv_k + qkv
        rows_v[k], rows_qv[k] = v_k, qv_k
    return rows_v, rows_qv


def dyadic_block_maxsum_loop(chain, f, D: int) -> float:
    """Left side of the dyadic block-maximum bound, one matvec per horizon."""
    q = chain.kernel
    pair_w = chain.stationary[:, None] * q
    top = 2 ** (D + 2)
    v = np.empty((top + 1, chain.n_states))
    v[0] = 0.0
    qkf = f.values.copy()
    for k in range(1, top + 1):
        v[k] = v[k - 1] + qkf
        qkf = q @ qkf
    lhs = 0.0
    for d in range(D + 1):
        ref = 2 ** (d + 1)
        per_pair = np.zeros((chain.n_states, chain.n_states))
        for n in range(2 ** d + 1, 2 ** (d + 1) + 1):
            dv = v[2 * n] - v[ref]
            gap = dv[None, :] - (q @ dv)[:, None]
            np.maximum(per_pair, gap * gap, out=per_pair)
        lhs += float(np.sum(pair_w * per_pair))
    return lhs


# -- graph classification by explicit search ---------------------------------------

def _support_edges(kernel):
    n = kernel.shape[0]
    for x in range(n):
        for y in range(n):
            if kernel[x, y] > 0.0:
                yield x, y


def _reachable(kernel, start: int, reverse: bool = False) -> np.ndarray:
    adj = kernel.T if reverse else kernel
    seen = np.zeros(kernel.shape[0], dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        x = stack.pop()
        for y in np.nonzero(adj[x] > 0.0)[0]:
            if not seen[y]:
                seen[y] = True
                stack.append(int(y))
    return seen


def _period_gcd(kernel) -> int:
    # gcd of cycle lengths through state 0, via BFS levels on the support
    # graph restricted to states reachable from 0
    n = kernel.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    dist[0] = 0
    queue = [0]
    while queue:
        x = queue.pop(0)
        for y in np.nonzero(kernel[x] > 0.0)[0]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(int(y))
    g = 0
    for x, y in _support_edges(kernel):
        if dist[x] >= 0 and dist[y] >= 0:
            g = math.gcd(g, int(dist[x]) + 1 - int(dist[y]))
    return g


def classify_chain_search(kernel, stationary, tol: float) -> ChainFlags:
    """:func:`qclt.chain.classify_chain` with a depth-first reachability
    search and a queue-based period search."""
    q = np.asarray(kernel, dtype=np.float64)
    pi = np.asarray(stationary, dtype=np.float64)
    flux = pi[:, None] * q
    reversible = bool(np.max(np.abs(flux - flux.T)) <= tol)
    qstar = (pi[None, :] * q.T) / pi[:, None]
    normal = bool(np.max(np.abs(q @ qstar - qstar @ q)) <= tol)
    irreducible = bool(np.all(_reachable(q, 0)) and np.all(_reachable(q, 0, reverse=True)))
    return ChainFlags(reversible=reversible, normal=normal, irreducible=irreducible,
                      aperiodic=_period_gcd(q) == 1, tol=tol)


# -- group walks by loops over element tuples --------------------------------------

def _neg(element, moduli) -> tuple:
    return tuple((-e) % m for e, m in zip(element, moduli))


def character_values(moduli, g, elements) -> np.ndarray:
    """Values of the character indexed by ``g`` at the listed elements."""
    ang = np.zeros(len(elements))
    for d, m in enumerate(moduli):
        ang += (2.0 * math.pi * g[d] / m) * np.array([e[d] for e in elements], dtype=float)
    return np.exp(1j * ang)


def nuhat_all(moduli, pooled, elements) -> np.ndarray:
    """Multiplier ``nuhat(g) = sum_z nu(z) chi_g(z)`` for every character g."""
    out = np.zeros(len(elements), dtype=complex)
    for i, g in enumerate(elements):
        acc = 0.0 + 0.0j
        for z, p in pooled.items():
            ang = 2.0 * math.pi * sum(g[d] * z[d] / m for d, m in enumerate(moduli))
            acc += p * complex(math.cos(ang), math.sin(ang))
        out[i] = acc
    return out


def group_walk_loop(moduli, atoms):
    """``(atoms, elements, chain, symmetric, ergodic)`` of the walk with step
    atoms ``{element tuple: probability}`` or a list of such pairs, pooled in
    a dict and built by a tuple/dict loop over every (element, atom) pair."""
    moduli = tuple(moduli)
    pooled: dict = {}
    for element, p in (atoms.items() if hasattr(atoms, "items") else atoms):
        key = tuple(int(e) % m for e, m in zip(np.atleast_1d(element), moduli))
        pooled[key] = pooled.get(key, 0.0) + float(p)
    pooled = {k: v for k, v in pooled.items() if v > 0.0}
    elements = tuple(itertools.product(*(range(m) for m in moduli)))
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    kernel = np.zeros((n, n))
    for x, ex in enumerate(elements):
        for step, p in pooled.items():
            ey = tuple((a + b) % m for a, b, m in zip(ex, step, moduli))
            kernel[x, index[ey]] += p
    labels = [",".join(str(c) for c in e) if len(moduli) > 1 else str(e[0])
              for e in elements]
    chain = make_chain(labels, kernel, stationary=np.full(n, 1.0 / n))
    symmetric = all(abs(pooled.get(_neg(e, moduli), 0.0) - p) <= 1e-12
                    for e, p in pooled.items())
    nuhat = nuhat_all(moduli, pooled, elements)
    ergodic = bool(np.all(np.abs(nuhat[1:] - 1.0) > 1e-12))
    return tuple(sorted(pooled.items())), elements, chain, symmetric, ergodic


def walk_fourier_loop(moduli, pooled, fvalues):
    """``(nuhat, fhat)`` by the direct O(N^2) transform ``<f, chi_g>``."""
    elements = tuple(itertools.product(*(range(m) for m in moduli)))
    n = len(elements)
    fhat = np.zeros(n, dtype=complex)
    for i, g in enumerate(elements):
        fhat[i] = np.sum(fvalues * np.conj(character_values(moduli, g, elements))) / n
    return nuhat_all(moduli, pooled, elements), fhat


# -- path kernels ---------------------------------------------------------------------

def stream_key(seed: int, path_index: int) -> int:
    """Well-mixed 64-bit starting counter for one path's stream."""
    return mix64(mix64((seed + GOLDEN) & MASK64) ^ mix64(((path_index + 1) * GOLDEN) & MASK64))


class PathStream:
    """Scalar view of one path's stream; replays exactly what the kernels draw."""

    def __init__(self, seed: int, path_index: int):
        self.key = stream_key(seed, path_index)
        self.counter = 0

    def uniform(self) -> float:
        self.counter += 1
        z = mix64((self.key + self.counter * GOLDEN) & MASK64)
        return (z >> 11) * TWO_NEG53


def sample_path(chain, x, n: int, stream: PathStream) -> np.ndarray:
    """One path ``xi_0 = x, xi_1, ..., xi_n`` by inverse-CDF lookup.

    Replays exactly the transitions the batch kernels draw for the stream's
    ``(seed, path_index)``.
    """
    if n < 1:
        raise BadIndexOrder(f"need n >= 1, got n={n}")
    cum = cumulative_rows(chain)
    state = chain.index_of(x)
    out = np.empty(n + 1, dtype=np.int64)
    out[0] = state
    for k in range(1, n + 1):
        u = stream.uniform()
        state = int(np.searchsorted(cum[state], u, side="right"))
        out[k] = state
    return out


def _uniforms(counters: np.ndarray) -> np.ndarray:
    # advance every stream one draw, in place, and return the uniforms, with
    # a fresh array for every operation of the splitmix64 finalizer
    counters += np.uint64(GOLDEN)
    z = (counters ^ (counters >> np.uint64(30))) * np.uint64(MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX_B)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * TWO_NEG53


def chain_paths_bisect(cum_rows, fvals, hmat, start, n_steps, keys):
    """``(sums, mart_sums, last_states)`` one path at a time on Python floats,
    each next state the first ``j < S - 1`` with ``u < cum_rows[state, j]``,
    found by a bisection that branches on every compare."""
    S = len(fvals)
    cum, f, h = cum_rows.tolist(), fvals.tolist(), hmat.tolist()
    out_s, out_m = np.empty(len(keys)), np.empty(len(keys))
    out_last = np.empty(len(keys), dtype=np.int64)
    for i, ctr in enumerate(keys.tolist()):
        state, s, m = start, 0.0, 0.0
        for _ in range(n_steps):
            ctr = (ctr + GOLDEN) & MASK64
            u = (mix64(ctr) >> 11) * TWO_NEG53
            row, lo, hi = cum[state], 0, S - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if u < row[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            m += h[state][lo]
            s += f[lo]
            state = lo
        out_s[i], out_m[i], out_last[i] = s, m, state
    return out_s, out_m, out_last


def chain_paths_scan(cum_rows, fvals, hmat, start, n_steps, keys):
    """``(sums, mart_sums, last_states)`` with every path's next state the count
    of entries of its gathered ``(paths, S)`` cumulative row at most ``u``."""
    npaths = keys.shape[0]
    ctr = keys.astype(np.uint64)
    state = np.full(npaths, start, dtype=np.int64)
    s = np.zeros(npaths)
    m = np.zeros(npaths)
    for _ in range(n_steps):
        u = _uniforms(ctr)
        nxt = (u[:, None] >= cum_rows[state]).sum(axis=1)
        m += hmat[state, nxt]
        s += fvals[nxt]
        state = nxt
    return s, m, state


# -- torus walk with an accumulated position ------------------------------------------

def torus_paths_accumulating(alpha, lazy, omegas, ccos, csin, x0, n_steps, keys):
    """``(sums, positions)`` of the rotation walk: each step adds +-alpha to
    a float position, reduces it mod 1 and evaluates the observable there."""
    npaths = keys.shape[0]
    ctr = keys.astype(np.uint64).copy()
    x = np.full(npaths, x0, dtype=np.float64)
    s = np.zeros(npaths)
    mid = lazy + 0.5 * (1.0 - lazy)
    for _ in range(n_steps):
        u = _uniforms(ctr)
        x = np.where(u < lazy, x, np.where(u < mid, x + alpha, x - alpha))
        x -= np.floor(x)
        phase = x[:, None] * omegas[None, :]
        s += np.cos(phase) @ ccos + np.sin(phase) @ csin
    return s, x


# -- chaining families drawn as whole tables on Python integers -----------------------

def _uniforms_of(draws):
    """The uniform ``(z >> 11) 2^-53`` of each 64-bit draw ``z``."""
    return ((z >> 11) * TWO_NEG53 for z in draws)


def _draws(key: int):
    """The 64-bit draws of the counter stream that starts at ``key``."""
    while True:
        key = (key + GOLDEN) & MASK64
        yield mix64(key)


def recursion_rows(table, a):
    """The rows ``T_0 = z_0``, ``T_k = z_k + a T_{k-1}`` of the rows ``z``
    of ``table``, in Python floats: the operation the drawn kernels run."""
    rows = []
    for z in table.tolist():
        t = [z[0]]
        for zk in z[1:]:
            t.append(zk + a * t[-1])
        rows.append(t)
    return np.array(rows, dtype=np.float64).reshape(table.shape)


def drawn_family(law, d, scale, a, drift, profile, keys):
    """The ``DyadicFamily`` whose moments ``drawn_dyadic_moments`` returns:
    every row's values drawn one at a time in Python floats, as the
    ``_kernels.c`` header defines the five laws, and its ``T`` built by
    :func:`recursion_rows` (the walks with ``a = 1.0``)."""
    width = 2 ** d + 1
    rows = []
    for key in keys.tolist():
        u = _uniforms_of(_draws(key))
        if law == LAW_FACTOR:
            factor = scale * ((next(u) + next(u)) - 1.0)
        row = []
        for k in range(width):
            if law == LAW_BELL:
                row.append(scale * ((next(u) + next(u)) - 1.0))
            elif law == LAW_SIGN:
                row.append(1.0 if next(u) >= 0.5 else -1.0)
            elif law == LAW_AR:
                row.append(scale * (2.0 * next(u) - 1.0))
            elif law == LAW_FACTOR:
                row.append(factor * float(profile[k]) + 0.1 * (2.0 * next(u) - 1.0))
            else:
                v = next(u)
                row.append(v * v - drift)
        rows.append(row)
    table = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    if law != LAW_FACTOR:
        table = recursion_rows(table, a if law == LAW_AR else 1.0)
    return DyadicFamily.from_samples(table)


def random_family_params(seed: int, index: int) -> dict:
    """The law, ``d``, parameters and row seed of ``qclt.verify``'s chaining
    family ``index`` under ``seed``: the draws of stream ``index`` in order."""
    draws = _draws(stream_key(seed, index))
    u = _uniforms_of(draws)

    def uniform(lo, hi):
        return lo + (hi - lo) * next(u)

    law = (LAW_COUNT * next(draws)) >> 64
    d = 1 + ((5 * next(draws)) >> 64)
    out = {"law": law, "d": d, "scale": uniform(0.2, 2.0), "a": uniform(-0.9, 0.9),
           "drift": uniform(0.0, 2.0 / 3.0)}
    out["profile"] = [uniform(-1.0, 1.0) for _ in range(2 ** d + 1 if law == LAW_FACTOR else 0)]
    out["row_seed"] = next(draws)
    return out


def dyadic_moments_rows(table):
    """``(sup, acc)`` of ``dyadic_moments`` row by row in plain Python floats."""
    rows, width = table.shape
    d = (width - 1).bit_length() - 1
    sup, acc = np.empty(rows), np.empty((d + 1, rows))
    for i, t in enumerate(table.tolist()):
        sup[i] = max(abs(tk - t[0]) for tk in t[1:])
        for r in range(d + 1):
            step = 2 ** r
            s = 0.0
            for k in range(step, width, step):
                inc = t[k] - t[k - step]
                s += inc * inc
            acc[r, i] = s
    return sup, acc


def moment_sums_rows(sup, acc):
    """The ``d + 3`` moment sums of the drawn pass from per-row ``sup`` and
    ``acc`` (as :func:`dyadic_moments_rows` gives them), in plain Python
    floats: each scale's ``acc``, then ``sup^2``, then ``(sup^2 - mean)^2``
    with ``mean`` the ``sup^2`` sum over the rows.  Row ``i`` adds into lane
    ``i mod nb``, ``nb = min(32, max(1, 4096 // (2^d + 1)))``, and the lanes
    are then added in order from 0.0."""
    d = acc.shape[0] - 1
    nb = min(32, max(1, 4096 // (2 ** d + 1)))

    def lane_sum(terms):
        lanes = [0.0] * nb
        for i, term in enumerate(terms):
            lanes[i % nb] += term
        total = 0.0
        for lane in lanes:
            total += lane
        return total

    sup_sq = [s * s for s in sup.tolist()]
    sums = [lane_sum(row) for row in acc.tolist()] + [lane_sum(sup_sq)]
    mean = sums[-1] / len(sup_sq) if sup_sq else 0.0
    sums.append(lane_sum([(s - mean) * (s - mean) for s in sup_sq]))
    return sums


def chaining_check_einsum(table, probs=None):
    """``(lhs, rhs, slack, ok)`` of the chaining check on a ``T`` table, with
    row weights ``probs`` (an exact family) or ``1/rows`` (a sampled one)."""
    d = (table.shape[1] - 1).bit_length() - 1
    sampled = probs is None
    weights = np.full(table.shape[0], 1.0 / table.shape[0]) if sampled else probs
    cols = np.ascontiguousarray(table.T)          # (2^d + 1, paths)
    sup = np.maximum(np.max(cols[1:], axis=0) - cols[0],
                     cols[0] - np.min(cols[1:], axis=0))

    def moment(rows):   # sum_j weights[j] * sum_i rows[i, j]^2
        return float(np.einsum("ij,ij->j", rows, rows) @ weights)

    lhs = math.sqrt(moment(sup[None, :]))
    rhs = 0.0
    for r in range(d + 1):
        step = 2 ** r
        rhs += math.sqrt(moment(cols[step::step] - cols[:-step:step]))
    if sampled:
        se_msq = float(np.std(sup * sup)) / math.sqrt(cols.shape[1])
        slack = 3.0 * se_msq / (2.0 * lhs) if lhs > 0 else 0.0
    else:
        slack = 1e-12
    return lhs, rhs, slack, lhs <= rhs + slack


# -- variance growth ----------------------------------------------------------------

def variance_growth_loop(chain, f, n: int) -> float:
    """``var(S_n)/n`` with ``pi * f * Q^k f`` formed and summed every step."""
    pi, q = chain.stationary, chain.kernel
    fv = f.values
    acc = float(n) * f.norm_sq
    qkf = fv.copy()
    for k in range(1, n):
        qkf = q @ qkf
        acc += 2.0 * float(n - k) * float(np.sum(pi * fv * qkf))
    return acc / float(n)


# -- writers ----------------------------------------------------------------------

def dump_document_indented(chain, observables=None) -> str:
    """The chain document as one ``json.dumps(doc, indent=2)``, one number
    per line."""
    doc = {
        "states": list(chain.state_labels),
        "Q": chain.kernel.tolist(),
        "pi": chain.stationary.tolist(),
    }
    if observables:
        doc["observables"] = {k: np.asarray(v).tolist() for k, v in observables.items()}
    return json.dumps(doc, indent=2)


def dump_samples_loop(fh, s_scaled, m_scaled) -> None:
    """The simulation dump written one ``fh.write`` per row."""
    fh.write("path_index,s_scaled,m_scaled\n")
    for i in range(s_scaled.shape[0]):
        fh.write(f"{i},{s_scaled[i]:.12g},{m_scaled[i]:.12g}\n")
