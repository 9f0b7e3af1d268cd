"""Independent reference implementations the library no longer ships.

The tests check the library against these slower, simpler forms:

* :func:`jacobi_eigh`, a cyclic Jacobi eigensolver, against LAPACK;
* the scalar horizon-gap moments :func:`kernel_gap_msq` (pair space) and
  :func:`kernel_gap_msq_spectral` (spectral measure), against the tables;
* the explicit ``q @ v`` loops that the partial-sum routines ran before
  they were built on :func:`qclt.chain.kernel_powers` and
  :func:`qclt.chain.partial_sums`, and the ``row @ q`` loop that took the
  quenched residual from a row of ``Q^n``;
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
* the chaining families drawn as fresh ``(paths, 2^d + 1)`` tables with
  ``cumsum``, and the chaining check that transposed them and took each
  scale's moment with ``einsum``, before the reused workspace and the
  one-pass ``dyadic_moments`` kernel;
* the ``variance_growth`` loop that formed ``pi * f * Q^k f`` per step;
* the writers that pretty-printed a chain document with ``indent=2`` and
  wrote a simulation dump one row at a time.
"""

import itertools
import json
import math

import numpy as np

from qclt.chain import ChainFlags, make_chain
from qclt.errors import BadIndexOrder, JacobiNoConvergence, NotReversible
from qclt.rng import GOLDEN, MASK64, MIX_A, MIX_B, TWO_NEG53, mix64
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
    eigenvector columns; raises :class:`JacobiNoConvergence` if the sweep
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
    raise JacobiNoConvergence(
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


def kernel_dyadic_sequence_loop(chain, f, M: int) -> np.ndarray:
    """Rows ``H_{2^{n+1}}`` flattened over the pair space, ``n = 1..M``,
    each from its own Horner-style truncated scheme."""
    vals = np.empty((M, chain.n_states ** 2))
    for i in range(M):
        _, hmat = truncated_scheme_loop(chain, f, 2 ** (i + 2))
        vals[i] = hmat.reshape(-1)
    return vals


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


# -- chaining families and check on whole (paths, 2^d + 1) tables ---------------------

def random_dyadic_table(rng, d: int, paths: int) -> np.ndarray:
    """The ``T`` table of one random chaining family: the same generator calls,
    in the same order and shapes, as ``qclt.verify.random_dyadic_family``."""
    count = 2 ** d + 1
    shape = rng.integers(0, 5)
    if shape == 0:       # random walk with scaled gaussian increments
        inc = rng.normal(0.0, rng.uniform(0.2, 2.0), size=(paths, count))
        t = np.cumsum(inc, axis=1)
    elif shape == 1:     # +-1 martingale random walk
        inc = rng.choice([-1.0, 1.0], size=(paths, count))
        t = np.cumsum(inc, axis=1)
    elif shape == 2:     # AR(1) with random coefficient
        a = rng.uniform(-0.9, 0.9)
        cols = np.ascontiguousarray(rng.normal(size=(paths, count)).T)
        for k in range(1, count):
            cols[k] += a * cols[k - 1]
        t = cols.T
    elif shape == 3:     # shared factor times deterministic profile
        z = rng.normal(size=(paths, 1))
        profile = rng.uniform(-1.0, 1.0, size=count)
        t = z * profile[None, :] + 0.1 * rng.normal(size=(paths, count))
    else:                # drifting exponential sums (not a martingale)
        inc = rng.exponential(1.0, size=(paths, count)) - rng.uniform(0.0, 2.0)
        t = np.cumsum(inc, axis=1)
    return t


def dyadic_table(family) -> np.ndarray:
    """The ``T`` table of a ``DyadicFamily``, its recursion run column by column."""
    if family.ar is None:
        return family.table
    t = np.array(family.table)
    for k in range(1, t.shape[1]):
        t[:, k] = t[:, k] + family.ar * t[:, k - 1]
    return t


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


def chaining_randomized_results(families: int, paths: int, seed: int = 2024):
    """Every family's ``(lhs, rhs, slack, ok)`` in the draw order of
    ``qclt.verify.check_chaining_randomized``, and the generator after the loop."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(families):
        table = random_dyadic_table(rng, int(rng.integers(1, 6)), paths)
        out.append(chaining_check_einsum(table))
    return out, rng


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
