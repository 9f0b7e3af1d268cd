/* Compiled kernels; the same loops, in the same order, as _kernels_py.
 *
 * Path kernels: per path, a splitmix64 counter stream keyed off the path
 * index drives inverse-CDF transitions on precomputed cumulative kernel
 * rows, or lazy +-1 steps of a lattice index into a table of the torus
 * observable.  The torus table takes its cos/sin from the C library, as
 * math.cos/math.sin do in the fallback.
 *
 * The chain kernel advances LANES paths in lockstep, each with its own
 * counter, state and sums.  Every backend, the numpy fallback included,
 * finds a step's next state by this one search.  pos = row = state * S is
 * the flat index of the state's cumulative row.  The halving table covers
 * the row's first S - 1 entries: from len = S - 1, while len > 1, take
 * half = len / 2 and len -= half.  At each halving pos += half where
 * cum[pos + half] <= u; one final compare adds cum[pos] <= u (no entry is
 * left to compare when S = 1).  Then m += hmat[pos], state = pos - row and
 * s += fvals[state].  The entries never decrease, so the count is the first
 * j < S - 1 with u < row[j], or S - 1 if there is none; u < 1.0 always, so
 * that is the first j with u < row[j] over the whole row, and the pinned
 * last column is never read.  The searchsorted replay and per-path
 * bisection that the tests keep as references pick that same state, and
 * every path adds its terms in step order, so no backend changes a bit.
 *
 * On x86-64 the path walks also come as AVX-512F/DQ lane kernels: 8 paths
 * to a zmm register, the chain in two registers (16 paths) so that one
 * register's table gathers overlap the other's, the torus in one.  Module
 * exec picks them once, when the CPU reports both AVX-512F and AVX-512DQ,
 * and names the choice in LANE_PATH ("avx512" or "scalar"); elsewhere the
 * scalar walks run.  They are bit-for-bit the scalar walks: the draw's
 * integer steps are exact, z >> 11 < 2^53 converts to double exactly and
 * the scale by 2^-53 is exact; the search is the one above, comparing the
 * same entries by the same <=; every table read is a gather of the entry
 * the scalar lane loads; and each lane adds its terms in step order, with
 * no fused multiply-add.
 *
 * dyadic_moments: one pass over a row-major (rows, 2^d + 1) table of a
 * dyadic family.  Per row it builds T, as given or by T_0 = z_0,
 * T_k = z_k + a T_{k-1}, and writes sup_k |T_k - T_0| and, for each scale
 * r = 0..d, the sum over i of (T_{(i+1) 2^r} - T_{i 2^r})^2 added in
 * increasing i.
 *
 * Every kernel is bit-for-bit identical to the numpy fallback.  Build with
 * -ffp-contract=off so no fused multiply-add changes a rounding.
 *
 * Arrays arrive through the buffer protocol and must be C-contiguous, of
 * float64 for values, uint64 for keys and int64 for last states; the out
 * slots must be writable.  Every type, length and the start state are
 * checked before the loops run, so a rejected call writes no output slot,
 * and the loops run without the GIL so worker threads scale.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX_A 0xBF58476D1CE4E5B9ULL
#define MIX_B 0x94D049BB133111EBULL
#define TWO_NEG53 (1.0 / 9007199254740992.0)

/* chain paths advanced in lockstep: independent lanes overlap their
 * dependent step chains (draw, row loads, compare, next state) */
#define LANES 8

/* advance one stream a draw and return its uniform in [0, 1) */
static inline double next_uniform(uint64_t *ctr)
{
    uint64_t z = (*ctr += GOLDEN);
    z = (z ^ (z >> 30)) * MIX_A;
    z = (z ^ (z >> 27)) * MIX_B;
    z ^= z >> 31;
    return (double)(z >> 11) * TWO_NEG53;
}

/* x0 + d * alpha reduced to [0, 1): the torus point d lattice steps from x0 */
static inline double lattice_point(double x0, double alpha, Py_ssize_t d)
{
    double x = x0 + (double)d * alpha;
    return x - floor(x);
}

/* 1 if buffer format `f` is one 8-byte item of `type`: 'd' float64,
 * 'Q' uint64 or 'q' int64 (numpy exports the 64-bit integers as 'L'/'l') */
static int format_is(const char *f, char type)
{
    if (f == NULL)
        return 0;
    if (*f == '@' || *f == '=' || (*f == '<' && PY_LITTLE_ENDIAN))
        f++;
    if (f[0] == '\0' || f[1] != '\0')
        return 0;
    return f[0] == type || (type == 'Q' && f[0] == 'L') || (type == 'q' && f[0] == 'l');
}

/* Take the buffers of objs[0..n) as C-contiguous arrays of types[i], the
 * ones from `first_out` on writable; 0, or -1 with an exception set.  The
 * caller releases every buffer in `b`, which it zero-initialises. */
static int get_arrays(PyObject **objs, Py_buffer *b, const char *types,
                      const char *const *names, int first_out, int n)
{
    for (int i = 0; i < n; i++) {
        int flags = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS | (i >= first_out ? PyBUF_WRITABLE : 0);
        if (PyObject_GetBuffer(objs[i], &b[i], flags) < 0)
            return -1;
        if (b[i].itemsize != 8 || !format_is(b[i].format, types[i])) {
            PyErr_Format(PyExc_ValueError, "%s: need items of type '%c', got format '%s'",
                         names[i], types[i], b[i].format ? b[i].format : "B");
            return -1;
        }
    }
    return 0;
}

/* 0 if buffer `b` holds exactly `n` items, else set ValueError */
static int check_len(const Py_buffer *b, Py_ssize_t n, const char *name)
{
    if (b->len != n * 8) {
        PyErr_Format(PyExc_ValueError, "%s: need %zd items, got %zd", name, n, b->len / 8);
        return -1;
    }
    return 0;
}

/* 0 if `n_steps` is a valid step count, else set ValueError */
static int check_steps(Py_ssize_t n_steps)
{
    if (n_steps < 0) {
        PyErr_Format(PyExc_ValueError, "n_steps %zd is negative", n_steps);
        return -1;
    }
    return 0;
}

static void release_all(Py_buffer *b, int n)
{
    for (int i = 0; i < n; i++)
        PyBuffer_Release(&b[i]);
}

/* One chain_paths call, checked: S * S * 8 fits a Py_ssize_t, so S < 2^30,
 * and halves[0..depth) is the search's halving table. */
struct chain_job {
    const double *cum, *fvals, *hmat;
    const uint64_t *keys;
    double *out_s, *out_m;
    int64_t *out_last;
    Py_ssize_t S, start, n_steps, npaths;
    Py_ssize_t halves[64];
    int depth;
};

static void chain_scalar(const struct chain_job *job)
{
    const double *cum = job->cum;
    Py_ssize_t S = job->S, npaths = job->npaths;
    for (Py_ssize_t i0 = 0; i0 < npaths; i0 += LANES) {
        Py_ssize_t nl = npaths - i0 < LANES ? npaths - i0 : LANES;
        uint64_t ctr[LANES];
        Py_ssize_t state[LANES];
        double s[LANES], m[LANES];
        /* lanes past the last path walk a copy of its stream; their
         * results are never written */
        for (int l = 0; l < LANES; l++) {
            ctr[l] = job->keys[i0 + (l < nl ? l : nl - 1)];
            state[l] = job->start;
            s[l] = m[l] = 0.0;
        }
        for (Py_ssize_t k = 0; k < job->n_steps; k++) {
            double u[LANES];
            Py_ssize_t row[LANES], pos[LANES];
            for (int l = 0; l < LANES; l++) {
                u[l] = next_uniform(&ctr[l]);
                row[l] = pos[l] = state[l] * S;
            }
            for (int t = 0; t < job->depth; t++) {
                Py_ssize_t half = job->halves[t];
                for (int l = 0; l < LANES; l++)
                    pos[l] = cum[pos[l] + half] <= u[l] ? pos[l] + half : pos[l];
            }
            for (int l = 0; l < LANES; l++) {
                if (S > 1)
                    pos[l] += cum[pos[l]] <= u[l];
                m[l] += job->hmat[pos[l]];
                state[l] = pos[l] - row[l];
                s[l] += job->fvals[state[l]];
            }
        }
        for (int l = 0; l < nl; l++) {
            job->out_s[i0 + l] = s[l];
            job->out_m[i0 + l] = m[l];
            job->out_last[i0 + l] = state[l];
        }
    }
}

/* One torus_paths call, checked, with its table of 2 n_steps + 1 values
 * built; a path's step is stay if u < lazy, +1 if u < mid, else -1. */
struct torus_job {
    const double *table;
    const uint64_t *keys;
    double *out_s, *out_x;
    double alpha, lazy, mid, x0;
    Py_ssize_t n_steps, npaths;
};

static void torus_scalar(const struct torus_job *job)
{
    for (Py_ssize_t i = 0; i < job->npaths; i++) {
        uint64_t ctr = job->keys[i];
        Py_ssize_t j = job->n_steps;
        double s = 0.0;
        for (Py_ssize_t k = 0; k < job->n_steps; k++) {
            double u = next_uniform(&ctr);
            j += (u >= job->lazy) - 2 * (u >= job->mid);
            s += job->table[j];
        }
        job->out_s[i] = s;
        job->out_x[i] = lattice_point(job->x0, job->alpha, j - job->n_steps);
    }
}

static void (*run_chain)(const struct chain_job *) = chain_scalar;
static void (*run_torus)(const struct torus_job *) = torus_scalar;

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>

/* The AVX-512F/DQ walks; the header says why they match the scalar ones. */
#define AVX512 __attribute__((target("avx512f,avx512dq")))
#define VLANES 8
/* chain paths in flight: two registers of lanes hide the gathers' latency */
#define VPATHS (2 * VLANES)

/* advance 8 streams a draw each: next_uniform, lane by lane */
AVX512 static inline __m512d next_uniform8(__m512i *ctr)
{
    __m512i z = *ctr = _mm512_add_epi64(*ctr, _mm512_set1_epi64((long long)GOLDEN));
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 30));
    z = _mm512_mullo_epi64(z, _mm512_set1_epi64((long long)MIX_A));
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 27));
    z = _mm512_mullo_epi64(z, _mm512_set1_epi64((long long)MIX_B));
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
    return _mm512_mul_pd(_mm512_cvtepi64_pd(_mm512_srli_epi64(z, 11)),
                         _mm512_set1_pd(TWO_NEG53));
}

AVX512 static void chain_avx512(const struct chain_job *job)
{
    const __m512i vS = _mm512_set1_epi64(job->S), one = _mm512_set1_epi64(1);
    for (Py_ssize_t i0 = 0; i0 < job->npaths; i0 += VPATHS) {
        Py_ssize_t nl = job->npaths - i0 < VPATHS ? job->npaths - i0 : VPATHS;
        uint64_t key[VPATHS];
        int64_t last[VPATHS];
        double s_out[VPATHS], m_out[VPATHS];
        __m512i ctr[2], state[2];
        __m512d s[2], m[2];
        /* as in chain_scalar, spare lanes walk a copy of the last stream */
        for (int l = 0; l < VPATHS; l++)
            key[l] = job->keys[i0 + (l < nl ? l : nl - 1)];
        for (int g = 0; g < 2; g++) {
            ctr[g] = _mm512_loadu_si512(key + g * VLANES);
            state[g] = _mm512_set1_epi64(job->start);
            s[g] = m[g] = _mm512_setzero_pd();
        }
        for (Py_ssize_t k = 0; k < job->n_steps; k++) {
            __m512d u[2];
            __m512i row[2], pos[2];
            for (int g = 0; g < 2; g++) {
                u[g] = next_uniform8(&ctr[g]);
                /* state, S < 2^30: the 32-bit product is the whole of state * S */
                row[g] = pos[g] = _mm512_mul_epu32(state[g], vS);
            }
            for (int t = 0; t < job->depth; t++) {
                __m512i half = _mm512_set1_epi64(job->halves[t]);
                for (int g = 0; g < 2; g++) {
                    __m512d probe = _mm512_i64gather_pd(_mm512_add_epi64(pos[g], half),
                                                        job->cum, 8);
                    __mmask8 le = _mm512_cmp_pd_mask(probe, u[g], _CMP_LE_OQ);
                    pos[g] = _mm512_mask_add_epi64(pos[g], le, pos[g], half);
                }
            }
            for (int g = 0; g < 2; g++) {
                if (job->S > 1) {
                    __m512d probe = _mm512_i64gather_pd(pos[g], job->cum, 8);
                    __mmask8 le = _mm512_cmp_pd_mask(probe, u[g], _CMP_LE_OQ);
                    pos[g] = _mm512_mask_add_epi64(pos[g], le, pos[g], one);
                }
                m[g] = _mm512_add_pd(m[g], _mm512_i64gather_pd(pos[g], job->hmat, 8));
                state[g] = _mm512_sub_epi64(pos[g], row[g]);
                s[g] = _mm512_add_pd(s[g], _mm512_i64gather_pd(state[g], job->fvals, 8));
            }
        }
        for (int g = 0; g < 2; g++) {
            _mm512_storeu_pd(s_out + g * VLANES, s[g]);
            _mm512_storeu_pd(m_out + g * VLANES, m[g]);
            _mm512_storeu_si512(last + g * VLANES, state[g]);
        }
        for (int l = 0; l < nl; l++) {
            job->out_s[i0 + l] = s_out[l];
            job->out_m[i0 + l] = m_out[l];
            job->out_last[i0 + l] = last[l];
        }
    }
}

AVX512 static void torus_avx512(const struct torus_job *job)
{
    const __m512d lazy = _mm512_set1_pd(job->lazy), mid = _mm512_set1_pd(job->mid);
    const __m512i one = _mm512_set1_epi64(1), two = _mm512_set1_epi64(2);
    for (Py_ssize_t i0 = 0; i0 < job->npaths; i0 += VLANES) {
        Py_ssize_t nl = job->npaths - i0 < VLANES ? job->npaths - i0 : VLANES;
        uint64_t key[VLANES];
        int64_t j_out[VLANES];
        double s_out[VLANES];
        for (int l = 0; l < VLANES; l++)
            key[l] = job->keys[i0 + (l < nl ? l : nl - 1)];
        __m512i ctr = _mm512_loadu_si512(key), j = _mm512_set1_epi64(job->n_steps);
        __m512d s = _mm512_setzero_pd();
        for (Py_ssize_t k = 0; k < job->n_steps; k++) {
            __m512d u = next_uniform8(&ctr);
            j = _mm512_mask_add_epi64(j, _mm512_cmp_pd_mask(u, lazy, _CMP_GE_OQ), j, one);
            j = _mm512_mask_sub_epi64(j, _mm512_cmp_pd_mask(u, mid, _CMP_GE_OQ), j, two);
            s = _mm512_add_pd(s, _mm512_i64gather_pd(j, job->table, 8));
        }
        _mm512_storeu_pd(s_out, s);
        _mm512_storeu_si512(j_out, j);
        for (int l = 0; l < nl; l++) {
            job->out_s[i0 + l] = s_out[l];
            job->out_x[i0 + l] = lattice_point(job->x0, job->alpha, j_out[l] - job->n_steps);
        }
    }
}

/* the vector walks where the CPU has AVX-512F and DQ, else the scalar ones */
static const char *pick_lane_path(void)
{
    if (!__builtin_cpu_supports("avx512f") || !__builtin_cpu_supports("avx512dq"))
        return "scalar";
    run_chain = chain_avx512;
    run_torus = torus_avx512;
    return "avx512";
}
#else
static const char *pick_lane_path(void)
{
    return "scalar";
}
#endif

static PyObject *chain_paths(PyObject *self, PyObject *args)
{
    static const char *const names[] = {"cum_rows", "fvals", "hmat", "keys",
                                        "out_s", "out_m", "out_last"};
    PyObject *o[7];
    Py_buffer b[7] = {{0}};
    Py_ssize_t start, n_steps;
    if (!PyArg_ParseTuple(args, "OOOnnOOOO:chain_paths", &o[0], &o[1], &o[2], &start,
                          &n_steps, &o[3], &o[4], &o[5], &o[6]))
        return NULL;
    int ok = get_arrays(o, b, "dddQddq", names, 4, 7) == 0;
    Py_ssize_t S = b[1].len / 8, npaths = b[3].len / 8;
    if (ok && (start < 0 || start >= S)) {
        PyErr_Format(PyExc_ValueError, "start %zd outside [0, %zd)", start, S);
        ok = 0;
    }
    else if (ok && S > PY_SSIZE_T_MAX / 8 / S) {  /* S * S * 8 would overflow */
        PyErr_Format(PyExc_ValueError, "fvals: %zd states is too many", S);
        ok = 0;
    }
    ok = ok && check_len(&b[0], S * S, names[0]) == 0 && check_len(&b[2], S * S, names[2]) == 0
        && check_len(&b[4], npaths, names[4]) == 0 && check_len(&b[5], npaths, names[5]) == 0
        && check_len(&b[6], npaths, names[6]) == 0 && check_steps(n_steps) == 0;
    if (ok) {
        struct chain_job job = {.cum = b[0].buf, .fvals = b[1].buf, .hmat = b[2].buf,
                                .keys = b[3].buf, .out_s = b[4].buf, .out_m = b[5].buf,
                                .out_last = b[6].buf, .S = S, .start = start,
                                .n_steps = n_steps, .npaths = npaths};
        /* S * S * 8 fits a Py_ssize_t, so there are fewer than 64 halvings */
        for (Py_ssize_t len = S - 1; len > 1; len -= job.halves[job.depth++])
            job.halves[job.depth] = len / 2;
        Py_BEGIN_ALLOW_THREADS
        run_chain(&job);
        Py_END_ALLOW_THREADS
    }
    release_all(b, 7);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

/* The table is built in _kernels_py's operation order, so both backends
 * agree bit for bit.  gcc may merge the cos/sin pair into one sincos call;
 * the backend-identity tests check that it rounds as cos and sin do. */
static PyObject *torus_paths(PyObject *self, PyObject *args)
{
    static const char *const names[] = {"omegas", "ccos", "csin", "keys", "out_s", "out_x"};
    double alpha, lazy, x0;
    Py_ssize_t n_steps;
    PyObject *o[6];
    Py_buffer b[6] = {{0}};
    if (!PyArg_ParseTuple(args, "ddOOOdnOOO:torus_paths", &alpha, &lazy, &o[0], &o[1],
                          &o[2], &x0, &n_steps, &o[3], &o[4], &o[5]))
        return NULL;
    int ok = get_arrays(o, b, "dddQdd", names, 4, 6) == 0;
    Py_ssize_t nfreq = b[0].len / 8, npaths = b[3].len / 8;
    ok = ok && check_len(&b[1], nfreq, names[1]) == 0 && check_len(&b[2], nfreq, names[2]) == 0
        && check_len(&b[4], npaths, names[4]) == 0 && check_len(&b[5], npaths, names[5]) == 0
        && check_steps(n_steps) == 0;
    if (ok && n_steps > (PY_SSIZE_T_MAX / 8 - 1) / 2) {  /* (2n + 1) * 8 would overflow */
        PyErr_Format(PyExc_ValueError, "n_steps: a table of 2 * %zd + 1 values is too large",
                     n_steps);
        ok = 0;
    }
    else if (ok && !(lazy >= 0.0 && lazy < 1.0)) {
        PyErr_Format(PyExc_ValueError, "lazy %R outside [0, 1)", PyTuple_GET_ITEM(args, 1));
        ok = 0;
    }
    double *table = NULL;
    if (ok && (table = PyMem_RawMalloc((2 * n_steps + 1) * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        ok = 0;
    }
    if (ok) {
        const double *omegas = b[0].buf, *ccos = b[1].buf, *csin = b[2].buf;
        struct torus_job job = {.table = table, .keys = b[3].buf, .out_s = b[4].buf,
                                .out_x = b[5].buf, .alpha = alpha, .lazy = lazy,
                                .mid = lazy + 0.5 * (1.0 - lazy), .x0 = x0,
                                .n_steps = n_steps, .npaths = npaths};
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t j = 0; j <= 2 * n_steps; j++) {
            double x = lattice_point(x0, alpha, j - n_steps), fval = 0.0;
            for (Py_ssize_t k = 0; k < nfreq; k++)
                fval += ccos[k] * cos(x * omegas[k]) + csin[k] * sin(x * omegas[k]);
            table[j] = fval;
        }
        run_torus(&job);
        Py_END_ALLOW_THREADS
    }
    PyMem_RawFree(table);
    release_all(b, 6);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

/* Width 2^d + 1 of a dyadic table row: d, or -1 with ValueError set. */
static int dyadic_level(Py_ssize_t width)
{
    Py_ssize_t span = width - 1;
    if (span < 1 || (span & (span - 1)) != 0) {
        PyErr_Format(PyExc_ValueError, "table: need 2^d + 1 columns, got %zd", width);
        return -1;
    }
    int d = 0;
    while (((Py_ssize_t)1 << d) < span)
        d++;
    return d;
}

/* Rows per block of dyadic_moments: a block is transposed into a small
 * column-major buffer, so the loops below run across its rows, which are
 * independent, and not along one row's chain of dependent additions.  Each
 * row's values still meet the same operations in the same order. */
#define DYADIC_BLOCK_ROWS 32
#define DYADIC_BLOCK_ITEMS 4096

static PyObject *dyadic_moments(PyObject *self, PyObject *args)
{
    static const char *const names[] = {"table", "out_sup", "out_acc"};
    PyObject *o[3], *ar;
    Py_buffer b[3] = {{0}};
    double a = 0.0;
    if (!PyArg_ParseTuple(args, "OOOO:dyadic_moments", &o[0], &ar, &o[1], &o[2]))
        return NULL;
    if (ar != Py_None && (a = PyFloat_AsDouble(ar)) == -1.0 && PyErr_Occurred())
        return NULL;
    int recurse = ar != Py_None;
    int ok = get_arrays(o, b, "ddd", names, 1, 3) == 0;
    if (ok && b[0].ndim != 2) {
        PyErr_Format(PyExc_ValueError, "table: need 2 dimensions, got %d", b[0].ndim);
        ok = 0;
    }
    Py_ssize_t rows = ok ? b[0].shape[0] : 0, width = ok ? b[0].shape[1] : 0;
    int d = ok ? dyadic_level(width) : -1;
    ok = ok && d >= 0 && check_len(&b[1], rows, names[1]) == 0
        && check_len(&b[2], (d + 1) * rows, names[2]) == 0;
    /* at most DYADIC_BLOCK_ITEMS values per block, or one row if it is longer */
    Py_ssize_t nb = ok ? DYADIC_BLOCK_ITEMS / width : 0;
    nb = nb < 1 ? 1 : nb > DYADIC_BLOCK_ROWS ? DYADIC_BLOCK_ROWS : nb;
    double *t = NULL;       /* t[k * nb + j]: T_k of row j of the block */
    if (ok && (t = PyMem_RawMalloc(width * nb * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        ok = 0;
    }
    if (ok) {
        const double *table = b[0].buf;
        double *out_sup = b[1].buf, *out_acc = b[2].buf;
        double hi[DYADIC_BLOCK_ROWS], lo[DYADIC_BLOCK_ROWS], acc[DYADIC_BLOCK_ROWS];
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i0 = 0; i0 < rows; i0 += nb) {
            Py_ssize_t n = rows - i0 < nb ? rows - i0 : nb;
            const double *z = table + i0 * width;
            for (Py_ssize_t j = 0; j < n; j++)
                for (Py_ssize_t k = 0; k < width; k++)
                    t[k * nb + j] = z[j * width + k];
            if (recurse)
                for (Py_ssize_t k = 1; k < width; k++)
                    for (Py_ssize_t j = 0; j < n; j++)
                        t[k * nb + j] += a * t[(k - 1) * nb + j];
            for (Py_ssize_t j = 0; j < n; j++)
                hi[j] = lo[j] = t[nb + j];
            for (Py_ssize_t k = 2; k < width; k++)
                for (Py_ssize_t j = 0; j < n; j++) {
                    double v = t[k * nb + j];
                    hi[j] = v > hi[j] ? v : hi[j];
                    lo[j] = v < lo[j] ? v : lo[j];
                }
            /* rounded subtraction is monotone, so this is max_k |T_k - T_0| */
            for (Py_ssize_t j = 0; j < n; j++) {
                double up = hi[j] - t[j], down = t[j] - lo[j];
                out_sup[i0 + j] = up >= down ? up : down;
            }
            for (int r = 0; r <= d; r++) {
                Py_ssize_t step = (Py_ssize_t)1 << r;
                for (Py_ssize_t j = 0; j < n; j++)
                    acc[j] = 0.0;
                for (Py_ssize_t k = step; k < width; k += step)
                    for (Py_ssize_t j = 0; j < n; j++) {
                        double inc = t[k * nb + j] - t[(k - step) * nb + j];
                        acc[j] += inc * inc;
                    }
                for (Py_ssize_t j = 0; j < n; j++)
                    out_acc[r * rows + i0 + j] = acc[j];
            }
        }
        Py_END_ALLOW_THREADS
    }
    PyMem_RawFree(t);
    release_all(b, 3);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"chain_paths", chain_paths, METH_VARARGS,
     "chain_paths(cum_rows, fvals, hmat, start, n_steps, keys, out_s, out_m, out_last)\n"
     "Walk len(keys) paths of n_steps transitions from `start`."},
    {"torus_paths", torus_paths, METH_VARARGS,
     "torus_paths(alpha, lazy, omegas, ccos, csin, x0, n_steps, keys, out_s, out_x)\n"
     "Lazy +-alpha rotation walk on [0, 1) accumulating the observable sum.\n\n"
     "Tabulates f at x0 + (j - n_steps) alpha mod 1 for j = 0..2 n_steps, a\n"
     "(2 n_steps + 1) * 8-byte table per call, then walks the lattice index j\n"
     "from n_steps by lazy +-1 steps, adding table[j] per step."},
    {"dyadic_moments", dyadic_moments, METH_VARARGS,
     "dyadic_moments(table, ar, out_sup, out_acc)\n"
     "Per-row sup_k |T_k - T_0| and per-scale squared-increment sums.\n\n"
     "`table` is (rows, 2^d + 1); T is its rows if `ar` is None, else\n"
     "T_0 = z_0, T_k = z_k + ar T_{k-1} over the rows z.  out_acc[r * rows + i]\n"
     "gets sum_i' (T_{(i'+1) 2^r} - T_{i' 2^r})^2 of row i for r = 0..d."},
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *module)
{
    if (PyModule_AddStringConstant(module, "BACKEND_NAME", "compiled") < 0)
        return -1;
    return PyModule_AddStringConstant(module, "LANE_PATH", pick_lane_path());
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, exec_module},
    {0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled kernels; the same loops, in the same order, as _kernels_py.",
    0, methods, slots, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModuleDef_Init(&module_def);
}
