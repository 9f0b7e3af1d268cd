/* Compiled kernels; the same loops, in the same order, as _kernels_py.
 *
 * Path kernels: per path, a splitmix64 counter stream keyed off the path
 * index drives inverse-CDF transitions on precomputed cumulative kernel
 * rows, or lazy +-1 steps of a lattice index into a table of the torus
 * observable.  The torus table takes its cos/sin from the C library, as
 * math.cos/math.sin do in the fallback.
 *
 * The walks advance a block of paths in lockstep, each with its own
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
 * drawn_dyadic_moments: one pass over a dyadic family that no table holds,
 * row i the values T_0 .. T_{2^d} of one path.  Per row it takes
 * sup = sup_k |T_k - T_0|, which it writes, and, for each scale r = 0..d,
 * acc_r = the sum over i of (T_{(i+1) 2^r} - T_{i 2^r})^2 added in
 * increasing i, as the fallback's table reduction dyadic_moments does
 * (which has no C twin: no workload reduces a table large enough to need
 * one).  It returns d + 3 sums over the rows: each scale's acc_r, then
 * sup^2, then (sup^2 - mean)^2 with mean the sup^2 sum / rows, taken in a
 * second sweep over the written sups.  Each sum has nb lanes, nb the rows
 * of a block: row i adds into lane i mod nb, block after block, and the
 * lanes are then added in order from 0.0.  The pass takes the rows in
 * blocks held column-major.  Row i's 2^d + 1 values z_k are drawn from
 * counter stream i under the family's row_seed, as the path kernels draw,
 * straight into the block: in column order, after the factor law's two
 * draws.  A block forms its rows' starting counters in its lanes,
 * mix64(mix64(row_seed + GOLDEN) ^ mix64((i + 1) GOLDEN)) as
 * rng.stream_keys(row_seed, rows) gives them, so no array of keys exists.
 * With u, u' a row's next two uniforms:
 *   0 bell walk     z = scale ((u + u') - 1),    T the partial sums of z;
 *   1 sign walk     z = +1 if u >= 1/2 else -1,  T the partial sums of z;
 *   2 AR(1)         z = scale (2u - 1),          T_k = z_k + a T_{k-1};
 *   3 factor        F = scale ((u + u') - 1) once per row,
 *                   T_k = F profile[k] + 0.1 (2u - 1);
 *   4 drifting sum  z = u u - drift,             T the partial sums of z.
 * Only law 3 reads `profile`, of 2^d + 1 entries (none for the others).
 * The partial sums are the recursion with a = 1.0: z_k + 1.0 T_{k-1} is
 * z_k + T_{k-1} exactly.  The spec is checked before anything is drawn:
 * row_seed an integer (any, taken mod 2^64), 0 <= law < 5, 0 <= d <= 20,
 * |a| <= 1, and scale, drift and the profile finite and at most 2^32 in
 * magnitude, so no value, sum or square overflows and no NaN reaches the
 * max/min, which numpy orders otherwise.
 *
 * The two walks and the drawn pass come in two lane sets from one source.
 * Their bodies, chain_lanes, torus_lanes and dyadic_lanes (with draw_block
 * and reduce_block), are always inlined, and their loops run across
 * independent lanes: a block's paths or rows.
 * Each is compiled twice, plainly and under the AVX-512F/DQ target, where
 * the compiler widens the lane loops to 8 lanes a zmm register and reads
 * the walks' tables by gathers.  A walk's block is LANES = 8 paths in the
 * plain build and WIDE_LANES = 32 under AVX-512.
 * Module exec picks the AVX-512 set once, when the CPU reports both
 * AVX-512F and AVX-512DQ, and names the choice in LANE_PATH ("avx512" or
 * "scalar"); elsewhere the plain set runs.  The two match bit for bit
 * however the compiler shapes the loops: nothing crosses between lanes, a
 * spare lane's results are never written, and each lane's values meet the
 * same integer steps, compares and +, - and * in the same order, with no
 * fused multiply-add.  The draw is exact in both: z >> 11 < 2^53 converts
 * to double exactly and the scale by 2^-53 is exact.  A max or min that
 * the compiler turns into (v)maxpd/(v)minpd keeps v > hi ? v : hi exactly.
 *
 * The lanes are picked by __builtin_cpu_supports alone, so a build with
 * -D'__builtin_cpu_supports(x)=0' takes the scalar lanes on any CPU; the
 * tests build that copy beside the plain one, and so run both lane sets of
 * all three kernels on an AVX-512 host.  SOURCE_DIGEST, the sha256 of this
 * file that setup.py passes in, names the source a build came from.
 *
 * Every kernel is bit-for-bit identical to the numpy fallback.  Build with
 * -ffp-contract=off so no fused multiply-add changes a rounding.  The draws
 * are bitwise for the reasons the two lane sets match (above): exact integer
 * steps, an exact conversion and scale, then only +, - and * of doubles in
 * the fixed order written above, and no libm call.  (int)(2u) is 1 exactly
 * when u >= 1/2, as the fallback's copysign(1, u - 1/2) is, u - 1/2 being
 * exact.
 *
 * Arrays arrive through the buffer protocol and must be C-contiguous, of
 * float64 for values, uint64 for keys and int64 for last states; the out
 * slots must be writable.  Every type, length, the start state and the row
 * seed are checked before the loops run, so a rejected call writes no slot,
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

/* Paths a walk advances in lockstep, in the plain build and under
 * AVX-512: independent lanes overlap their dependent step chains (draw,
 * table loads, compare, next state).  At 32, four zmm registers of lanes,
 * gcc's loop vectorizer rather than its SLP pass takes the lane loops, and
 * only the loop vectorizer emits gathers. */
#define LANES 8
#define WIDE_LANES 32

/* inlined into every caller, so a body compiled under a target attribute
 * gets that target's instructions */
#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE static inline
#endif

/* the splitmix64 finalizer */
ALWAYS_INLINE uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * MIX_A;
    z = (z ^ (z >> 27)) * MIX_B;
    return z ^ (z >> 31);
}

/* advance one stream a draw and return its uniform in [0, 1) */
ALWAYS_INLINE double next_uniform(uint64_t *ctr)
{
    return (double)(mix64(*ctr += GOLDEN) >> 11) * TWO_NEG53;
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

/* Advance the job's paths nb at a time, in lockstep: each of a block's
 * lanes has its own counter, state and sums, and every loop of a step runs
 * across the lanes, so the compiler can widen it.  Lanes past the last path
 * walk a copy of its stream and their results are never written, so each
 * lane loop has the constant trip count nb. */
ALWAYS_INLINE void chain_lanes(const struct chain_job *job, const int nb)
{
    const double *cum = job->cum, *fvals = job->fvals, *hmat = job->hmat;
    const Py_ssize_t S = job->S;
    for (Py_ssize_t i0 = 0; i0 < job->npaths; i0 += nb) {
        Py_ssize_t nl = job->npaths - i0 < nb ? job->npaths - i0 : nb;
        uint64_t ctr[WIDE_LANES];
        Py_ssize_t state[WIDE_LANES];
        double s[WIDE_LANES], m[WIDE_LANES];
        for (int l = 0; l < nb; l++) {
            ctr[l] = job->keys[i0 + (l < nl ? l : nl - 1)];
            state[l] = job->start;
            s[l] = m[l] = 0.0;
        }
        for (Py_ssize_t k = 0; k < job->n_steps; k++) {
            double u[WIDE_LANES];
            Py_ssize_t row[WIDE_LANES], pos[WIDE_LANES];
            for (int l = 0; l < nb; l++) {
                u[l] = next_uniform(&ctr[l]);
                row[l] = pos[l] = state[l] * S;
            }
            for (int t = 0; t < job->depth; t++) {
                Py_ssize_t half = job->halves[t];
                for (int l = 0; l < nb; l++)
                    pos[l] = cum[pos[l] + half] <= u[l] ? pos[l] + half : pos[l];
            }
            if (S > 1)
                for (int l = 0; l < nb; l++)
                    pos[l] += cum[pos[l]] <= u[l];
            for (int l = 0; l < nb; l++) {
                m[l] += hmat[pos[l]];
                state[l] = pos[l] - row[l];
                s[l] += fvals[state[l]];
            }
        }
        for (int l = 0; l < nl; l++) {
            job->out_s[i0 + l] = s[l];
            job->out_m[i0 + l] = m[l];
            job->out_last[i0 + l] = state[l];
        }
    }
}

/* One torus_paths call, checked, with ftable, its table of f at the
 * 2 n_steps + 1 lattice points, built; a path's step is stay if u < lazy,
 * +1 if u < mid, else -1. */
struct torus_job {
    const double *ftable;
    const uint64_t *keys;
    double *out_s, *out_x;
    double alpha, lazy, mid, x0;
    Py_ssize_t n_steps, npaths;
};

/* Advance the job's paths nb at a time, in lockstep, as chain_lanes does. */
ALWAYS_INLINE void torus_lanes(const struct torus_job *job, const int nb)
{
    const double *ftable = job->ftable, lazy = job->lazy, mid = job->mid;
    for (Py_ssize_t i0 = 0; i0 < job->npaths; i0 += nb) {
        Py_ssize_t nl = job->npaths - i0 < nb ? job->npaths - i0 : nb;
        uint64_t ctr[WIDE_LANES];
        Py_ssize_t j[WIDE_LANES];
        double s[WIDE_LANES];
        for (int l = 0; l < nb; l++) {
            ctr[l] = job->keys[i0 + (l < nl ? l : nl - 1)];
            j[l] = job->n_steps;
            s[l] = 0.0;
        }
        for (Py_ssize_t k = 0; k < job->n_steps; k++) {
            /* draws, then j += [u >= lazy] - 2 [u >= mid] as two selects,
             * which gcc makes masked adds: as one loop with one int
             * expression, whose compares gcc widened through 32-bit lanes,
             * the AVX-512 walk ran about 15 % slower */
            double u[WIDE_LANES];
            for (int l = 0; l < nb; l++)
                u[l] = next_uniform(&ctr[l]);
            for (int l = 0; l < nb; l++) {
                j[l] = u[l] >= lazy ? j[l] + 1 : j[l];
                j[l] = u[l] >= mid ? j[l] - 2 : j[l];
                s[l] += ftable[j[l]];
            }
        }
        for (int l = 0; l < nl; l++) {
            job->out_s[i0 + l] = s[l];
            job->out_x[i0 + l] = lattice_point(job->x0, job->alpha, j[l] - job->n_steps);
        }
    }
}

/* Rows per block of a dyadic pass: a block is held column-major in a small
 * buffer, so the loops below run across its rows, which are independent,
 * and not along one row's chain of dependent additions.  Each row's values
 * still meet the same operations in the same order. */
#define DYADIC_BLOCK_ROWS 32
#define DYADIC_BLOCK_ITEMS 4096

/* the drawn families' laws; the header defines them */
enum { LAW_BELL, LAW_SIGN, LAW_AR, LAW_FACTOR, LAW_DRIFT, LAW_COUNT };
#define DRAWN_MAX_D 20
/* no drawn value, sum or square can overflow below this parameter bound */
#define PARAM_MAX 4294967296.0

/* One dyadic pass, checked: rows z of width 2^d + 1 drawn from the streams
 * under `row_seed` by `law`, then T_k = z_k + a T_{k-1} when `recurse`; nb
 * rows to a block.  lanes[k * nb + j] is lane j of sum k, for the d + 3
 * sums the header lists. */
struct dyadic_job {
    const double *profile;
    double *out_sup, *lanes;
    uint64_t row_seed;
    double a, scale, drift;
    Py_ssize_t rows, width, nb;
    int d, recurse, law;
};

/* t[k * nb + j] = z_k of row i0 + j, for the block's n <= nb rows: each
 * row starts its own stream, the header's counter of row i0 + j, and
 * advances it, the factor's two draws first, then each value's one or two
 * draws in column order */
ALWAYS_INLINE void draw_block(const struct dyadic_job *job, double *t, Py_ssize_t i0,
                              const Py_ssize_t nb, const Py_ssize_t n)
{
    uint64_t ctr[DYADIC_BLOCK_ROWS];
    double factor[DYADIC_BLOCK_ROWS];
    const double scale = job->scale, drift = job->drift;
    const uint64_t seed_mix = mix64(job->row_seed + GOLDEN);
    for (Py_ssize_t j = 0; j < n; j++)
        ctr[j] = mix64(seed_mix ^ mix64((uint64_t)(i0 + j + 1) * GOLDEN));
    if (job->law == LAW_FACTOR)
        for (Py_ssize_t j = 0; j < n; j++) {
            double u = next_uniform(&ctr[j]);
            double v = next_uniform(&ctr[j]);
            factor[j] = scale * ((u + v) - 1.0);
        }
    for (Py_ssize_t k = 0; k < job->width; k++) {
        double *col = t + k * nb;
        switch (job->law) {
        case LAW_BELL:
            for (Py_ssize_t j = 0; j < n; j++) {
                double u = next_uniform(&ctr[j]);
                double v = next_uniform(&ctr[j]);
                col[j] = scale * ((u + v) - 1.0);
            }
            break;
        case LAW_SIGN:      /* (int)(2u) is [u >= 1/2], with no branch to mispredict */
            for (Py_ssize_t j = 0; j < n; j++)
                col[j] = (double)(2 * (int)(2.0 * next_uniform(&ctr[j])) - 1);
            break;
        case LAW_AR:
            for (Py_ssize_t j = 0; j < n; j++)
                col[j] = scale * (2.0 * next_uniform(&ctr[j]) - 1.0);
            break;
        case LAW_FACTOR:
            for (Py_ssize_t j = 0; j < n; j++)
                col[j] = factor[j] * job->profile[k] + 0.1 * (2.0 * next_uniform(&ctr[j]) - 1.0);
            break;
        default:
            for (Py_ssize_t j = 0; j < n; j++) {
                double u = next_uniform(&ctr[j]);
                col[j] = u * u - drift;
            }
        }
    }
}

/* The block reduction of the dyadic pass: T from the block's z if `recurse`,
 * then per row sup_k |T_k - T_0|, written, and each scale's sum of squared
 * increments; row j of the block adds these into lane j of their sums. */
ALWAYS_INLINE void reduce_block(const struct dyadic_job *job, double *t, Py_ssize_t i0,
                                const Py_ssize_t nb, const Py_ssize_t n)
{
    const Py_ssize_t width = job->width;
    double hi[DYADIC_BLOCK_ROWS], lo[DYADIC_BLOCK_ROWS], acc[DYADIC_BLOCK_ROWS];
    double *sup_lanes = job->lanes + (job->d + 1) * nb;
    if (job->recurse)
        for (Py_ssize_t k = 1; k < width; k++)
            for (Py_ssize_t j = 0; j < n; j++)
                t[k * nb + j] += job->a * t[(k - 1) * nb + j];
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
        double sup = up >= down ? up : down;
        job->out_sup[i0 + j] = sup;
        sup_lanes[j] += sup * sup;
    }
    for (int r = 0; r <= job->d; r++) {
        Py_ssize_t step = (Py_ssize_t)1 << r;
        for (Py_ssize_t j = 0; j < n; j++)
            acc[j] = 0.0;
        for (Py_ssize_t k = step; k < width; k += step)
            for (Py_ssize_t j = 0; j < n; j++) {
                double inc = t[k * nb + j] - t[(k - step) * nb + j];
                acc[j] += inc * inc;
            }
        for (Py_ssize_t j = 0; j < n; j++)
            job->lanes[r * nb + j] += acc[j];
    }
}

/* The whole dyadic pass: the blocks drawn and reduced in row order, then
 * the sweep over the written sups that adds (sup^2 - mean)^2 into the last
 * sum's lanes, once the sup^2 lanes give the mean.  A full block of
 * DYADIC_BLOCK_ROWS rows, every block but the last at d <= 6, runs the
 * block bodies with nb = n = 32 known to the compiler, which then drops
 * their remainder loops: on an AVX-512 Xeon under gcc 12.2, verify's
 * families ran 10-18 % faster so. */
ALWAYS_INLINE void dyadic_lanes(const struct dyadic_job *job, double *t)
{
    const Py_ssize_t nb = job->nb, rows = job->rows;
    double *sup_lanes = job->lanes + (job->d + 1) * nb, *dev_lanes = sup_lanes + nb;
    for (Py_ssize_t i0 = 0; i0 < rows; i0 += nb) {
        Py_ssize_t n = rows - i0 < nb ? rows - i0 : nb;
        if (n == DYADIC_BLOCK_ROWS) {
            draw_block(job, t, i0, DYADIC_BLOCK_ROWS, DYADIC_BLOCK_ROWS);
            reduce_block(job, t, i0, DYADIC_BLOCK_ROWS, DYADIC_BLOCK_ROWS);
        }
        else {
            draw_block(job, t, i0, nb, n);
            reduce_block(job, t, i0, nb, n);
        }
    }
    double sup_sq = 0.0;
    for (Py_ssize_t j = 0; j < nb; j++)
        sup_sq += sup_lanes[j];
    const double mean = rows > 0 ? sup_sq / (double)rows : 0.0;
    for (Py_ssize_t i0 = 0; i0 < rows; i0 += nb) {
        Py_ssize_t n = rows - i0 < nb ? rows - i0 : nb;
        for (Py_ssize_t j = 0; j < n; j++) {
            double s = job->out_sup[i0 + j], x = s * s - mean;
            dev_lanes[j] += x * x;
        }
    }
}

/* Each kernel on the plain lanes.  The bodies are inlined, so each
 * *_avx512 below is the same code compiled for AVX-512F/DQ. */
static void chain_scalar(const struct chain_job *job) { chain_lanes(job, LANES); }
static void torus_scalar(const struct torus_job *job) { torus_lanes(job, LANES); }
static void dyadic_scalar(const struct dyadic_job *job, double *t) { dyadic_lanes(job, t); }

static void (*run_chain)(const struct chain_job *) = chain_scalar;
static void (*run_torus)(const struct torus_job *) = torus_scalar;
static void (*run_dyadic)(const struct dyadic_job *, double *) = dyadic_scalar;

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/* tune=intel: under gcc's generic tuning the vectorizer emits no gathers
 * for the walks' table reads, and the chain at S = 2 took 2.4-2.8 ns a step
 * against 1.1-1.8.  clang names its tunings otherwise, so it gets the plain
 * target. */
#if defined(__clang__)
#define AVX512 __attribute__((target("avx512f,avx512dq")))
#else
#define AVX512 __attribute__((target("avx512f,avx512dq,tune=intel")))
#endif

AVX512 static void chain_avx512(const struct chain_job *job) { chain_lanes(job, WIDE_LANES); }
AVX512 static void torus_avx512(const struct torus_job *job) { torus_lanes(job, WIDE_LANES); }

/* dyadic_scalar's body compiled for AVX-512F/DQ: its row loops widen to
 * 8 rows a zmm register (vpmullq counters and draws, 8-wide reductions) */
AVX512 static void dyadic_avx512(const struct dyadic_job *job, double *t)
{
    dyadic_lanes(job, t);
}

/* the vector kernels where the CPU has AVX-512F and DQ, else the scalar ones */
static const char *pick_lane_path(void)
{
    if (!__builtin_cpu_supports("avx512f") || !__builtin_cpu_supports("avx512dq"))
        return "scalar";
    run_chain = chain_avx512;
    run_torus = torus_avx512;
    run_dyadic = dyadic_avx512;
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
        struct torus_job job = {.ftable = table, .keys = b[3].buf, .out_s = b[4].buf,
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

/* Run a checked job without the GIL and write its d + 3 sums to `sums`,
 * each sum's lanes added in order; 0, or -1 with MemoryError set. */
static int dyadic_pass(struct dyadic_job *job, double *sums)
{
    /* at most DYADIC_BLOCK_ITEMS values per block, or one row if it is longer */
    Py_ssize_t nb = DYADIC_BLOCK_ITEMS / job->width;
    job->nb = nb = nb < 1 ? 1 : nb > DYADIC_BLOCK_ROWS ? DYADIC_BLOCK_ROWS : nb;
    const int nsums = job->d + 3;
    double *t = PyMem_RawMalloc(job->width * nb * sizeof(double));
    double *lanes = PyMem_RawCalloc(nsums * nb, sizeof(double));
    if (t == NULL || lanes == NULL) {
        PyMem_RawFree(t);
        PyMem_RawFree(lanes);
        PyErr_NoMemory();
        return -1;
    }
    job->lanes = lanes;
    Py_BEGIN_ALLOW_THREADS
    run_dyadic(job, t);
    for (int k = 0; k < nsums; k++) {
        sums[k] = 0.0;
        for (Py_ssize_t j = 0; j < nb; j++)
            sums[k] += lanes[k * nb + j];
    }
    Py_END_ALLOW_THREADS
    PyMem_RawFree(t);
    PyMem_RawFree(lanes);
    return 0;
}

/* 0 if |value| <= bound (so not NaN), else set ValueError showing `arg`,
 * the object that gave `value`, and the bound as `bound_text` */
static int check_param(double value, double bound, PyObject *arg, const char *name,
                       const char *bound_text)
{
    if (!(fabs(value) <= bound)) {
        PyErr_Format(PyExc_ValueError, "%s %R is not finite with magnitude at most %s", name,
                     arg, bound_text);
        return -1;
    }
    return 0;
}

static PyObject *drawn_dyadic_moments(PyObject *self, PyObject *args)
{
    static const char *const names[] = {"profile", "out_sup", "out_acc"};
    PyObject *o[3], *seed;
    Py_buffer b[3] = {{0}};
    int law, d;
    double scale, a, drift;
    if (!PyArg_ParseTuple(args, "iidddOOOO:drawn_dyadic_moments", &law, &d, &scale, &a,
                          &drift, &o[0], &seed, &o[1], &o[2]))
        return NULL;
    /* any integer, reduced mod 2^64 as rng.stream_keys reduces it */
    if ((seed = PyNumber_Index(seed)) == NULL)
        return NULL;
    uint64_t row_seed = PyLong_AsUnsignedLongLongMask(seed);
    Py_DECREF(seed);
    int ok = 1;
    if (law < 0 || law >= LAW_COUNT) {
        PyErr_Format(PyExc_ValueError, "law %d outside [0, %d)", law, LAW_COUNT);
        ok = 0;
    }
    else if (d < 0 || d > DRAWN_MAX_D) {
        PyErr_Format(PyExc_ValueError, "d %d outside [0, %d]", d, DRAWN_MAX_D);
        ok = 0;
    }
    ok = ok && check_param(scale, PARAM_MAX, PyTuple_GET_ITEM(args, 2), "scale", "2^32") == 0
        && check_param(a, 1.0, PyTuple_GET_ITEM(args, 3), "a", "1") == 0
        && check_param(drift, PARAM_MAX, PyTuple_GET_ITEM(args, 4), "drift", "2^32") == 0
        && get_arrays(o, b, "ddd", names, 1, 3) == 0;
    Py_ssize_t width = ok ? ((Py_ssize_t)1 << d) + 1 : 0, rows = b[1].len / 8;
    ok = ok && check_len(&b[0], law == LAW_FACTOR ? width : 0, names[0]) == 0;
    const double *profile = b[0].buf;
    for (Py_ssize_t k = 0; ok && k < b[0].len / 8; k++)
        if (!(fabs(profile[k]) <= PARAM_MAX)) {
            PyErr_Format(PyExc_ValueError,
                         "profile: entries must be finite with magnitude at most 2^32");
            ok = 0;
        }
    ok = ok && check_len(&b[2], d + 3, names[2]) == 0;
    if (ok) {
        struct dyadic_job job = {.profile = profile, .row_seed = row_seed, .out_sup = b[1].buf,
                                 .a = law == LAW_AR ? a : 1.0, .scale = scale, .drift = drift,
                                 .rows = rows, .width = width, .d = d,
                                 .recurse = law != LAW_FACTOR, .law = law};
        ok = dyadic_pass(&job, b[2].buf) == 0;
    }
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
    {"drawn_dyadic_moments", drawn_dyadic_moments, METH_VARARGS,
     "drawn_dyadic_moments(law, d, scale, a, drift, profile, row_seed, out_sup, out_acc)\n"
     "The per-row sups of a family of len(out_sup) rows of 2^d + 1 values, row i\n"
     "drawn by `law` from counter stream i under row_seed, and in out_acc its d + 3\n"
     "moment sums; no table of it exists."},
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *module)
{
    if (PyModule_AddStringConstant(module, "BACKEND_NAME", "compiled") < 0
        || PyModule_AddStringConstant(module, "SOURCE_DIGEST", SOURCE_DIGEST) < 0)
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
