/* C-extension entry points for the compiled Tersoff backend.
 *
 * Built at runtime by repro/backends/cext.py with
 *   cc -O3 -fPIC -shared -pthread -fno-fast-math -ffp-contract=off
 *      -fno-math-errno [-march=native]
 * and loaded through ctypes.  One pass per atom over its CSR neighbor
 * row, split the way the paper splits every scheme (Sec. IV-B): the
 * scalar *filter* below — minimum-image geometry, the non-finite and
 * coincident-atom guards and the Sec. IV-D max-cutoff short list, in
 * double in every precision mode — feeds the REAL-templated
 * *computational part* in _tersoff_impl.h (Alg. 3 as scheme 1a: the
 * pairs of an atom in VLANES vector lanes, written against _vec.h and
 * _vmath.h; the atoms in chunks of rows claimed by the threads of
 * _pool.c), instantiated for double (Opt-D) and float (Opt-S/M compute
 * side).  Neither the -march flag nor the thread count decides a result
 * bit: the first only chooses what the lanes are lowered to, the second
 * only who computes which chunk.
 */

#include <math.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#include "_common.h"
#include "_pool.h"

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)

/* lanes of the computational part: the pairs (i, j) of one atom, four to
 * a vector — a property of the algorithm (a diamond row has four), the
 * same for both precisions and every ISA */
#define VLANES 4

/* np.pi/2 and np.pi/4 to the double ULP */
#define HALF_PI_D 1.5707963267948966
#define QUARTER_PI_D 0.7853981633974483

/* accumulator type: f64 in every precision mode (zeta, per-atom energy,
 * force and virial sums), the accumulate discipline of the numpy kernel */
#define ACC double

/* return codes; on error info[0], info[1] name the offending atom pair */
#define TERS_OK 0
#define TERS_NONFINITE 1  /* non-finite distance: would be silently filtered */
#define TERS_COINCIDENT 2 /* r == 0 inside the list: 1/r terms undefined     */
#define TERS_BAD_INPUT 3  /* neighbor/type index out of range, row > max_row */

/* geometry block `geo` (8 doubles, packed by CompiledTersoffKernel):
 * [0..2] box lengths, [3..5] half lengths (+inf on non-periodic axes),
 * [6] max cutoff over all type pairs, [7] its square with a relative
 * margin (the sqrt-free prefilter; the exact test is on r itself) */
#define GEO_HALF 3
#define GEO_CUTMAX 6
#define GEO_CUTMAX2 7

/* One row of the parameter table ptab[(ti*nt + tj)*nt + tk], packed by
 * CompiledTersoffKernel in the compute dtype (compiled.PARAM_FIELDS is
 * this order).  Pairs read entry (ti,tj,tj). */
enum { P_R, P_D, P_A, P_LAM1, P_B, P_LAM2, P_BETA, P_N, P_C1, P_C2, P_C3, P_C4,
       P_GAMMA, P_C, P_DD, P_H, P_LAM3, P_M, N_PARAM };

/* One memo entry of the computational part: the parameter vectors of a
 * block of VLANES pairs, keyed on (ti, the tj of its lanes), each row
 * VLANES REALs.  The cutoff-window rows lead both halves; the PV_* rows
 * read table entry (ti,tj,tj) per lane, the TV_* rows repeat per k type
 * and read (ti,tj,tk).  Rows that are not table columns are
 * parameter-only subexpressions of the functional forms. */
enum { CV_RMD, CV_RPD, CV_R, CV_D, CV_NQPID, N_CV };
enum { PV_A = N_CV, PV_NLAM1, PV_NB, PV_NLAM2, PV_BETA, PV_N, PV_NN, PV_TWON, PV_H2N,
       PV_NM1, PV_NINV2N, PV_C1, PV_C2, PV_C3, PV_C4, N_PV };
enum { TV_GAMMA = N_CV, TV_C2, TV_D2, TV_GONE, TV_M2C2, TV_H, TV_LAM3, TV_3LAM3,
       TV_CUBIC, N_TV };

#define MEMO_REALS(nt) (VLANES * (N_PV + (nt) * N_TV))

/* K-loop-1 vectors cached per fired k body for K loop 2: cos(theta) and
 * the three scalar factors of dzeta/dr_j and dzeta/dr_k */
enum { K_COS, K_FCGDEX, K_AJ, K_AK, N_KTERM };

/* The I loop runs in chunks of this many rows, claimed from an atomic
 * counter by whichever thread is free, and the force gather in chunks of
 * GATHER_ATOMS atoms.  ROWS_PER_CHUNK is part of the result — the virial
 * sums and the counters are kept per chunk and reduced in chunk order —
 * which is why it is a constant and not a function of the thread count. */
#define ROWS_PER_CHUNK 64
#define GATHER_ATOMS 256

/* The gather reads one `where` and one `partial` line per entry, from
 * wherever the entry's row is: past a few thousand atoms sweep 1 has
 * pushed them out of L2 and every read is a miss.  Asking for the
 * `where` line this many entries ahead, and for the `partial` line a
 * quarter of that ahead (its address needs the `where` value), took a
 * one-thread 16 384-atom call from 1.07x the time of PR 17's scatter
 * loop to 1.04x (three interleaved runs: 1.02-1.05); it costs nothing at
 * 4096 atoms, where both still sit in L2. */
#define GATHER_AHEAD 512

/* What one chunk of rows leaves behind, on cache lines of its own. */
typedef struct {
    ACC w[27];        /* pair, j and k virial sums over the chunk's rows  */
    int64_t count[3]; /* pairs, triplets in cutoff, vector bodies issued  */
    int64_t fail[3];  /* code, i, j of the first error in the chunk       */
} __attribute__((aligned(POOL_CACHE_LINE))) ters_chunk;

/* One call, as its threads see it.  The claim counters sit on a cache
 * line the read-only part does not share. */
typedef struct {
    int64_t n_atoms;
    const int64_t *offsets;
    const int32_t *neighbors;
    const int32_t *types;
    const double *x;
    const double *geo;
    int64_t ntypes;
    const double *cut;
    const void *ptab;       /* REAL, of the instantiation that runs the job */
    int64_t max_row;
    const int64_t *in_off;  /* transposed index: the CSR entries that name */
    const int32_t *in_ent;  /* atom a are in_ent[in_off[a] .. in_off[a+1]) */
    double *row_scratch;    /* thread_doubles of it per thread             */
    int64_t thread_doubles;
    ters_chunk *chunk;
    int64_t n_chunks;
    double *partial;        /* (L+1,3) the force of row i on its short-list
                               slot m in slot offsets[i] + m; slot L zero  */
    int32_t *where;         /* (L,) the slot of entry e's force, or L      */
    double *forces;
    double *peratom;
    _Alignas(POOL_CACHE_LINE) _Atomic int64_t next_rows; /* sweep 1 claims */
    _Atomic int64_t rows_done;                           /* ... completed  */
    _Atomic int64_t failed;
    _Atomic int64_t next_gather;                         /* sweep 2 claims */
} __attribute__((aligned(POOL_CACHE_LINE))) ters_job;

/* Scratch doubles per entry of the longest row (padded to whole
 * vectors): the short list and the pair list (r and d, 4 doubles each),
 * the REAL copies of the k geometry (7), the cached K-loop vectors, the
 * pair j column and six int32 columns; then one memo entry and its key
 * per type of atom i.  REAL columns are counted as doubles, so one size
 * serves both instantiations.  Each thread has its own, padded to whole
 * cache lines. */
#define ROW_DOUBLES (4 + 4 + 7 + N_KTERM * VLANES + 1 + 3)
#define LINE_DOUBLES (POOL_CACHE_LINE / (int64_t)sizeof(double))

static int64_t ters_thread_doubles(const int64_t max_row, const int64_t ntypes)
{
    const int64_t mr = (max_row + VLANES - 1) / VLANES * VLANES;
    const int64_t need = mr * ROW_DOUBLES + ntypes * (MEMO_REALS(ntypes) + 1);
    return (need + LINE_DOUBLES - 1) / LINE_DOUBLES * LINE_DOUBLES;
}

static int64_t ters_chunks(const int64_t n_atoms, const int64_t per)
{
    return (n_atoms + per - 1) / per;
}

/* doubles of scratch one call on `threads` threads needs: slack to align
 * the base, the chunk records, the per-thread row scratch */
int64_t tersoff_scratch_doubles(const int64_t max_row, const int64_t ntypes,
                                const int64_t n_atoms, const int64_t threads)
{
    return LINE_DOUBLES +
           ters_chunks(n_atoms, ROWS_PER_CHUNK) * (int64_t)(sizeof(ters_chunk) / sizeof(double)) +
           threads * ters_thread_doubles(max_row, ntypes);
}

static int64_t ters_fail(int64_t *restrict fail, int64_t i, int64_t j, int code)
{
    fail[0] = code;
    fail[1] = i;
    fail[2] = j;
    return -code;
}

/* Scalar filter for one atom: walks `row` (the atom's CSR neighbors),
 * writes minimum-image d = x_j - x_i (one column per component), r, j,
 * type(j) and the position in the row of the entries with r <= max
 * cutoff densely into the short list, returns its length (or -code,
 * with `fail` filled in).  Same arithmetic as
 * pair_geometry(): the image shift is skipped where |d| <= L/2, where
 * round(d/L) is exactly 0. */
static int64_t ters_filter_row(const double *restrict x, const int32_t *restrict types,
                               const int64_t n_atoms, const int64_t i,
                               const int32_t *restrict row, const int64_t len,
                               const double *restrict geo, double *const *restrict sd,
                               double *restrict sr, int32_t *restrict sj,
                               int32_t *restrict st, int32_t *restrict sq,
                               int64_t *restrict fail)
{
    const double *xi = x + 3 * i;
    int64_t m = 0, q;
    int c;
    for (q = 0; q < len; q++) {
        const int64_t j = row[q];
        if (j < 0 || j >= n_atoms) return ters_fail(fail, i, j, TERS_BAD_INPUT);
        for (c = 0; c < 3; c++) {
            double *d = sd[c] + m;
            *d = x[3 * j + c] - xi[c];
            if (fabs(*d) > geo[GEO_HALF + c]) *d -= geo[c] * rint(*d / geo[c]);
        }
        sr[m] = DOT3_EINSUM(sd[0][m] * sd[0][m], sd[1][m] * sd[1][m], sd[2][m] * sd[2][m]);
        if (!(sr[m] <= geo[GEO_CUTMAX2])) {
            if (!isfinite(sr[m])) return ters_fail(fail, i, j, TERS_NONFINITE);
            continue;
        }
        sr[m] = sqrt(sr[m]);
        if (sr[m] == 0) return ters_fail(fail, i, j, TERS_COINCIDENT);
        if (sr[m] <= geo[GEO_CUTMAX]) {
            sj[m] = (int32_t)j;
            st[m] = types[j];
            sq[m] = (int32_t)q;
            m++;
        }
    }
    return m;
}

#define REAL double
#define IREAL int64_t
#define UREAL uint64_t
#define REAL_BITS 64
#define TSUF f64
#define R_SQRT sqrt
#include "_vec.h"
#include "_vmath.h"
#include "_tersoff_impl.h"
#undef REAL
#undef IREAL
#undef UREAL
#undef REAL_BITS
#undef TSUF
#undef R_SQRT

#define REAL float
#define IREAL int32_t
#define UREAL uint32_t
#define REAL_BITS 32
#define TSUF f32
#define R_SQRT sqrtf
#include "_vec.h"
#include "_vmath.h"
#include "_tersoff_impl.h"
#undef REAL
#undef IREAL
#undef UREAL
#undef REAL_BITS
#undef TSUF
#undef R_SQRT

/* what was built, for `repro info`: the lane count of the algorithm and
 * the widest vector ISA the compiler was allowed to lower it to */
int64_t ters_lanes(void) { return VLANES; }

const char *ters_isa(void)
{
#if defined(__AVX512F__) && defined(__AVX512VL__)
    return "avx512";
#elif defined(__AVX2__)
    return "avx2";
#elif defined(__AVX__)
    return "avx";
#elif defined(__SSE4_2__)
    return "sse4.2";
#elif defined(__SSE2__)
    return "sse2";
#elif defined(__ARM_FEATURE_SVE)
    return "sve";
#elif defined(__ARM_NEON)
    return "neon";
#else
    return "generic";
#endif
}
