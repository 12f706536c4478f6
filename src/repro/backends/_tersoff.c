/* The Tersoff potential on the list walker of the compiled backend.
 *
 * Built at runtime by repro/backends/cext.py with
 *   cc -O3 -fPIC -shared -pthread -fno-fast-math -ffp-contract=off
 *      -fno-math-errno [-march=native]
 * and loaded through ctypes.  _walker.c walks the CSR neighbor rows —
 * the scalar *filter* (minimum image, the guards, the Sec. IV-D
 * max-cutoff short list, inclusive), the chunks of rows on the threads
 * of _pool.c, the two force sweeps and the reductions — and hands every
 * chunk of rows to the REAL-templated *computational part* in
 * _tersoff_impl.h (Alg. 3 as scheme 1b: the chunk's (i, j) pairs across
 * VLANES vector lanes, each lane on its own K list, written against
 * _vec.h and _vmath.h), instantiated for double (Opt-D) and float
 * (Opt-S/M compute side) at the lanes of VEC_LANES_* (_common.h).  The
 * sums across lanes are replayed in the order of the scheme-1a kernel
 * (ters_block), so neither the lane count, nor the -march flag, nor the
 * thread count decides a result bit: the first two only choose how many
 * pairs share a register and what it is lowered to, the last only who
 * computes which chunk.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_walker.h"

/* np.pi/2 and np.pi/4 to the double ULP */
#define HALF_PI_D 1.5707963267948966
#define QUARTER_PI_D 0.7853981633974483

/* One row of the parameter table ptab[(ti*nt + tj)*nt + tk], packed by
 * CompiledTersoffKernel in the compute dtype (compiled.PARAM_FIELDS is
 * this order).  Pairs read entry (ti,tj,tj). */
enum { P_R, P_D, P_A, P_LAM1, P_B, P_LAM2, P_BETA, P_N, P_C1, P_C2, P_C3, P_C4,
       P_GAMMA, P_C, P_DD, P_H, P_LAM3, P_M, N_PARAM };

/* Parameter-only subexpressions of the functional forms, formed once
 * per chunk from the table in the compute REAL (ters_params_): one row of
 * N_PV per (ti, tj), read from table entry (ti,tj,tj), and one of N_TV
 * per (ti, tj, tk).  The cutoff-window rows lead both. */
enum { CV_RMD, CV_RPD, CV_R, CV_D, CV_NQPID, N_CV };
enum { PV_A = N_CV, PV_NLAM1, PV_NB, PV_NLAM2, PV_BETA, PV_N, PV_NN, PV_TWON, PV_H2N,
       PV_NM1, PV_NINV2N, PV_C1, PV_C2, PV_C3, PV_C4, N_PV };
enum { TV_GAMMA = N_CV, TV_C2, TV_D2, TV_GONE, TV_M2C2, TV_H, TV_LAM3, TV_3LAM3,
       TV_CUBIC, N_TV };

/* K-loop-1 vectors kept per step for K loop 2: cos(theta), the three
 * scalar factors of dzeta/dr_j and dzeta/dr_k, and the lanes' r_ik and
 * d_ik / r_ik */
enum { K_COS, K_FCGDEX, K_AJ, K_AK, K_RIK, K_HIK, N_KTERM = K_HIK + 3 };

/* What each pair leaves for the replay of its block: F_i's lane term,
 * F_j, the pair force and the j-term force (the virial sums'), and e */
enum { O_VI = 0, O_FJ = 3, O_FV = 6, O_JT = 9, O_E = 12, N_OUT };

/* The replay reads each pair's columns from rings of TERS_RING pairs —
 * a vector's lanes and the at most three pairs of an unfinished block
 * before them (16 + 3 at most); a multiple of every lane count, so a
 * vector's lanes are never split */
#define TERS_RING 32

/* Where the body's columns lie in its per-thread scratch, in doubles
 * from its start, for a chunk of ROWS_PER_CHUNK rows of max_row entries
 * and the vectors of one instantiation: `lanes` lanes of `real` bytes:
 *   pair  the chunk's pairs, padded to whole vectors: r and d, then j's
 *         row and slot, its row's first entry and length, and (ti, tj)
 *   rows  each row's first pair and pair count (int32)
 *   kidx  per K step and lane, the entry of the lane's k (REAL-width int)
 *   kterm N_KTERM vectors per K step
 *   step  ring: per slot, the K step of the slot's k, or max_row (int32);
 *         then per K step the farthest cursor move of the vector's lanes
 *   u     ring: per K step, dzeta/dr_k times dV/dzeta (3 ACC columns);
 *         step max_row is zeros
 *   out   ring: N_OUT ACC columns
 *   pv/tv the parameter vectors of the lanes, then the per-type rows */
typedef struct {
    int64_t pair_cap, pair, rows, kidx, kterm, step, u, out, pv, tv, dpv, dtv, total;
} ters_layout;

/* doubles per pair: r and d, then five int32 columns */
#define PAIR_DOUBLES (4 + 3)

/* whole cache lines of doubles holding n items of `bytes` each */
static int64_t ters_line(const int64_t n, const int64_t bytes)
{
    const int64_t line = POOL_CACHE_LINE;
    return (n * bytes + line - 1) / line * LINE_DOUBLES;
}

static void ters_layout_of(const int64_t max_row, const int64_t ntypes, const int64_t lanes,
                           const int64_t real, ters_layout *lay)
{
    const int64_t steps = max_row + 1, vec = lanes * real, d = sizeof(double);
    lay->pair_cap = ters_line(ROWS_PER_CHUNK * max_row + lanes, d); /* at most one per entry */
    lay->pair = 0;
    lay->rows = lay->pair + PAIR_DOUBLES * lay->pair_cap;
    lay->kidx = lay->rows + ters_line(2 * ROWS_PER_CHUNK, sizeof(int32_t));
    lay->kterm = lay->kidx + ters_line(steps, vec);
    lay->step = lay->kterm + ters_line(steps * N_KTERM, vec);
    lay->u = lay->step + ters_line(steps * (TERS_RING + 1), sizeof(int32_t));
    lay->out = lay->u + ters_line(steps * 3 * TERS_RING, d);
    lay->pv = lay->out + ters_line(N_OUT * TERS_RING, d);
    lay->tv = lay->pv + ters_line(N_PV, vec);
    lay->dpv = lay->tv + ters_line(N_TV, vec);
    lay->dtv = lay->dpv + ters_line(ntypes * ntypes * N_PV, real);
    lay->total = lay->dtv + ters_line(ntypes * ntypes * ntypes * N_TV, real);
}

/* lanes col[at[0..3]] of a block, +0 past its first nb */
static inline vacc ters_lanes4(const ACC *restrict col, const int64_t *at, const int nb)
{
    return (vacc){col[at[0]], nb > 1 ? col[at[1]] : 0, nb > 2 ? col[at[2]] : 0,
                  nb > 3 ? col[at[3]] : 0};
}

/* The replay of one block of the parent order: the nb <= 4 pairs of
 * `row` that scheme 1a held in one vector (its pairs 4b .. 4b + 3, lane
 * l = pair 4b + l), with j in short-list slot slot[l], displacement
 * d[a][l] and their columns in the rings from position x on.  Every sum
 * is taken as 1a took it, in the chunk accumulator's four lanes with +0
 * for an empty lane: per slot k in list order F_k = (l0 + l2) + (l1 +
 * l3), with +0 for a lane whose j is k (a slot no lane fired adds +0,
 * which changes no bit), then F_i the same way, F_j and e lane by lane,
 * and the virial sums lane by lane.  A lane's F_k term is read from the
 * u ring's row of the K step the step ring gives the slot (the row of
 * zeros, zstep, where the slot is no k).  The block is read lane by lane
 * into scalars and brace-built vectors, never as a masked four-double
 * load: that cost a one-thread 4096-atom call ×1.2-1.27 on SSE2 and
 * ×1.02-1.06 on AVX-512 (EXPERIMENTS.md). */
static void ters_block(walk_row *row, const int nb, const int32_t *slot, const double *const *d,
                       const int64_t x, const ACC *obuf, const ACC *ubuf, const int32_t *stepbuf,
                       const int64_t zstep, walk_acc *restrict acc)
{
    ACC *restrict fs = row->f;
    static const int64_t lane[SUM_LANES] = {0, 1, 2, 3};
    vacc da[3];
    int64_t mk, xl[SUM_LANES], u[SUM_LANES];
    int a, c, l;

    for (l = 0; l < SUM_LANES; l++) xl[l] = (x + l) % TERS_RING;
    for (mk = 0; mk < row->ns; mk++) {
        /* where each lane's F_k term for slot mk lies in the u ring: its
         * K step's row, or the row of zeros for an empty lane or a slot
         * that is no k of the lane */
        for (l = 0; l < SUM_LANES; l++)
            u[l] = TERS_RING * 3 * (l < nb ? stepbuf[TERS_RING * mk + xl[l]] : zstep) + xl[l];
        for (c = 0; c < 3; c++) {
            const ACC *restrict col = ubuf + TERS_RING * c;
            const ACC fk = (col[u[0]] + col[u[2]]) + (col[u[1]] + col[u[3]]);
            fs[3 * row->q[mk] + c] -= fk;
            for (a = 0; a < 3; a++) acc->k[3 * a + c] += row->d[a][mk] * fk;
        }
    }
    for (a = 0; a < 3; a++) da[a] = ters_lanes4(d[a], lane, nb);
    for (c = 0; c < 3; c++) {
        const vacc vi = ters_lanes4(obuf + TERS_RING * (O_VI + c), xl, nb);
        const vacc fv = ters_lanes4(obuf + TERS_RING * (O_FV + c), xl, nb);
        const vacc jt = ters_lanes4(obuf + TERS_RING * (O_JT + c), xl, nb);
        for (l = 0; l < nb; l++)
            fs[3 * row->q[slot[l]] + c] += obuf[TERS_RING * (O_FJ + c) + xl[l]];
        row->f_i[c] -= vacc_hsum(vi);
        /* virial W_ab += d_a F_b, summed per lane */
        for (a = 0; a < 3; a++) {
            acc->lane[3 * a + c] += da[a] * fv;
            acc->lane[9 + 3 * a + c] += da[a] * jt;
        }
    }
    for (l = 0; l < nb; l++) row->e_i += obuf[TERS_RING * O_E + xl[l]];
}

/* this unit also carries the _vmath.h test hook (tests/test_backends.py) */
#define REPRO_VMATH_HOOK
#define REAL double
#define IREAL int64_t
#define UREAL uint64_t
#define REAL_BITS 64
#define TSUF f64
#define R_SQRT sqrt
#define VLANES VEC_LANES_F64
#include "_vec.h"
#include "_vmath.h"
#include "_tersoff_impl.h"
#undef REAL
#undef IREAL
#undef UREAL
#undef REAL_BITS
#undef TSUF
#undef R_SQRT
#undef VLANES

#define REAL float
#define IREAL int32_t
#define UREAL uint32_t
#define REAL_BITS 32
#define TSUF f32
#define R_SQRT sqrtf
#define VLANES VEC_LANES_F32
#include "_vec.h"
#include "_vmath.h"
#include "_tersoff_impl.h"
#undef REAL
#undef IREAL
#undef UREAL
#undef REAL_BITS
#undef TSUF
#undef R_SQRT
#undef VLANES

/* what was built, for `repro info`: the widest vector ISA the compiler
 * was allowed to lower the lanes to (each entry point names its own
 * scheme and lanes, WALK_ENTRY) */
const char *ters_isa(void)
{
#if defined(__AVX512F__)
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
