/* C-extension entry points for the compiled Tersoff backend.
 *
 * Built at runtime by repro/backends/cext.py with
 *   cc -O3 -fPIC -shared -fno-fast-math -ffp-contract=off -fno-math-errno
 *      [-march=native]
 * and loaded through ctypes.  One pass per atom over its CSR neighbor
 * row, split the way the paper splits every scheme (Sec. IV-B): the
 * scalar *filter* below — minimum-image geometry, the non-finite and
 * coincident-atom guards and the Sec. IV-D max-cutoff short list, in
 * double in every precision mode — feeds the REAL-templated
 * *computational part* in _tersoff_impl.h (Alg. 3 as scheme 1a: the
 * pairs of an atom in VLANES vector lanes, written against _vec.h and
 * _vmath.h), instantiated for double (Opt-D) and float (Opt-S/M compute
 * side).  The -march flag decides only what the lanes are lowered to,
 * never a result bit.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_common.h"

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

/* Scratch doubles per entry of the longest row (padded to whole
 * vectors): the short list and the pair list (r and d, 4 doubles each),
 * the REAL copies of the k geometry (7), the cached K-loop vectors, the
 * pair j column and four int32 columns; then one memo entry and its key
 * per type of atom i.  REAL columns are counted as doubles, so one size
 * serves both instantiations. */
#define ROW_DOUBLES (4 + 4 + 7 + N_KTERM * VLANES + 1 + 2)

int64_t tersoff_scratch_doubles(const int64_t max_row, const int64_t ntypes)
{
    const int64_t mr = (max_row + VLANES - 1) / VLANES * VLANES;
    return mr * ROW_DOUBLES + ntypes * (MEMO_REALS(ntypes) + 1);
}

static int64_t ters_fail(int64_t *restrict info, int64_t i, int64_t j, int code)
{
    info[0] = i;
    info[1] = j;
    return -code;
}

/* Scalar filter for one atom: walks `row` (the atom's CSR neighbors),
 * writes minimum-image d = x_j - x_i (one column per component), r, j
 * and type(j) of the entries with r <= max cutoff densely into the
 * short list, returns its length (or -code).  Same arithmetic as
 * pair_geometry(): the image shift is skipped where |d| <= L/2, where
 * round(d/L) is exactly 0. */
static int64_t ters_filter_row(const double *restrict x, const int32_t *restrict types,
                               const int64_t n_atoms, const int64_t i,
                               const int32_t *restrict row, const int64_t len,
                               const double *restrict geo, double *const *restrict sd,
                               double *restrict sr, int32_t *restrict sj,
                               int32_t *restrict st, int64_t *restrict info)
{
    const double *xi = x + 3 * i;
    int64_t m = 0, q;
    int c;
    for (q = 0; q < len; q++) {
        const int64_t j = row[q];
        if (j < 0 || j >= n_atoms) return ters_fail(info, i, j, TERS_BAD_INPUT);
        for (c = 0; c < 3; c++) {
            double *d = sd[c] + m;
            *d = x[3 * j + c] - xi[c];
            if (fabs(*d) > geo[GEO_HALF + c]) *d -= geo[c] * rint(*d / geo[c]);
        }
        sr[m] = DOT3_EINSUM(sd[0][m] * sd[0][m], sd[1][m] * sd[1][m], sd[2][m] * sd[2][m]);
        if (!(sr[m] <= geo[GEO_CUTMAX2])) {
            if (!isfinite(sr[m])) return ters_fail(info, i, j, TERS_NONFINITE);
            continue;
        }
        sr[m] = sqrt(sr[m]);
        if (sr[m] == 0) return ters_fail(info, i, j, TERS_COINCIDENT);
        if (sr[m] <= geo[GEO_CUTMAX]) {
            sj[m] = (int32_t)j;
            st[m] = types[j];
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
