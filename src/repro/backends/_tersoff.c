/* The Tersoff potential on the list walker of the compiled backend.
 *
 * Built at runtime by repro/backends/cext.py with
 *   cc -O3 -fPIC -shared -pthread -fno-fast-math -ffp-contract=off
 *      -fno-math-errno [-march=native]
 * and loaded through ctypes.  _walker.c walks the CSR neighbor rows —
 * the scalar *filter* (minimum image, the guards, the Sec. IV-D
 * max-cutoff short list, inclusive), the chunks of rows on the threads
 * of _pool.c, the two force sweeps and the reductions — and hands every
 * row to the REAL-templated *computational part* in _tersoff_impl.h
 * (Alg. 3 as scheme 1a: the pairs of an atom in VLANES vector lanes,
 * written against _vec.h and _vmath.h), instantiated for double (Opt-D)
 * and float (Opt-S/M compute side).  Neither the -march flag nor the
 * thread count decides a result bit: the first only chooses what the
 * lanes are lowered to, the second only who computes which chunk.
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
 * vectors): the pair list (r and d, 4 doubles), the REAL copies of the k
 * geometry (7), the cached K-loop vectors, the pair j column and three
 * int32 columns; then one memo entry and its key per type of atom i.
 * REAL columns are counted as doubles, so one size serves both
 * instantiations. */
#define ROW_DOUBLES (4 + 7 + N_KTERM * VLANES + 1 + 2)

static int64_t ters_scratch(const int64_t max_row, const int64_t ntypes)
{
    const int64_t mr = (max_row + VLANES - 1) / VLANES * VLANES;
    return mr * ROW_DOUBLES + ntypes * (MEMO_REALS(ntypes) + 1);
}

/* this unit also carries the _vmath.h test hook (tests/test_backends.py) */
#define REPRO_VMATH_HOOK
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

int64_t tersoff_scratch_doubles(const int64_t max_row, const int64_t ntypes,
                                const int64_t n_atoms, const int64_t threads)
{
    return walk_scratch_doubles(&ters_kind_f64, max_row, ntypes, n_atoms, threads);
}

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
