/* The Stillinger-Weber potential on the list walker of the compiled
 * backend: the same filter, threads, force sweeps and reductions as
 * Tersoff (_walker.c), a different computational part (_sw_impl.h),
 * instantiated for double (Opt-D) and float (Opt-S/M compute side).
 *
 * SW's short list is strict (r < a*sigma): its tails exp(s/(r - a*sigma))
 * diverge at exactly r == a*sigma, so every short-list entry is a pair
 * and, paired with every later entry, a triplet (j, k) — the unordered
 * three-body terms of repro/core/sw/production.py::SWKernel.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_walker.h"

/* The one parameter row, in the compute dtype and in this order from
 * CompiledSWKernel.table: the parameter-only subexpressions of
 * repro/core/sw/functional.py, each formed in double the way numpy
 * forms it before it meets an array. */
enum { S_SIGMA, S_NSIGMA, S_GSIGMA, S_NGSIGMA, S_CUT, S_CUT_IN, S_B, S_NPB, S_P, S_Q,
       S_AE, S_LE, S_2LE, S_COS0, N_SW };

/* Scratch doubles per entry of the longest row, plus one vector past it
 * (a block of k may start at any entry): REAL copies of r, d and d / r,
 * the two three-body tail factors, and a double copy of d for the
 * accumulator lanes. */
#define SW_ROW_DOUBLES (7 + 2 + 3)

static int64_t sw_scratch(const int64_t max_row, const int64_t ntypes)
{
    (void)ntypes;
    return (max_row + VLANES) * SW_ROW_DOUBLES;
}

#define REAL double
#define IREAL int64_t
#define UREAL uint64_t
#define REAL_BITS 64
#define TSUF f64
#define R_SQRT sqrt
#include "_vec.h"
#include "_vmath.h"
#include "_sw_impl.h"
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
#include "_sw_impl.h"
#undef REAL
#undef IREAL
#undef UREAL
#undef REAL_BITS
#undef TSUF
#undef R_SQRT

int64_t sw_scratch_doubles(const int64_t max_row, const int64_t ntypes, const int64_t n_atoms,
                           const int64_t threads)
{
    return walk_scratch_doubles(&sw_kind_f64, max_row, ntypes, n_atoms, threads);
}
