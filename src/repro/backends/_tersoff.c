/* C-extension entry points for the compiled Tersoff backend.
 *
 * Built at runtime by repro/backends/cext.py with
 *   cc -O3 -fPIC -shared -fno-fast-math -ffp-contract=off
 * and loaded through ctypes.  One pass per atom over its CSR neighbor
 * row, split the way the paper splits every scheme (Sec. IV-B): the
 * scalar *filter* below — minimum-image geometry, the non-finite and
 * coincident-atom guards and the Sec. IV-D max-cutoff short list, in
 * double in every precision mode — feeds the REAL-templated
 * *computational part* in _tersoff_impl.h (Alg. 3), instantiated for
 * double (Opt-D) and float (Opt-S/M compute side).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_common.h"

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)

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

/* k-loop-1 terms cached per short-list slot for k loop 2 */
enum { K_COS, K_FC, K_FCD, K_G, K_GD, K_EX, K_EXLD, K_ZETA, N_KTERM };

static int64_t ters_fail(int64_t *restrict info, int64_t i, int64_t j, int code)
{
    info[0] = i;
    info[1] = j;
    return -code;
}

/* Scalar filter for one atom: walks `row` (the atom's CSR neighbors),
 * writes minimum-image d = x_j - x_i, r, j and type(j) of the entries
 * with r <= max cutoff densely into the short list, returns its length
 * (or -code).  Same arithmetic as pair_geometry(): the image shift is
 * skipped where |d| <= L/2, where round(d/L) is exactly 0. */
static int64_t ters_filter_row(const double *restrict x, const int32_t *restrict types,
                               const int64_t n_atoms, const int64_t i,
                               const int32_t *restrict row, const int64_t len,
                               const double *restrict geo, double *restrict sd,
                               double *restrict sr, int32_t *restrict sj,
                               int32_t *restrict st, int64_t *restrict info)
{
    const double *xi = x + 3 * i;
    int64_t m = 0, q;
    int c;
    for (q = 0; q < len; q++) {
        const int64_t j = row[q];
        double *d = sd + 3 * m;
        if (j < 0 || j >= n_atoms) return ters_fail(info, i, j, TERS_BAD_INPUT);
        for (c = 0; c < 3; c++) {
            d[c] = x[3 * j + c] - xi[c];
            if (fabs(d[c]) > geo[GEO_HALF + c]) d[c] -= geo[c] * rint(d[c] / geo[c]);
        }
        sr[m] = DOT3_EINSUM(d[0] * d[0], d[1] * d[1], d[2] * d[2]);
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
#define TSUF f64
#define R_SIN sin
#define R_COS cos
#define R_EXP exp
#define R_POW pow
#define R_SQRT sqrt
#include "_tersoff_impl.h"
#undef REAL
#undef TSUF
#undef R_SIN
#undef R_COS
#undef R_EXP
#undef R_POW
#undef R_SQRT

#define REAL float
#define TSUF f32
#define R_SIN sinf
#define R_COS cosf
#define R_EXP expf
#define R_POW powf
#define R_SQRT sqrtf
#include "_tersoff_impl.h"
#undef REAL
#undef TSUF
#undef R_SIN
#undef R_COS
#undef R_EXP
#undef R_POW
#undef R_SQRT
