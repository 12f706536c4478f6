/* The serial part of an MD step, behind the methods that own it:
 * VelocityVerlet.initial_integrate / final_integrate (repro.md.integrate),
 * the skin test of NeighborList.needs_rebuild and ParallelEngine's
 * redecomposition (repro.md.neighbor.past_half_skin) and the decomposed step's
 * rank-order force reduction (DomainDecomposition.reduce_forces).
 *
 * Compiled into the same shared object as _tersoff.c.  Each entry computes
 * what the numpy body it stands in for computes, operator for operator,
 * so a trajectory is the numpy integrator's bit for bit (DESIGN.md §12):
 *
 *   kick   v + ((c f) (1 / m[type])), c = 0.5 dt FTM2V formed by the caller
 *   drift  x + dt v
 *   wrap   on a periodic axis: t = x - lo, m = np.remainder(t, L),
 *          m >= L -> 0, then m + lo
 *   skin   d = x - x_ref, on a periodic axis d -= L rint(d / L); the
 *          largest DOT3_EINSUM(d^2), NaN when any is NaN (np.max)
 *   reduce out = 0, then out[idx[k]] += rows[k] rank after rank, rows in
 *          input order: np.add.at's order (scatter_add_rows)
 *
 * One thread: at a few thousand atoms a pass takes tens of microseconds,
 * less than waking a helper of _pool.c is worth.
 *
 * Nothing here is REAL-templated: positions, velocities, forces and the
 * box are f64 in every precision mode.
 */

#include <math.h>
#include <stdint.h>

#include "_common.h"

#define F64 double

/* np.remainder(t, L) for L > 0 (fmod, plus L where fmod is negative, +0
 * where it is zero), then the wrap's m >= L -> 0.  The caller has taken
 * the common case 0 < t < L, where fmod(t, L) is t itself: skipping fmod
 * there is what makes the pass cheap.  NaN stays NaN. */
static F64 wrap_offset(const F64 t, const F64 L)
{
    F64 m;
    if (t == 0) return 0;
    m = fmod(t, L);
    if (m == 0) return 0;
    if (m < 0) m += L;
    return m >= L ? 0 : m;
}

/* most types a pass takes; a system with more runs the numpy body */
#define MD_MAX_TYPES 64

/* 1 / m per type, as the numpy body forms it, if every type is in [0,
 * ntypes); 0 otherwise (the caller then runs the numpy body, which
 * raises the IndexError it always raised). */
static int inverse_masses(const int64_t n, const int32_t *restrict type,
                          const double *restrict mass, const int64_t ntypes, F64 *restrict inv_m)
{
    int64_t i;
    int32_t bad = 0;
    if (ntypes < 1 || ntypes > MD_MAX_TYPES) return 0;
    for (i = 0; i < ntypes; i++) inv_m[i] = 1 / mass[i];
    for (i = 0; i < n; i++) bad |= (type[i] < 0) | (type[i] >= ntypes);
    return !bad;
}

/* The final half-kick.  Returns 0, or 1 with nothing written. */
int64_t md_kick(const F64 c, const int64_t n, double *restrict v, const double *restrict f,
                const int32_t *restrict type, const double *restrict mass, const int64_t ntypes)
{
    F64 inv_m[MD_MAX_TYPES];
    int64_t i, k;
    if (!inverse_masses(n, type, mass, ntypes, inv_m)) return 1;
    for (i = 0; i < n; i++)
        for (k = 3 * i; k < 3 * i + 3; k++) v[k] = v[k] + (c * f[k]) * inv_m[type[i]];
    return 0;
}

/* Half-kick, drift and wrap in one pass over the atoms: between force
 * calls the columns have left the cache, and in a 4096-atom MD loop this
 * pass took 29 us where one (vectorised) pass per stage took 43.  The
 * arguments are md_kick's, then the drift's and the wrap's.
 * Returns 0, or 1 with nothing written. */
int64_t md_initial(const F64 c, const int64_t n, double *restrict v, const double *restrict f,
                   const int32_t *restrict type, const double *restrict mass,
                   const int64_t ntypes, const F64 dt, double *restrict x,
                   const double *restrict lo, const double *restrict len, /* (3,) each */
                   const int32_t p0, const int32_t p1, const int32_t p2) /* periodic axes */
{
    const int32_t periodic[3] = {p0, p1, p2};
    F64 inv_m[MD_MAX_TYPES];
    int64_t i, k;
    int a;
    if (!inverse_masses(n, type, mass, ntypes, inv_m)) return 1;
    for (i = 0; i < n; i++) {
        const F64 im = inv_m[type[i]];
        for (a = 0, k = 3 * i; a < 3; a++, k++) {
            v[k] = v[k] + (c * f[k]) * im;
            x[k] = x[k] + dt * v[k];
            if (periodic[a]) {
                const F64 t = x[k] - lo[a];
                x[k] = (t > 0 && t < len[a] ? t : wrap_offset(t, len[a])) + lo[a];
            }
        }
    }
    return 0;
}

/* The skin test's largest squared minimum-image displacement since the
 * build.  Where |d| <= L/2, rint(d / L) is +-0 and the shift changes no
 * square, so it is skipped, as in _neighbor.c.  NaN as soon as one is. */
F64 md_max_disp2(const int64_t n, const double *restrict x, const double *restrict x_ref,
                 const F64 l0, const F64 l1, const F64 l2, /* box lengths */
                 const int32_t p0, const int32_t p1, const int32_t p2)
{
    const F64 len[3] = {l0, l1, l2};
    const F64 half[3] = {p0 ? l0 / 2 : INFINITY, p1 ? l1 / 2 : INFINITY, p2 ? l2 / 2 : INFINITY};
    F64 worst = 0;
    int64_t i;
    int a;
    for (i = 0; i < n; i++) {
        F64 d[3], d2;
        for (a = 0; a < 3; a++) {
            d[a] = x[3 * i + a] - x_ref[3 * i + a];
            if (fabs(d[a]) > half[a]) d[a] -= len[a] * rint(d[a] / len[a]);
        }
        d2 = DOT3_EINSUM(d[0] * d[0], d[1] * d[1], d[2] * d[2]);
        if (!(d2 <= worst)) {
            if (isnan(d2)) return d2;
            worst = d2;
        }
    }
    return worst;
}

/* The rank-order reverse halo exchange: zero the (n, 3) `out`, then add
 * rank r's block row k onto out[idx[r][k]] for r = 0, 1, ... and k in
 * input order, so every element sees np.add.at's sums in its order (+0.0
 * start, -0.0 rows included).  Returns 0, or 1 at the first index outside
 * [0, n), with `out` part written: the caller then runs the numpy body,
 * which starts from zero again and wraps a negative index or raises the
 * IndexError. */
int64_t md_reduce_rows(const int64_t n, double *out, const int64_t ranks,
                       const int64_t *const *idx, const int64_t *rows,
                       const double *const *block)
{
    int64_t r, k;
    for (k = 0; k < 3 * n; k++) out[k] = 0;
    for (r = 0; r < ranks; r++) {
        const int64_t *ri = idx[r], m = rows[r];
        const double *b = block[r];
        for (k = 0; k < m; k++) {
            double *o;
            if (ri[k] < 0 || ri[k] >= n) return 1;
            o = out + 3 * ri[k];
            o[0] += b[3 * k];
            o[1] += b[3 * k + 1];
            o[2] += b[3 * k + 2];
        }
    }
    return 0;
}
