/* Tersoff fused computational part (paper Alg. 3), REAL-templated.
 *
 * Included twice from _tersoff.c (REAL=double/TSUF=f64, then
 * REAL=float/TSUF=f32).  Per atom i the scalar filter
 * (ters_filter_row) leaves the max-cutoff short list; every entry
 * inside its own inclusive per-type-pair R+D cutoff is a pair (i,j),
 * and every *other* short-list entry is one of its k.  K loop 1
 * accumulates zeta and caches the derivative terms, the pair terms
 * follow, k loop 2 turns the cached terms into forces and virial sums —
 * nothing is staged per pair or per triplet beyond the current row.
 *
 * The functional forms mirror the numpy oracle
 * (repro/core/tersoff/production.py::TersoffKernel.evaluate and
 * repro/core/tersoff/functional.py) term for term: same expressions,
 * same left-to-right association.  Traversal order (i ascending, j and
 * k in list order) is the oracle's pair/triplet row order, so zeta, the
 * per-atom energy and the three virial sums accumulate in exactly its
 * order; forces are added straight onto atoms i, j and k instead of
 * replaying its five segmented sums, so they agree to rounding of the
 * sum order only (DESIGN.md §12).  Compile with -fno-fast-math
 * -ffp-contract=off: a contracted FMA would change the rounding and
 * break the documented ULP contract against numpy.
 *
 * Elementwise math runs in REAL; geometry arrives in double from the
 * filter and every accumulation runs in ACC (double), matching the
 * numpy kernel's accumulate discipline.
 */

#define TFN(name) CAT(name, TSUF)

static inline REAL TFN(ters_fc_)(REAL r, REAL Rp, REAL Dp) {
    /* numpy: where(r < R-D, 1, where(r > R+D, 0, 0.5*(1-sin(clip(arg))))) */
    if (r < Rp - Dp) return (REAL)1.0;
    if (r > Rp + Dp) return (REAL)0.0;
    REAL arg = (REAL)HALF_PI_D * (r - Rp) / Dp;
    if (arg < -(REAL)HALF_PI_D) arg = -(REAL)HALF_PI_D;
    if (arg > (REAL)HALF_PI_D) arg = (REAL)HALF_PI_D;
    return (REAL)0.5 * ((REAL)1.0 - R_SIN(arg));
}

static inline REAL TFN(ters_fc_d_)(REAL r, REAL Rp, REAL Dp) {
    if (r < Rp - Dp || r > Rp + Dp) return (REAL)0.0;
    REAL arg = (REAL)HALF_PI_D * (r - Rp) / Dp;
    return -((REAL)QUARTER_PI_D / Dp) * R_COS(arg);
}

static inline REAL TFN(ters_g_)(REAL cth, REAL gam, REAL c, REAL d, REAL h) {
    REAL hcth = h - cth;
    REAL c2 = c * c;
    REAL d2 = d * d;
    return gam * ((REAL)1.0 + c2 / d2 - c2 / (d2 + hcth * hcth));
}

static inline REAL TFN(ters_g_d_)(REAL cth, REAL gam, REAL c, REAL d, REAL h) {
    REAL hcth = h - cth;
    REAL c2 = c * c;
    REAL d2 = d * d;
    REAL denom = d2 + hcth * hcth;
    return gam * (-(REAL)2.0 * c2 * hcth) / (denom * denom);
}

/* b_order / b_order_d fused: the np.where override chain rewritten as
 * the equivalent priority if-chain (last-applied numpy where wins ->
 * first C test): tmp>c1, tmp>c2, tmp<c4, tmp<c3, else exact.  Shared
 * subexpressions (sqrt, pow) are numpy-identical CSE — numpy computes
 * them twice with identical inputs.  One intentional algebraic
 * deviation, for half the libm pow traffic on the dominant branch: the
 * derivative's pow(1+x, -1-q) is computed as pow(1+x, -q)/(1+x)
 * (exact in real arithmetic, ~1 ULP in float).  It only feeds the
 * dV/dzeta prefactor, i.e. triplet forces/stress, whose equivalence
 * contract is norm-scaled, not elementwise-ULP (DESIGN.md §12);
 * b_ij itself — the energy path — keeps numpy's exact expression. */
static inline void TFN(ters_bij_both_)(REAL z, REAL beta, REAL nn,
                                       REAL c1, REAL c2v, REAL c3, REAL c4,
                                       REAL *bij, REAL *bijd) {
    REAL tmp = beta * z;
    REAL tmp_safe = tmp > (REAL)1.0e-300 ? tmp : (REAL)1.0e-300;
    if (tmp > c1) {
        REAL s = R_SQRT(tmp_safe);
        *bij = (REAL)1.0 / s;
        *bijd = beta * ((REAL)-0.5 / (tmp_safe * s));
    } else if (tmp > c2v) {
        REAL s = R_SQRT(tmp_safe);
        REAL tmp_mn = R_POW(tmp_safe, -nn);
        *bij = ((REAL)1.0 - tmp_mn / ((REAL)2.0 * nn)) / s;
        *bijd = beta * ((REAL)-0.5 / (tmp_safe * s)
                        * ((REAL)1.0 - ((REAL)1.0 + (REAL)0.5 / nn) * tmp_mn));
    } else if (tmp < c4) {
        *bij = (REAL)1.0;
        *bijd = (REAL)0.0;
    } else if (tmp < c3) {
        REAL tmp_n = R_POW(tmp_safe, nn);
        *bij = (REAL)1.0 - tmp_n / ((REAL)2.0 * nn);
        *bijd = (REAL)-0.5 * beta * R_POW(tmp_safe, nn - (REAL)1.0);
    } else {
        REAL zeta_safe = z > (REAL)1.0e-300 ? z : (REAL)1.0e-300;
        REAL tmp_n = R_POW(tmp_safe, nn);
        REAL b = R_POW((REAL)1.0 + tmp_n, (REAL)-1.0 / ((REAL)2.0 * nn));
        *bij = b;
        *bijd = (REAL)-0.5 * (b / ((REAL)1.0 + tmp_n)) * tmp_n / zeta_safe;
    }
}

/* Scratch, carved from one caller-owned buffer of
 * max_row * SCRATCH_DOUBLES_PER_ENTRY doubles (16: 3 d + r, then 8
 * cached k terms and 3 unit-vector components of at most 8 bytes, then
 * j and type(j) as int32). */
int TFN(tersoff_fused_)(
    const int64_t n_atoms,
    const int64_t *restrict offsets, /* (N+1,) CSR row offsets, as stored   */
    const int32_t *restrict neighbors, /* (L,)  CSR columns, as stored      */
    const int32_t *restrict types,   /* (N,)                                */
    const double *restrict x,        /* (N,3) positions                     */
    const double *restrict geo,      /* (8,)  box + max cutoff, see above   */
    const int64_t ntypes,
    const double *restrict cut,      /* (nt^3,) R+D per entry, double       */
    const REAL *restrict ptab,       /* (nt^3, N_PARAM) parameter table     */
    const int64_t max_row,           /* longest CSR row (sizes the scratch) */
    double *restrict scratch,
    double *restrict forces,         /* (N,3)  out, zeroed here             */
    double *restrict peratom,        /* (N,)   out, zeroed here             */
    double *restrict stress,         /* (3,3,3) out: pair, j and k virial sums */
    int64_t *restrict info)          /* (2,) out: pairs, triplets in cutoff;
                                        on error the offending atom pair    */
{
    double *restrict sd = scratch;
    double *restrict sr = sd + 3 * max_row;
    REAL *restrict kterm = (REAL *)(sr + max_row);
    REAL *restrict hat = kterm + N_KTERM * max_row; /* d / r per short-list slot */
    int32_t *restrict sj = (int32_t *)(hat + 3 * max_row);
    int32_t *restrict st = sj + max_row;
    double *restrict stress_p = stress;      /* sum_p d_ij[a] fvec[b] */
    double *restrict stress_j = stress + 9;  /* sum_t d_ij[a] fj[b]   */
    double *restrict stress_k = stress + 18; /* sum_t d_ik[a] fk[b]   */
    int64_t n_pairs = 0, n_triplets = 0;
    int64_t i, mj, mk;
    int a, c;

    memset(forces, 0, (size_t)(3 * n_atoms) * sizeof(double));
    memset(peratom, 0, (size_t)n_atoms * sizeof(double));
    memset(stress, 0, 27 * sizeof(double));
    for (i = 0; i < n_atoms; i++)
        if (types[i] < 0 || types[i] >= ntypes) return (int)-ters_fail(info, i, i, TERS_BAD_INPUT);

    for (i = 0; i < n_atoms; i++) {
        const int64_t len = offsets[i + 1] - offsets[i];
        if (len == 0) continue; /* blanked ghost row or isolated atom */
        if (len < 0 || len > max_row) return (int)-ters_fail(info, i, i, TERS_BAD_INPUT);
        const int64_t ns = ters_filter_row(x, types, n_atoms, i, neighbors + offsets[i], len,
                                           geo, sd, sr, sj, st, info);
        if (ns < 0) return (int)-ns;
        for (mk = 0; mk < ns; mk++)
            for (c = 0; c < 3; c++) hat[3 * mk + c] = (REAL)sd[3 * mk + c] / (REAL)sr[mk];
        const int64_t ti = types[i];
        ACC *f_i = forces + 3 * i;

        for (mj = 0; mj < ns; mj++) {
            const int64_t tj = st[mj];
            const int64_t row_ij = (ti * ntypes + tj) * ntypes;
            if (!(sr[mj] <= cut[row_ij + tj])) continue; /* inclusive R+D filter */
            n_pairs++;
            const int32_t j = sj[mj];
            const double *restrict d_ij = sd + 3 * mj;
            const REAL dij0 = (REAL)d_ij[0], dij1 = (REAL)d_ij[1], dij2 = (REAL)d_ij[2];
            const REAL rij = (REAL)sr[mj];
            ACC *f_j = forces + 3 * j;

            /* ---- k loop 1: zeta and its cached derivative terms ---- */
            ACC zeta = 0;
            for (mk = 0; mk < ns; mk++) {
                if (sj[mk] == j) continue;
                n_triplets++;
                const REAL *restrict tp = ptab + N_PARAM * (row_ij + st[mk]);
                const double *restrict d_ik = sd + 3 * mk;
                const REAL rik = (REAL)sr[mk];
                const REAL cos_t = DOT3_EINSUM(dij0 * (REAL)d_ik[0], dij1 * (REAL)d_ik[1],
                                               dij2 * (REAL)d_ik[2]) / (rij * rik);
                const REAL Rt = tp[P_R], Dt = tp[P_D], l3 = tp[P_LAM3];
                const REAL fcik = TFN(ters_fc_)(rik, Rt, Dt);
                const REAL fcdik = TFN(ters_fc_d_)(rik, Rt, Dt);
                const REAL g = TFN(ters_g_)(cos_t, tp[P_GAMMA], tp[P_C],
                                            tp[P_DD], tp[P_H]);
                const REAL gd = TFN(ters_g_d_)(cos_t, tp[P_GAMMA], tp[P_C],
                                               tp[P_DD], tp[P_H]);

                /* zeta_exp / zeta_exp_d_over, exponent clamped at +69;
                 * exp(+-0) is exactly 1, so lam3 == 0 skips the libm call */
                const int cubic = tp[P_M] == (REAL)3.0;
                const REAL ld = l3 * (rij - rik);
                const REAL expo = cubic ? ld * ld * ld : ld;
                const REAL ex = expo == (REAL)0.0
                                    ? (REAL)1.0
                                    : R_EXP(expo < (REAL)69.0 ? expo : (REAL)69.0);
                const REAL exld = (expo >= (REAL)69.0)
                                      ? (REAL)0.0
                                      : (cubic ? (REAL)3.0 * l3 * ld * ld : l3);

                const REAL contrib = fcik * g * ex;
                zeta += (ACC)contrib;

                REAL *restrict s = kterm + N_KTERM * mk;
                s[K_COS] = cos_t;
                s[K_FC] = fcik;
                s[K_FCD] = fcdik;
                s[K_G] = g;
                s[K_GD] = gd;
                s[K_EX] = ex;
                s[K_EXLD] = exld;
                s[K_ZETA] = contrib;
            }

            /* ---- pair terms ---- */
            const REAL *restrict pp = ptab + N_PARAM * (row_ij + tj);
            const REAL fcij = TFN(ters_fc_)(rij, pp[P_R], pp[P_D]);
            const REAL fcdij = TFN(ters_fc_d_)(rij, pp[P_R], pp[P_D]);
            const REAL fr = pp[P_A] * R_EXP(-pp[P_LAM1] * rij);
            const REAL frd = -pp[P_LAM1] * fr;
            const REAL fa = -pp[P_B] * R_EXP(-pp[P_LAM2] * rij);
            const REAL fad = -pp[P_LAM2] * fa;
            REAL bij, bijd;
            TFN(ters_bij_both_)((REAL)zeta, pp[P_BETA], pp[P_N], pp[P_C1],
                                pp[P_C2], pp[P_C3], pp[P_C4], &bij, &bijd);

            const REAL e = (REAL)0.5 * fcij * (fr + bij * fa);
            const REAL dE = (REAL)0.5 * (fcdij * (fr + bij * fa) + fcij * (frd + bij * fad));
            const REAL fp = -dE / rij;
            const REAL pre = (REAL)0.5 * fcij * fa * bijd; /* dV/dzeta */

            peratom[i] += (ACC)e;
            const REAL fvec[3] = {fp * dij0, fp * dij1, fp * dij2};
            for (c = 0; c < 3; c++) {
                const ACC fv = (ACC)fvec[c];
                f_i[c] -= fv;
                f_j[c] += fv;
                /* pair virial W_ab += d_a F_b, in pair-row order */
                for (a = 0; a < 3; a++) stress_p[3 * a + c] += d_ij[a] * fv;
            }

            /* ---- k loop 2: zeta-derivative force terms ---- */
            for (mk = 0; mk < ns; mk++) {
                if (sj[mk] == j) continue;
                const REAL *restrict s = kterm + N_KTERM * mk;
                const double *restrict d_ik = sd + 3 * mk;
                ACC *f_k = forces + 3 * sj[mk];
                const REAL rik = (REAL)sr[mk];
                const REAL crij = s[K_COS] / rij;
                const REAL crik = s[K_COS] / rik;
                const REAL fcgdex = s[K_FC] * s[K_GD] * s[K_EX];
                const REAL aj = s[K_ZETA] * s[K_EXLD];
                const REAL ak = s[K_FCD] * s[K_G] * s[K_EX]
                                - s[K_ZETA] * s[K_EXLD];
                for (c = 0; c < 3; c++) {
                    const REAL hij = hat[3 * mj + c];
                    const REAL hik = hat[3 * mk + c];
                    const REAL dcj = hik / rij - crij * hij;
                    const REAL dck = hij / rik - crik * hik;
                    const REAL dzj = aj * hij + fcgdex * dcj;
                    const REAL dzk = ak * hik + fcgdex * dck;
                    const REAL dzi = -(dzj + dzk);
                    const ACC fi = (ACC)(pre * dzi);
                    const ACC fj = (ACC)(pre * dzj);
                    const ACC fk = (ACC)(pre * dzk);
                    f_i[c] -= fi;
                    f_j[c] -= fj;
                    f_k[c] -= fk;
                    /* triplet virial terms, in triplet-row order */
                    for (a = 0; a < 3; a++) {
                        stress_j[3 * a + c] += d_ij[a] * fj;
                        stress_k[3 * a + c] += d_ik[a] * fk;
                    }
                }
            }
        }
    }
    info[0] = n_pairs;
    info[1] = n_triplets;
    return TERS_OK;
}

#undef TFN
