/* Tersoff fused computational part (paper Alg. 3) as scheme 1a (Sec.
 * IV-B, Fig. 1a) — atoms I on threads, neighbors J in vector lanes —
 * REAL-templated over _vec.h / _vmath.h.
 *
 * Included twice from _tersoff.c (REAL=double/TSUF=f64, then
 * REAL=float/TSUF=f32) as the body of the list walker (_walker.c).  Per
 * atom i the walker's filter leaves the max-cutoff short list; every
 * entry inside its own inclusive per-type-pair R+D cutoff is a pair
 * (i,j), and every *other* short-list entry is one of its k.  The pairs
 * of the atom sit VLANES to a vector (J -> lanes); the K loop walks the
 * one short list for all lanes at once, so everything about k is a
 * broadcast and the `k is not j` test is the lane mask.  K loop 1
 * accumulates zeta per lane and caches the derivative terms of each k
 * body that fired, the pair terms follow, K loop 2 turns the cached
 * terms into forces (after the pair terms, not before: its divisions
 * fill the latency of the zeta -> pow -> pow -> prefactor chain).  F_j
 * (lane by lane) and F_k (an in-register reduction per k) go to the
 * walker's per-slot partials, F_i and the energy to the row.
 *
 * Every lane executes the scalar expression sequence of the numpy
 * oracle (repro/core/tersoff/production.py::TersoffKernel.evaluate and
 * repro/core/tersoff/functional.py) operator for operator, with the
 * same left-to-right association; parameter-only subexpressions are
 * formed once per parameter row (ters_memo_fill) instead of once per
 * use, which changes no bit.  zeta, the pair energy and the per-atom
 * energy therefore accumulate in exactly the oracle's order (i
 * ascending, j and k in list order); what differs from it is the
 * transcendental kernels (_vmath.h instead of numpy's SIMD loops) and
 * the order of the force and virial sums (DESIGN.md §12).  Nothing here
 * depends on what the four lanes are lowered to: compile with
 * -fno-fast-math -ffp-contract=off, any -march.
 *
 * Elementwise math runs in REAL; geometry arrives in double from the
 * filter and every accumulation runs in ACC (double), matching the
 * numpy kernel's accumulate discipline.
 */

#define MV(base, row) v_load((base) + VLANES * (row))

static void TFN(ters_memo_fill_)(REAL *restrict memo, const REAL *restrict ptab,
                                 const int64_t ntypes, const int64_t ti,
                                 const int32_t *restrict tj)
{
    int l;
    int64_t tk;
    for (l = 0; l < VLANES; l++) {
        const int64_t row = (ti * ntypes + tj[l]) * ntypes;
        for (tk = -1; tk < ntypes; tk++) { /* -1: the pair rows */
            const REAL *restrict p = ptab + N_PARAM * (row + (tk < 0 ? tj[l] : tk));
            REAL *restrict v = memo + (tk < 0 ? 0 : VLANES * (N_PV + tk * N_TV)) + l;
            v[VLANES * CV_RMD] = p[P_R] - p[P_D];
            v[VLANES * CV_RPD] = p[P_R] + p[P_D];
            v[VLANES * CV_R] = p[P_R];
            v[VLANES * CV_D] = p[P_D];
            v[VLANES * CV_NQPID] = -((REAL)QUARTER_PI_D / p[P_D]);
            if (tk < 0) {
                v[VLANES * PV_A] = p[P_A];
                v[VLANES * PV_NLAM1] = -p[P_LAM1];
                v[VLANES * PV_NB] = -p[P_B];
                v[VLANES * PV_NLAM2] = -p[P_LAM2];
                v[VLANES * PV_BETA] = p[P_BETA];
                v[VLANES * PV_N] = p[P_N];
                v[VLANES * PV_NN] = -p[P_N];
                v[VLANES * PV_TWON] = (REAL)2.0 * p[P_N];
                v[VLANES * PV_H2N] = (REAL)1.0 + (REAL)0.5 / p[P_N];
                v[VLANES * PV_NM1] = p[P_N] - (REAL)1.0;
                v[VLANES * PV_NINV2N] = (REAL)-1.0 / ((REAL)2.0 * p[P_N]);
                v[VLANES * PV_C1] = p[P_C1];
                v[VLANES * PV_C2] = p[P_C2];
                v[VLANES * PV_C3] = p[P_C3];
                v[VLANES * PV_C4] = p[P_C4];
            } else {
                const REAL c2 = p[P_C] * p[P_C], d2 = p[P_DD] * p[P_DD];
                /* the cubic flag is stored as a lane mask (all bits / none) */
                const IREAL cubic = p[P_M] == (REAL)3.0 ? -1 : 0;
                v[VLANES * TV_GAMMA] = p[P_GAMMA];
                v[VLANES * TV_C2] = c2;
                v[VLANES * TV_D2] = d2;
                v[VLANES * TV_GONE] = (REAL)1.0 + c2 / d2;
                v[VLANES * TV_M2C2] = -(REAL)2.0 * c2;
                v[VLANES * TV_H] = p[P_H];
                v[VLANES * TV_LAM3] = p[P_LAM3];
                v[VLANES * TV_3LAM3] = (REAL)3.0 * p[P_LAM3];
                memcpy(v + VLANES * TV_CUBIC, &cubic, sizeof cubic);
            }
        }
    }
}

/* fC and fC' of the lanes `live`.  numpy: where(r < R-D, 1, where(r >
 * R+D, 0, 0.5*(1-sin(clip(arg))))).  The polynomials run only when a
 * live lane is past R-D; every lane's result is the same either way. */
static inline void TFN(ters_fc_both_)(const VREAL r, const REAL *restrict cv, const VMASK live,
                                      VREAL *fc, VREAL *fcd)
{
    const VREAL zero = v_set1((REAL)0.0), one = v_set1((REAL)1.0);
    const VREAL half_pi = v_set1((REAL)HALF_PI_D);
    const VMASK inner = r < MV(cv, CV_RMD);
    *fc = one;
    *fcd = zero;
    if (!vm_any(live & ~inner)) return;
    const VMASK outer = r > MV(cv, CV_RPD);
    const VREAL arg = half_pi * (r - MV(cv, CV_R)) / MV(cv, CV_D);
    VREAL clip = v_sel(arg < -half_pi, -half_pi, arg);
    clip = v_sel(clip > half_pi, half_pi, clip);
    const VREAL mid = v_set1((REAL)0.5) * (one - TFN(vm_sin_)(clip));
    *fc = v_sel(inner, one, v_sel(outer, zero, mid));
    *fcd = v_sel(inner | outer, zero, MV(cv, CV_NQPID) * TFN(vm_cos_)(arg));
}

/* b_order / b_order_d fused: the np.where override chain as lane masks
 * in priority order (last-applied numpy where wins -> first mask):
 * tmp>c1, tmp>c2, tmp<c4, tmp<c3, else exact; a branch is evaluated
 * only when a live lane takes it.  Shared subexpressions (sqrt, pow)
 * are numpy-identical CSE — numpy computes them twice with identical
 * inputs.  One intentional algebraic deviation, for half the pow
 * traffic on the dominant branch: the derivative's pow(1+x, -1-q) is
 * computed as pow(1+x, -q)/(1+x) (exact in real arithmetic, ~1 ULP in
 * float).  It only feeds the dV/dzeta prefactor, i.e. triplet
 * forces/stress, whose equivalence contract is norm-scaled, not
 * elementwise-ULP (DESIGN.md §12); b_ij itself — the energy path —
 * keeps numpy's exact expression. */
static inline void TFN(ters_bij_both_)(const VREAL z, const REAL *restrict pv, const VMASK live,
                                       VREAL *bij, VREAL *bijd)
{
    const VREAL one = v_set1((REAL)1.0), mhalf = v_set1((REAL)-0.5);
    const VREAL tiny = v_set1((REAL)1.0e-300);
    const VREAL beta = MV(pv, PV_BETA), nn = MV(pv, PV_N);
    const VREAL tmp = beta * z;
    const VREAL tmp_safe = v_sel(tmp > tiny, tmp, tiny);
    const VMASK large = tmp > MV(pv, PV_C1);
    const VMASK large2 = ~large & (tmp > MV(pv, PV_C2));
    const VMASK unit = ~(large | large2) & (tmp < MV(pv, PV_C4));
    const VMASK small2 = ~(large | large2 | unit) & (tmp < MV(pv, PV_C3));
    const VMASK exact = ~(large | large2 | unit | small2);
    VREAL b = one, bd = v_set1((REAL)0.0); /* the unit branch */
    if (vm_any(live & (large | large2))) {
        const VREAL s = v_sqrt(tmp_safe);
        const VREAL dl = mhalf / (tmp_safe * s);
        b = v_sel(large, one / s, b);
        bd = v_sel(large, beta * dl, bd);
        if (vm_any(live & large2)) {
            const VREAL tmp_mn = TFN(vm_pow_)(tmp_safe, MV(pv, PV_NN));
            b = v_sel(large2, (one - tmp_mn / MV(pv, PV_TWON)) / s, b);
            bd = v_sel(large2, beta * (dl * (one - MV(pv, PV_H2N) * tmp_mn)), bd);
        }
    }
    if (vm_any(live & (small2 | exact))) {
        const VREAL tmp_n = TFN(vm_pow_)(tmp_safe, nn);
        if (vm_any(live & small2)) {
            b = v_sel(small2, one - tmp_n / MV(pv, PV_TWON), b);
            bd = v_sel(small2, mhalf * beta * TFN(vm_pow_)(tmp_safe, MV(pv, PV_NM1)), bd);
        }
        if (vm_any(live & exact)) {
            const VREAL zeta_safe = v_sel(z > tiny, z, tiny);
            const VREAL be = TFN(vm_pow_)(one + tmp_n, MV(pv, PV_NINV2N));
            b = v_sel(exact, be, b);
            bd = v_sel(exact, mhalf * (be / (one + tmp_n)) * tmp_n / zeta_safe, bd);
        }
    }
    *bij = b;
    *bijd = bd;
}

/* The computational part for one row (a walk_kind body): the short list
 * of atom i in, F_i, e_i, the force on every slot and the row's share of
 * the chunk's virial sums and counters out. */
static void TFN(ters_row_)(const walk_job *job, walk_row *row, walk_acc *restrict acc,
                           void *scratch)
{
    const int64_t ntypes = job->ntypes, ti = row->ti, ns = row->ns;
    const double *restrict cut = job->cut;
    const REAL *restrict ptab = job->ptab;
    const double *restrict sr = row->r;
    const double *const *sd = row->d;
    const int32_t *restrict sj = row->j, *restrict st = row->t;
    ACC *restrict fs = row->f;

    /* ---- this thread's scratch: SoA, every row padded to whole vectors ---- */
    const int64_t mr = (job->max_row + VLANES - 1) / VLANES * VLANES;
    double *restrict pr = scratch;                 /* pair list: r, d  */
    double *const pd[3] = {pr + mr, pr + 2 * mr, pr + 3 * mr};
    REAL *restrict kr = (REAL *)(pr + 4 * mr);     /* k geometry in REAL: r, d, d / r */
    REAL *const kd[3] = {kr + mr, kr + 2 * mr, kr + 3 * mr};
    REAL *const kh[3] = {kr + 4 * mr, kr + 5 * mr, kr + 6 * mr};
    REAL *restrict kterm = kr + 7 * mr;            /* N_KTERM vectors per fired k */
    IREAL *restrict pj = (IREAL *)(kterm + N_KTERM * VLANES * mr); /* pair j, lane-mask width */
    int32_t *restrict ptj = (int32_t *)(pj + mr);
    int32_t *restrict pslot = ptj + mr;            /* short-list slot of each pair */
    int32_t *restrict kslot = pslot + mr;          /* short-list slot of each fired k */
    REAL *restrict memo = (REAL *)((double *)scratch + mr * ROW_DOUBLES);
    /* 0: no entry yet (the scratch starts every call zeroed) */
    int64_t *restrict memo_key = (int64_t *)(memo + ntypes * MEMO_REALS(ntypes));

    const VREAL zero = v_set1((REAL)0.0), one = v_set1((REAL)1.0), half = v_set1((REAL)0.5);
    const VMASK lane_id = {0, 1, 2, 3};
    ACC f_i[3] = {0, 0, 0}, e_i = 0;
    int64_t q, q0, mk, s;
    int a, c, l;

    /* REAL copies of the k geometry; the entries inside their own
     * inclusive R+D are the pairs, packed densely in list order */
    int64_t np = 0;
    for (mk = 0; mk < ns; mk++) {
        const int64_t tj = st[mk];
        kr[mk] = (REAL)sr[mk];
        for (c = 0; c < 3; c++) {
            kd[c][mk] = (REAL)sd[c][mk];
            kh[c][mk] = (REAL)sd[c][mk] / (REAL)sr[mk];
        }
        if (!(sr[mk] <= cut[((ti * ntypes + tj) * ntypes + tj)])) continue;
        pr[np] = sr[mk];
        for (c = 0; c < 3; c++) pd[c][np] = sd[c][mk];
        pj[np] = sj[mk];
        ptj[np] = (int32_t)tj;
        pslot[np] = (int32_t)mk;
        np++;
    }
    /* pad the last block: unit distance, no atom, the type of its lane 0 */
    for (q = np; q % VLANES; q++) {
        pr[q] = 1;
        for (c = 0; c < 3; c++) pd[c][q] = 0;
        pj[q] = -1;
        ptj[q] = ptj[np - np % VLANES];
    }

    for (q0 = 0; q0 < np; q0 += VLANES) {
        const int nv = np - q0 < VLANES ? (int)(np - q0) : VLANES;
        const VMASK valid = lane_id < vm_set1(nv);
        const VMASK jv = vm_load(pj + q0);
        const vacc dij_acc[3] = {vacc_load(pd[0] + q0), vacc_load(pd[1] + q0),
                                 vacc_load(pd[2] + q0)};
        const VREAL rij = v_from_acc(vacc_load(pr + q0));
        VREAL dij[3], hij[3];
        for (c = 0; c < 3; c++) {
            dij[c] = v_from_acc(dij_acc[c]);
            hij[c] = dij[c] / rij;
        }

        /* parameter vectors of this block, rebuilt only when (ti, tj
         * lanes) changes: once per call and thread on a single-species
         * system */
        int64_t key = 1;
        for (l = VLANES - 1; l >= 0; l--) key = key * ntypes + ptj[q0 + l];
        REAL *restrict pv = memo + ti * MEMO_REALS(ntypes);
        if (memo_key[ti] != key) {
            TFN(ters_memo_fill_)(pv, ptab, ntypes, ti, ptj + q0);
            memo_key[ti] = key;
        }

        /* ---- K loop 1: zeta and its cached derivative terms ---- */
        vacc zeta = vacc_set1(0);
        int64_t nk = 0;
        for (mk = 0; mk < ns; mk++) {
            const VMASK live = valid & (jv != vm_set1(sj[mk]));
            const int n_live = vm_count(live);
            if (!n_live) continue;
            acc->count[1] += n_live;
            const REAL *restrict tv = pv + VLANES * (N_PV + st[mk] * N_TV);
            const VREAL rik = v_set1(kr[mk]);
            const VREAL cos_t = DOT3_EINSUM(dij[0] * v_set1(kd[0][mk]),
                                            dij[1] * v_set1(kd[1][mk]),
                                            dij[2] * v_set1(kd[2][mk])) / (rij * rik);
            VREAL fcik, fcdik;
            TFN(ters_fc_both_)(rik, tv, live, &fcik, &fcdik);

            const VREAL hcth = MV(tv, TV_H) - cos_t;
            const VREAL denom = MV(tv, TV_D2) + hcth * hcth;
            const VREAL g = MV(tv, TV_GAMMA) * (MV(tv, TV_GONE) - MV(tv, TV_C2) / denom);
            const VREAL gd = MV(tv, TV_GAMMA) * (MV(tv, TV_M2C2) * hcth) / (denom * denom);

            /* zeta_exp / zeta_exp_d_over, exponent clamped at +69;
             * exp(+-0) is exactly 1, so lam3 == 0 skips the polynomial */
            const VMASK cubic = (VMASK)MV(tv, TV_CUBIC);
            const VREAL top = v_set1((REAL)69.0);
            const VREAL ld = MV(tv, TV_LAM3) * (rij - rik);
            const VREAL expo = v_sel(cubic, ld * ld * ld, ld);
            VREAL ex = one;
            if (vm_any(live & (expo != zero)))
                ex = v_sel(expo == zero, one, TFN(vm_exp_)(v_sel(expo < top, expo, top)));
            const VREAL exld = v_sel(expo >= top, zero,
                                     v_sel(cubic, MV(tv, TV_3LAM3) * ld * ld, MV(tv, TV_LAM3)));

            const VREAL contrib = fcik * g * ex;
            zeta += v_to_acc(v_sel(live, contrib, zero));

            REAL *restrict ks = kterm + VLANES * N_KTERM * nk;
            v_store(ks + VLANES * K_COS, cos_t);
            v_store(ks + VLANES * K_FCGDEX, fcik * gd * ex);
            v_store(ks + VLANES * K_AJ, contrib * exld);
            v_store(ks + VLANES * K_AK, fcdik * g * ex - contrib * exld);
            kslot[nk++] = (int32_t)mk;
        }

        /* ---- pair terms ---- */
        VREAL fcij, fcdij, bij, bijd;
        TFN(ters_fc_both_)(rij, pv, valid, &fcij, &fcdij);
        const VREAL fr = MV(pv, PV_A) * TFN(vm_exp_)(MV(pv, PV_NLAM1) * rij);
        const VREAL frd = MV(pv, PV_NLAM1) * fr;
        const VREAL fa = MV(pv, PV_NB) * TFN(vm_exp_)(MV(pv, PV_NLAM2) * rij);
        const VREAL fad = MV(pv, PV_NLAM2) * fa;
        TFN(ters_bij_both_)(v_from_acc(zeta), pv, valid, &bij, &bijd);

        const VREAL e = half * fcij * (fr + bij * fa);
        const VREAL dE = half * (fcdij * (fr + bij * fa) + fcij * (frd + bij * fad));
        const VREAL fp = v_sel(valid, -dE / rij, zero);
        const VREAL pre = v_sel(valid, half * fcij * fa * bijd, zero); /* dV/dzeta */

        /* ---- K loop 2: zeta-derivative force terms; a lane whose j is
         * this k holds finite garbage and is scaled by exactly zero ---- */
        vacc f_it[3], f_jt[3];
        for (c = 0; c < 3; c++) f_it[c] = f_jt[c] = vacc_set1(0);
        for (s = 0; s < nk; s++) {
            const REAL *restrict ks = kterm + VLANES * N_KTERM * s;
            mk = kslot[s];
            const VREAL pre_k = v_sel(jv != vm_set1(sj[mk]), pre, zero);
            const VREAL rik = v_set1(kr[mk]);
            const VREAL cos_t = MV(ks, K_COS), fcgdex = MV(ks, K_FCGDEX);
            const VREAL aj = MV(ks, K_AJ), ak = MV(ks, K_AK);
            const VREAL crij = cos_t / rij;
            const VREAL crik = cos_t / rik;
            for (c = 0; c < 3; c++) {
                const VREAL hik = v_set1(kh[c][mk]);
                const VREAL dcj = hik / rij - crij * hij[c];
                const VREAL dck = hij[c] / rik - crik * hik;
                const VREAL dzj = aj * hij[c] + fcgdex * dcj;
                const VREAL dzk = ak * hik + fcgdex * dck;
                const VREAL dzi = -(dzj + dzk);
                f_it[c] += v_to_acc(pre_k * dzi);
                f_jt[c] += v_to_acc(pre_k * dzj);
                const ACC fk = vacc_hsum(v_to_acc(pre_k * dzk));
                fs[3 * mk + c] -= fk;
                for (a = 0; a < 3; a++) acc->k[3 * a + c] += sd[a][mk] * fk;
            }
        }

        /* ---- out: F_i by reduction, F_j and e lane by lane ---- */
        const vacc e_acc = v_to_acc(e);
        for (c = 0; c < 3; c++) {
            const vacc fv = v_to_acc(fp * dij[c]);
            f_i[c] -= vacc_hsum(fv + f_it[c]);
            for (l = 0; l < nv; l++) fs[3 * pslot[q0 + l] + c] += fv[l] - f_jt[c][l];
            /* virial W_ab += d_a F_b, summed per lane */
            for (a = 0; a < 3; a++) {
                acc->lane[3 * a + c] += dij_acc[a] * fv;
                acc->lane[9 + 3 * a + c] += dij_acc[a] * f_jt[c];
            }
        }
        for (l = 0; l < nv; l++) e_i += e_acc[l];
        acc->count[0] += nv;
        acc->count[2] += nk + 1;
    }

    for (c = 0; c < 3; c++) row->f_i[c] = f_i[c];
    row->e_i = e_i;
}

static const walk_kind TFN(ters_kind_) = {TFN(ters_row_), ters_scratch, 0};

WALK_ENTRY(TFN(tersoff_fused_), TFN(ters_kind_))

#undef MV
