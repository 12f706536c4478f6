/* Tersoff fused computational part (paper Alg. 3) as scheme 1b (Sec.
 * IV-B/C, Figs. 1b and 2) — atoms I on threads, fused (i, j) pairs in
 * vector lanes — REAL-templated over _vec.h / _vmath.h.
 *
 * Included twice from _tersoff.c (REAL=double/TSUF=f64, then
 * REAL=float/TSUF=f32), each with the VLANES of its REAL in this build
 * (VEC_LANES_*, _common.h), as the body of the list walker
 * (_walker.c), which hands it the filtered short lists of one chunk of
 * rows.  Every short-list entry of row i inside its own inclusive
 * per-type-pair R+D cutoff is a pair (i, j), and every *other* entry —
 * one whose atom is not j — is one of its k.  The pairs of the chunk, in
 * row and list order, fill the lanes across row boundaries.  Each lane
 * walks a staged list of its own k's (the fast-forward of Sec. IV-C done
 * by the staging: no lane waits behind another's k == j), so step s of
 * the K loop is the s-th k of every lane and a lane idles only once its
 * list is done.  K loop 1 accumulates zeta per lane and keeps the
 * derivative terms of each step, the pair terms follow, K loop 2 turns
 * the kept terms into forces (after the pair terms, not before: its
 * divisions fill the latency of the zeta -> pow -> pow -> prefactor
 * chain).
 *
 * Every lane executes the scalar expression sequence of the numpy
 * oracle (repro/core/tersoff/production.py::TersoffKernel.evaluate and
 * repro/core/tersoff/functional.py) operator for operator, with the
 * same left-to-right association, on the parameters of its own (ti, tj,
 * tk); parameter-only subexpressions are formed once per chunk
 * (ters_params_) instead of once per use, which changes no bit.  zeta,
 * the pair energy and the per-atom energy accumulate in the oracle's
 * order (j and k in list order).  Nothing a lane computes depends on
 * the lanes beside it, and every sum across lanes is replayed in the
 * order of the scheme-1a kernel these results were first defined by —
 * a row's pairs in blocks of four, each block summed (0+2)+(1+3), k in
 * list order (ters_block, _tersoff.c) — so forces, per-atom energies
 * and the virial sums are the same bits at every VLANES, whatever the
 * lanes are lowered to: compile with -fno-fast-math -ffp-contract=off,
 * any -march.
 *
 * Elementwise math runs in REAL; geometry arrives in double from the
 * filter and every accumulation runs in ACC (double), matching the
 * numpy kernel's accumulate discipline.
 */

#define MV(base, row) v_load((base) + VLANES * (row))

/* the cutoff-window rows of table entry p */
static void TFN(ters_cv_fill_)(REAL *restrict v, const REAL *restrict p)
{
    v[CV_RMD] = p[P_R] - p[P_D];
    v[CV_RPD] = p[P_R] + p[P_D];
    v[CV_R] = p[P_R];
    v[CV_D] = p[P_D];
    v[CV_NQPID] = -((REAL)QUARTER_PI_D / p[P_D]);
}

/* the N_PV row of every (ti, tj) and the N_TV row of every (ti, tj, tk) */
static void TFN(ters_params_)(REAL *restrict dpv, REAL *restrict dtv, const REAL *restrict ptab,
                              const int64_t ntypes)
{
    int64_t pair, tk;
    for (pair = 0; pair < ntypes * ntypes; pair++) {
        const REAL *restrict p = ptab + N_PARAM * (pair * ntypes + pair % ntypes);
        REAL *restrict v = dpv + N_PV * pair;
        TFN(ters_cv_fill_)(v, p);
        v[PV_A] = p[P_A];
        v[PV_NLAM1] = -p[P_LAM1];
        v[PV_NB] = -p[P_B];
        v[PV_NLAM2] = -p[P_LAM2];
        v[PV_BETA] = p[P_BETA];
        v[PV_N] = p[P_N];
        v[PV_NN] = -p[P_N];
        v[PV_TWON] = (REAL)2.0 * p[P_N];
        v[PV_H2N] = (REAL)1.0 + (REAL)0.5 / p[P_N];
        v[PV_NM1] = p[P_N] - (REAL)1.0;
        v[PV_NINV2N] = (REAL)-1.0 / ((REAL)2.0 * p[P_N]);
        v[PV_C1] = p[P_C1];
        v[PV_C2] = p[P_C2];
        v[PV_C3] = p[P_C3];
        v[PV_C4] = p[P_C4];
        for (tk = 0; tk < ntypes; tk++) {
            p = ptab + N_PARAM * (pair * ntypes + tk);
            v = dtv + N_TV * (pair * ntypes + tk);
            const REAL c2 = p[P_C] * p[P_C], d2 = p[P_DD] * p[P_DD];
            /* the cubic flag is stored as a lane mask (all bits / none) */
            const IREAL cubic = p[P_M] == (REAL)3.0 ? -1 : 0;
            TFN(ters_cv_fill_)(v, p);
            v[TV_GAMMA] = p[P_GAMMA];
            v[TV_C2] = c2;
            v[TV_D2] = d2;
            v[TV_GONE] = (REAL)1.0 + c2 / d2;
            v[TV_M2C2] = -(REAL)2.0 * c2;
            v[TV_H] = p[P_H];
            v[TV_LAM3] = p[P_LAM3];
            v[TV_3LAM3] = (REAL)3.0 * p[P_LAM3];
            memcpy(v + TV_CUBIC, &cubic, sizeof cubic);
        }
    }
}

/* n rows of parameter vectors: lane l of row f is src[n * row[l] + f] */
static void TFN(ters_lanes_fill_)(REAL *restrict dst, const REAL *restrict src, const int n,
                                  const int32_t *restrict row)
{
    int f, l;
    for (f = 0; f < n; f++)
        for (l = 0; l < VLANES; l++) dst[VLANES * f + l] = src[(int64_t)n * row[l] + f];
}

/* lane l of the result is col[idx[l]], rounded to REAL */
static inline VREAL TFN(ters_gather_)(const double *restrict col, const IREAL *restrict idx)
{
    VACC v;
    int l;
    for (l = 0; l < VLANES; l++) v[l] = col[idx[l]];
    return v_from_acc(v);
}

/* The staging of a vector's K lists: per lane the entries of its row
 * whose atom is not its j, in list order, into kidx (then the lane's j,
 * to the longest list's end), and the K step of every slot into the step
 * ring (zstep: not a k).  Returns the list lengths, and in *spins Sec.
 * IV-C's fast-forward as the vector-wide loop would spin it: per K step
 * every valid lane moves its cursor over its row to its next k (or, past
 * its last, to the row's end), and the vector waits for the lane that
 * moves furthest (most[step]). */
static VMASK TFN(ters_stage_)(IREAL *restrict kidx, int32_t *restrict vstep,
                              int32_t *restrict most, const int32_t *restrict sj,
                              const VMASK ej, const VMASK at, const VMASK ns, const int nv,
                              const int32_t zstep, int64_t *steps, int64_t *spins)
{
    VMASK nk;
    int64_t e, s;
    int l;
    memset(most, 0, (size_t)(zstep + 1) * sizeof *most);
    *steps = *spins = 0;
    for (l = 0; l < VLANES; l++) {
        IREAL n = 0, from = -1;
        for (e = at[l]; e < at[l] + ns[l]; e++) {
            const int live = l < nv && sj[e] != sj[ej[l]];
            vstep[TERS_RING * (e - at[l]) + l] = live ? (int32_t)n : zstep;
            if (!live) continue;
            kidx[VLANES * n + l] = (IREAL)e;
            if (e - at[l] - from > most[n]) most[n] = (int32_t)(e - at[l] - from);
            from = (IREAL)(e - at[l]);
            n++;
        }
        if (l < nv && ns[l] - 1 - from > most[n]) most[n] = (int32_t)(ns[l] - 1 - from);
        nk[l] = n;
        if (n > *steps) *steps = n;
    }
    for (l = 0; l < VLANES; l++)
        for (s = nk[l]; s < *steps; s++) kidx[VLANES * s + l] = ej[l];
    for (s = 0; s <= *steps; s++) *spins += most[s];
    return nk;
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

/* The computational part for one chunk (a walk_kind body): the short
 * lists of its rows in, each row's F_i and e_i, the force on every slot
 * and the chunk's share of the virial sums and counters out. */
static void TFN(ters_chunk_)(const walk_job *job, walk_row *rows, const int64_t n_rows,
                             walk_acc *restrict acc, void *scratch)
{
    const int64_t ntypes = job->a.ntypes, max_row = job->a.max_row;
    const int uniform = ntypes == 1; /* one parameter row for every lane */
    const double *restrict cut = job->a.cut;
    /* the chunk's short lists, back to back (walk_row.at) */
    const double *restrict sr = rows[0].r;
    const double *const sd[3] = {rows[0].d[0], rows[0].d[1], rows[0].d[2]};
    const int32_t *restrict sj = rows[0].j, *restrict st = rows[0].t;

    /* ---- this thread's scratch (ters_layout) ---- */
    ters_layout lay;
    ters_layout_of(max_row, ntypes, VLANES, sizeof(REAL), &lay);
    double *const base = scratch;
    const int64_t mp = lay.pair_cap;
    const int32_t zstep = (int32_t)max_row; /* the K step of zeros */
    double *restrict pr = base + lay.pair; /* the pairs' columns (PAIR_DOUBLES) */
    double *const pd[3] = {pr + mp, pr + 2 * mp, pr + 3 * mp};
    int32_t *restrict prow = (int32_t *)(pr + 4 * mp), *restrict pslot = prow + mp;
    int32_t *restrict pa = pslot + mp, *restrict pn = pa + mp, *restrict ppv = pn + mp;
    int32_t *restrict pfirst = (int32_t *)(base + lay.rows); /* row -> first pair, pairs */
    int32_t *restrict npair = pfirst + ROWS_PER_CHUNK;
    IREAL *restrict kidx = (IREAL *)(base + lay.kidx);
    REAL *restrict kterm = (REAL *)(base + lay.kterm);
    int32_t *restrict kstep = (int32_t *)(base + lay.step);
    int32_t *restrict most = kstep + TERS_RING * (zstep + 1); /* after the step ring */
    ACC *restrict ubuf = base + lay.u;
    ACC *restrict obuf = base + lay.out;
    REAL *restrict pv = (REAL *)(base + lay.pv), *restrict tv = (REAL *)(base + lay.tv);
    REAL *restrict dpv = (REAL *)(base + lay.dpv), *restrict dtv = (REAL *)(base + lay.dtv);

    const VREAL zero = v_set1((REAL)0.0), one = v_set1((REAL)1.0), half = v_set1((REAL)0.5);
    const VMASK lane_id = vm_iota();
    int64_t r, e, s, q0, n_pairs = 0, next = 0;
    int a, c, l;

    /* ---- the entries of each row inside their own inclusive R+D are
     * its pairs, in list order ---- */
    for (r = 0; r < n_rows; r++) {
        walk_row *row = rows + r;
        const int64_t ti = row->ti, end = row->at + row->ns;
        for (c = 0; c < 3; c++) row->f_i[c] = 0;
        row->e_i = 0;
        pfirst[r] = (int32_t)n_pairs;
        for (e = row->at; e < end; e++) {
            const int64_t tj = st[e];
            if (!(sr[e] <= cut[((ti * ntypes + tj) * ntypes + tj)])) continue;
            pr[n_pairs] = sr[e];
            for (c = 0; c < 3; c++) pd[c][n_pairs] = sd[c][e];
            prow[n_pairs] = (int32_t)r;
            pslot[n_pairs] = (int32_t)(e - row->at);
            pa[n_pairs] = (int32_t)row->at;
            pn[n_pairs] = (int32_t)row->ns;
            ppv[n_pairs] = (int32_t)(ti * ntypes + tj);
            n_pairs++;
        }
        npair[r] = (int32_t)n_pairs - pfirst[r];
    }
    /* pad the last vector: unit distance, no displacement, the last
     * pair's row and types, a list of its j alone (no k) */
    for (e = n_pairs; n_pairs && e % VLANES; e++) {
        pr[e] = 1;
        for (c = 0; c < 3; c++) pd[c][e] = 0;
        pslot[e] = 0;
        pa[e] = pa[e - 1];
        pn[e] = 1;
        ppv[e] = ppv[e - 1];
    }
    memset(ubuf + TERS_RING * 3 * zstep, 0, TERS_RING * 3 * sizeof(ACC));
    TFN(ters_params_)(dpv, dtv, job->a.ptab, ntypes);
    if (uniform) {
        for (a = 0; a < N_PV; a++) v_store(pv + VLANES * a, v_set1(dpv[a]));
        for (a = 0; a < N_TV; a++) v_store(tv + VLANES * a, v_set1(dtv[a]));
    }

    for (q0 = 0; next < n_pairs; q0 += VLANES) {
        /* ---- replay every block of four pairs of a row that the vectors
         * before this one finished (their columns are out of the store
         * buffer by now) ---- */
        while (next < n_pairs) {
            const int64_t end = pfirst[prow[next]] + npair[prow[next]];
            const int nb = (int)(end - next < SUM_LANES ? end - next : SUM_LANES);
            const double *const d[3] = {pd[0] + next, pd[1] + next, pd[2] + next};
            if (next + nb > q0) break;
            ters_block(rows + prow[next], nb, pslot + next, d, next % TERS_RING, obuf, ubuf, kstep,
                       zstep, acc);
            next += nb;
        }
        if (q0 >= n_pairs) continue;
        const int nv = n_pairs - q0 < VLANES ? (int)(n_pairs - q0) : VLANES;
        const int64_t x = q0 % TERS_RING; /* the vector's lanes in the rings */
        const VMASK valid = lane_id < vm_set1(nv);
        const VMASK at = vm_load_i32(pa + q0), ns = vm_load_i32(pn + q0);
        const VMASK ej = at + vm_load_i32(pslot + q0);
        VMASK nk;
        VACC rij_acc, dij_acc[3];
        int64_t steps, spins;

        /* ---- stage each lane's own k's — the entries of its row whose
         * atom is not its j — and the K step of every slot ---- */
        nk = TFN(ters_stage_)(kidx, kstep + x, most, sj, ej, at, ns, nv, zstep, &steps, &spins);
        for (l = 0; l < nv; l++) acc->count[1] += nk[l];
        acc->count[3] += spins;
        memcpy(&rij_acc, pr + q0, sizeof rij_acc);
        for (c = 0; c < 3; c++) memcpy(&dij_acc[c], pd[c] + q0, sizeof rij_acc);

        const VREAL rij = v_from_acc(rij_acc);
        VREAL dij[3], hij[3];
        for (c = 0; c < 3; c++) {
            dij[c] = v_from_acc(dij_acc[c]);
            hij[c] = dij[c] / rij;
        }
        if (!uniform) TFN(ters_lanes_fill_)(pv, dpv, N_PV, ppv + q0);

        /* ---- K loop 1: zeta and the derivative terms of each step ---- */
        VACC zeta = v_to_acc(zero);
        for (s = 0; s < steps; s++) {
            const IREAL *restrict ki = kidx + VLANES * s;
            const VMASK live = valid & (vm_set1((IREAL)s) < nk);
            if (!uniform) {
                int32_t ltv[VLANES];
                for (l = 0; l < VLANES; l++) ltv[l] = ppv[q0 + l] * (int32_t)ntypes + st[ki[l]];
                TFN(ters_lanes_fill_)(tv, dtv, N_TV, ltv);
            }
            const VREAL rik = TFN(ters_gather_)(sr, ki);
            VREAL dik[3];
            for (c = 0; c < 3; c++) dik[c] = TFN(ters_gather_)(sd[c], ki);
            const VREAL cos_t =
                DOT3_EINSUM(dij[0] * dik[0], dij[1] * dik[1], dij[2] * dik[2]) / (rij * rik);
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

            REAL *restrict ks = kterm + VLANES * N_KTERM * s;
            v_store(ks + VLANES * K_COS, cos_t);
            v_store(ks + VLANES * K_FCGDEX, fcik * gd * ex);
            v_store(ks + VLANES * K_AJ, contrib * exld);
            v_store(ks + VLANES * K_AK, fcdik * g * ex - contrib * exld);
            v_store(ks + VLANES * K_RIK, rik);
            /* d / r as the scalar filter's copy formed it: one division */
            for (c = 0; c < 3; c++) v_store(ks + VLANES * (K_HIK + c), dik[c] / rik);
        }

        /* ---- pair terms ---- */
        VREAL fcij, fcdij, bij, bijd;
        TFN(ters_fc_both_)(rij, pv, valid, &fcij, &fcdij);
        const VREAL fr = MV(pv, PV_A) * TFN(vm_exp_)(MV(pv, PV_NLAM1) * rij);
        const VREAL frd = MV(pv, PV_NLAM1) * fr;
        const VREAL fa = MV(pv, PV_NB) * TFN(vm_exp_)(MV(pv, PV_NLAM2) * rij);
        const VREAL fad = MV(pv, PV_NLAM2) * fa;
        TFN(ters_bij_both_)(v_from_acc(zeta), pv, valid, &bij, &bijd);

        const VREAL e_pair = half * fcij * (fr + bij * fa);
        const VREAL dE = half * (fcdij * (fr + bij * fa) + fcij * (frd + bij * fad));
        const VREAL fp = v_sel(valid, -dE / rij, zero);
        const VREAL pre = v_sel(valid, half * fcij * fa * bijd, zero); /* dV/dzeta */

        /* ---- K loop 2: zeta-derivative force terms, F_k by K step ---- */
        VACC f_it[3], f_jt[3];
        for (c = 0; c < 3; c++) f_it[c] = f_jt[c] = v_to_acc(zero);
        for (s = 0; s < steps; s++) {
            const REAL *restrict ks = kterm + VLANES * N_KTERM * s;
            const VMASK live = valid & (vm_set1((IREAL)s) < nk);
            const VREAL pre_k = v_sel(live, pre, zero);
            const VREAL rik = MV(ks, K_RIK);
            const VREAL cos_t = MV(ks, K_COS), fcgdex = MV(ks, K_FCGDEX);
            const VREAL aj = MV(ks, K_AJ), ak = MV(ks, K_AK);
            const VREAL crij = cos_t / rij;
            const VREAL crik = cos_t / rik;
            for (c = 0; c < 3; c++) {
                const VREAL hik = MV(ks, K_HIK + c);
                const VREAL dcj = hik / rij - crij * hij[c];
                const VREAL dck = hij[c] / rik - crik * hik;
                const VREAL dzj = aj * hij[c] + fcgdex * dcj;
                const VREAL dzk = ak * hik + fcgdex * dck;
                const VREAL dzi = -(dzj + dzk);
                f_it[c] += v_to_acc(pre_k * dzi);
                f_jt[c] += v_to_acc(pre_k * dzj);
                const VACC uk = v_to_acc(pre_k * dzk);
                memcpy(ubuf + TERS_RING * (3 * s + c) + x, &uk, sizeof uk);
            }
        }

        /* ---- out: what the replay of the lanes' blocks reads ---- */
        const VACC e_acc = v_to_acc(e_pair);
        for (c = 0; c < 3; c++) {
            const VACC fv = v_to_acc(fp * dij[c]);
            const VACC vi = fv + f_it[c], fj = fv - f_jt[c];
            memcpy(obuf + TERS_RING * (O_VI + c) + x, &vi, sizeof vi);
            memcpy(obuf + TERS_RING * (O_FJ + c) + x, &fj, sizeof fj);
            memcpy(obuf + TERS_RING * (O_FV + c) + x, &fv, sizeof fv);
            memcpy(obuf + TERS_RING * (O_JT + c) + x, &f_jt[c], sizeof fv);
        }
        memcpy(obuf + TERS_RING * O_E + x, &e_acc, sizeof e_acc);
        acc->count[0] += nv;
        acc->count[2] += steps + 1;

    }
}

static int64_t TFN(ters_scratch_)(const int64_t max_row, const int64_t ntypes)
{
    ters_layout lay;
    ters_layout_of(max_row, ntypes, VLANES, sizeof(REAL), &lay);
    return lay.total;
}

static const walk_kind TFN(ters_kind_) = {TFN(ters_chunk_), TFN(ters_scratch_), 0, VLANES, "1b"};

WALK_ENTRY(TFN(tersoff_fused_), TFN(ters_kind_))

#undef MV
