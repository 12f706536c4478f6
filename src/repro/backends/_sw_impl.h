/* Stillinger-Weber computational part as a list-walker body, REAL-
 * templated over _vec.h / _vmath.h; included twice from _sw.c.
 *
 * Per row, the pairs: the short list in VLANES lanes, phi2 and its
 * derivative, the force on each slot lane by lane, and the two tail
 * factors of phi3 per slot (they depend on one distance each).  Then the
 * triplets: every unordered (j, k) of the short list, j before k in list
 * order and not the same atom — j broadcast, the k after it VLANES to a
 * vector — phi3 and its partials, F_k to its slot lane by lane and F_j
 * by a reduction per j.
 *
 * Every lane executes the scalar expression sequence of the numpy oracle
 * (repro/core/sw/production.py::SWKernel.evaluate and
 * repro/core/sw/functional.py) operator for operator, with the same
 * left-to-right association and the same _MIN_GAP clamp of the tails;
 * parameter-only subexpressions come formed from the table.  The pair
 * and the triplet energies of atom i accumulate in the oracle's order (j
 * and k in list order) and in ACC, as its bincounts do; what differs
 * from it is the transcendental kernels (_vmath.h) and the order of the
 * force and virial sums (DESIGN.md §12).
 */

#define SV(p, name) v_set1((p)[name])

/* exp(s / (r - cut)) for r < cut - _MIN_GAP, else 0, and its log-
 * derivative -s / (r - cut)^2 (functional._tail) */
static inline void TFN(sw_tail_)(const VREAL r, const REAL *restrict p, const int which,
                                 VREAL *value, VREAL *log_d)
{
    const VREAL zero = v_set1((REAL)0.0);
    const VMASK inside = r < SV(p, S_CUT_IN);
    const VREAL gap = v_sel(inside, r - SV(p, S_CUT), v_set1((REAL)-1.0));
    const VREAL q = SV(p, which ? S_GSIGMA : S_SIGMA) / gap;
    const VREAL floor = v_set1((REAL)-69.0);
    *value = v_sel(inside, TFN(vm_exp_)(v_sel(q < floor, floor, q)), zero);
    *log_d = v_sel(inside, SV(p, which ? S_NGSIGMA : S_NSIGMA) / (gap * gap), zero);
}

static void TFN(sw_row_)(const walk_job *job, walk_row *row, walk_acc *restrict acc,
                         void *scratch)
{
    const REAL *restrict p = job->a.ptab;
    const int64_t ns = row->ns, mr = job->a.max_row + VLANES; /* room for a block past ns */
    const double *restrict sr = row->r;
    const double *const *sd = row->d;
    const int32_t *restrict sj = row->j;
    /* REAL r, d, d / r, the phi3 tails; the double d for the accumulator lanes */
    REAL *restrict rr = scratch;
    REAL *const rd[3] = {rr + mr, rr + 2 * mr, rr + 3 * mr};
    REAL *const rh[3] = {rr + 4 * mr, rr + 5 * mr, rr + 6 * mr};
    REAL *restrict g3 = rr + 7 * mr, *restrict gl3 = rr + 8 * mr;
    double *restrict dd = (double *)scratch + 9 * mr;
    const VMASK lane_id = vm_iota();
    const VREAL zero = v_set1((REAL)0.0);
    vacc f_i[3] = {vacc_set1(0), vacc_set1(0), vacc_set1(0)};
    ACC e_pair = 0, e_tri = 0;
    int64_t m, k0, q0;
    int a, c, l;

    for (m = 0; m < ns; m++) {
        rr[m] = (REAL)sr[m];
        for (c = 0; c < 3; c++) {
            rd[c][m] = (REAL)sd[c][m];
            rh[c][m] = (REAL)sd[c][m] / (REAL)sr[m];
            dd[c * mr + m] = sd[c][m];
        }
    }
    /* pad one block past the list: unit distance, no displacement, no tail */
    for (m = ns; m < ns + VLANES; m++) {
        rr[m] = 1;
        g3[m] = gl3[m] = 0;
        for (c = 0; c < 3; c++) rd[c][m] = rh[c][m] = dd[c * mr + m] = 0;
    }

    /* ---- pairs ---- */
    for (q0 = 0; q0 < ns; q0 += VLANES) {
        const int nv = ns - q0 < VLANES ? (int)(ns - q0) : VLANES;
        const VMASK valid = lane_id < vm_set1(nv);
        const VREAL r = v_load(rr + q0);
        VREAL tail, tail_ld, g, g_ld;
        TFN(sw_tail_)(r, p, 0, &tail, &tail_ld);
        TFN(sw_tail_)(r, p, 1, &g, &g_ld);
        v_store(g3 + q0, v_sel(valid, g, zero));
        v_store(gl3 + q0, v_sel(valid, g_ld, zero));
        /* (sigma/r)^p and ^q: vm_pow_ twice, its log formed once */
        const VREAL log_s = TFN(vm_log_)(SV(p, S_SIGMA) / r);
        const VREAL sp = TFN(vm_exp_)(SV(p, S_P) * log_s), sq = TFN(vm_exp_)(SV(p, S_Q) * log_s);
        const VREAL poly = SV(p, S_B) * sp - sq;
        const VREAL dpoly = (SV(p, S_NPB) * sp + SV(p, S_Q) * sq) / r;
        const VREAL e2 = SV(p, S_AE) * poly * tail;
        const VREAL de2 = SV(p, S_AE) * (dpoly * tail + poly * tail * tail_ld);
        const vacc fpair = v_to_acc(v_sel(valid, v_set1((REAL)-0.5) * de2 / r, zero));
        const vacc e_acc = v_to_acc(e2);
        for (c = 0; c < 3; c++) {
            const vacc fv = fpair * vacc_load(dd + c * mr + q0);
            f_i[c] -= fv;
            for (l = 0; l < nv; l++) row->f[3 * row->q[q0 + l] + c] += fv[l];
            /* virial W_ab += d_a F_b, summed per lane */
            for (a = 0; a < 3; a++) acc->lane[3 * a + c] += vacc_load(dd + a * mr + q0) * fv;
        }
        for (l = 0; l < nv; l++) e_pair += (ACC)0.5 * e_acc[l];
        acc->count[0] += nv;
        acc->count[2] += 1;
    }

    /* ---- triplets: each j broadcast, the k after it in list order in
     * VLANES lanes; a k that is j's atom is no triplet (lane mask) ---- */
    for (m = 0; m + 1 < ns; m++) {
        const VREAL rij = v_set1(rr[m]), gij = v_set1(g3[m]), glij = v_set1(gl3[m]);
        VREAL dij[3], hij[3];
        vacc dj[3], gj_sum[3];
        for (c = 0; c < 3; c++) {
            dij[c] = v_set1(rd[c][m]);
            hij[c] = v_set1(rh[c][m]);
            dj[c] = vacc_set1(sd[c][m]);
            gj_sum[c] = vacc_set1(0);
        }
        for (k0 = m + 1; k0 < ns; k0 += VLANES) {
            const int nk = ns - k0 < VLANES ? (int)(ns - k0) : VLANES;
            VMASK valid = lane_id < vm_set1(nk);
            for (l = 0; l < nk; l++)
                if (sj[k0 + l] == sj[m]) valid[l] = 0;
            const VREAL rik = v_load(rr + k0), gik = v_load(g3 + k0);
            VREAL dik[3], hik[3];
            for (c = 0; c < 3; c++) {
                dik[c] = v_load(rd[c] + k0);
                hik[c] = v_load(rh[c] + k0);
            }
            const VREAL cos_t =
                DOT3_EINSUM(dij[0] * dik[0], dij[1] * dik[1], dij[2] * dik[2]) / (rij * rik);
            const VREAL delta = cos_t - SV(p, S_COS0);
            const VREAL e3 = SV(p, S_LE) * delta * delta * gij * gik;
            const VREAL de_drij = e3 * glij, de_drik = e3 * v_load(gl3 + k0);
            const VREAL de_dcos = SV(p, S_2LE) * delta * gij * gik;
            const VREAL crij = cos_t / rij, crik = cos_t / rik;
            for (c = 0; c < 3; c++) {
                /* -F_j and -F_k of the lanes */
                const vacc gj = v_to_acc(v_sel(
                    valid, de_drij * hij[c] + de_dcos * (hik[c] / rij - crij * hij[c]), zero));
                const vacc gk = v_to_acc(v_sel(
                    valid, de_drik * hik[c] + de_dcos * (hij[c] / rik - crik * hik[c]), zero));
                gj_sum[c] += gj;
                f_i[c] += gj + gk;
                for (l = 0; l < nk; l++) row->f[3 * row->q[k0 + l] + c] -= gk[l];
                for (a = 0; a < 3; a++)
                    acc->lane[9 + 3 * a + c] += dj[a] * gj + vacc_load(dd + a * mr + k0) * gk;
            }
            const vacc e_acc = v_to_acc(e3);
            for (l = 0; l < nk; l++)
                if (valid[l]) e_tri += e_acc[l];
            acc->count[1] += vm_count(valid);
            acc->count[2] += 1;
        }
        for (c = 0; c < 3; c++) row->f[3 * row->q[m] + c] -= vacc_hsum(gj_sum[c]);
    }
    for (c = 0; c < 3; c++) row->f_i[c] = vacc_hsum(f_i[c]);
    row->e_i = e_pair + e_tri;
}

/* the body of a chunk: its rows one after the other */
static void TFN(sw_chunk_)(const walk_job *job, walk_row *rows, const int64_t n_rows,
                           walk_acc *restrict acc, void *scratch)
{
    int64_t r;
    for (r = 0; r < n_rows; r++) TFN(sw_row_)(job, rows + r, acc, scratch);
}

static const walk_kind TFN(sw_kind_) = {TFN(sw_chunk_), sw_scratch, 1, VLANES, "1a"};

WALK_ENTRY(TFN(sw_fused_), TFN(sw_kind_))

#undef SV
