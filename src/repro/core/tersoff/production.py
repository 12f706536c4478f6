"""Production wide-vector Tersoff path (numpy across all interactions).

This is the repository's fast solver — the numpy rendition of the
paper's optimized kernel with the vector width taken to "all pairs at
once".  Conceptually it is scheme (1b) with an unbounded vector: the
scalar *filter* packs every in-cutoff (i,j) interaction densely, the
*computational* part evaluates ζ, b_ij and all force contributions in
flat batches, and conflict-safe accumulation happens via segmented
sums.  Algorithm 3's structural ideas are all present:

- ζ and its derivatives come out of one fused triplet pass;
- parameters are gathered from the flat struct-of-arrays block;
- skin atoms never reach the computational part.

Supports double / single / mixed precision (Sec. V-E Opt-D/S/M): the
computational batches genuinely run in the compute dtype; accumulation
(segmented sums, energy) runs in the accumulate dtype.

The list staging and its cache are the potential-agnostic
:mod:`repro.core.pipeline`; :class:`TersoffKernel` gets the unfiltered
list like every kernel and runs Tersoff's filter itself, every call:
the inclusive per-type-pair cutoff for the pairs and the Sec. IV-D
max cutoff for the k-candidates
(:func:`~repro.core.pipeline.topology.filter_list`), then the triplet
expansion and parameter gathers.  It is the ``numpy`` backend's
Tersoff kernel: the oracle, and the fallback without a C toolchain.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import hot_path
from repro.core.pipeline import (
    MultiBodyKernel,
    PipelinePotential,
    Staging,
    Workspace,
    build_triplets,
    filter_list,
    segsum3,
)
from repro.core.tersoff.functional import (
    b_order,
    b_order_d,
    f_a,
    f_a_d,
    f_c,
    f_c_d,
    f_r,
    f_r_d,
    g_angle,
    g_angle_d,
    zeta_exp,
    zeta_exp_d_over,
)
from repro.core.tersoff.kernels import PROD_PAIR_FIELDS, PROD_TRIPLET_FIELDS, gather_flat
from repro.core.tersoff.parameters import TersoffParams
from repro.md.potential import ForceResult
from repro.vector.precision import Precision


class TersoffKernel(MultiBodyKernel):
    """The Tersoff filter and computational component on the staged pipeline."""

    uses_types = True

    def __init__(self, params: TersoffParams, precision: Precision):
        self.params = params
        self.precision = precision
        self._flat = params.flat()
        # parameter block views in the compute dtype (cast once)
        cd = precision.compute_dtype
        self._p = {
            name: getattr(self._flat, name).astype(cd)
            for name in ("gamma", "lam3", "c", "d", "h", "n", "beta", "lam2", "B", "R", "D", "lam1", "A", "c1", "c2", "c3", "c4")
        }
        self._p_m = self._flat.m  # integer-ish selector, keep double
        self._nt = self._flat.ntypes
        self._kcut = float(np.max(self._flat.cut))
        self._ws = Workspace()

    @hot_path(reason="filter and computational part of every force call (paper Alg. 3)")
    def evaluate(self, st: Staging, n: int) -> ForceResult:
        cd = self.precision.compute_dtype
        ad = self.precision.accum_dtype
        # the filter: pairs within R + D of their type pair, k-candidates
        # within the largest cutoff of any type pair (Sec. IV-D)
        pairs, kcand = filter_list(st.pairs, self._flat.cut, self._kcut, ntypes=self._nt,
                                   workspace=self._ws)
        tri = build_triplets(pairs, kcand)
        tp, tk = tri.tri_pair, tri.tri_k
        tflat = (pairs.ti[tp] * self._nt + pairs.tj[tp]) * self._nt + kcand.tj[tk]
        pp = gather_flat(self._p, pairs.pair_flat, PROD_PAIR_FIELDS)
        tpars = gather_flat(self._p, tflat, PROD_TRIPLET_FIELDS)
        m_t = self._p_m[tflat]

        P = pairs.n_pairs
        T = tri.n_triplets

        # compute-dtype views of the geometry
        d_ij = pairs.d.astype(cd, copy=False)
        r_ij = pairs.r.astype(cd, copy=False)

        # ---- zeta accumulation over triplets ----------------------------------
        if T:
            d_ik = kcand.d[tk].astype(cd, copy=False)
            r_ik = kcand.r[tk].astype(cd, copy=False)
            rij_t = r_ij[tp]
            dij_t = d_ij[tp]
            cos_t = np.einsum("ij,ij->i", dij_t, d_ik) / (rij_t * r_ik)

            R_t, D_t = tpars["R"], tpars["D"]
            fc_ik = f_c(r_ik, R_t, D_t)
            fc_d_ik = f_c_d(r_ik, R_t, D_t)
            g_t = g_angle(cos_t, tpars["gamma"], tpars["c"], tpars["d"], tpars["h"])
            g_d_t = g_angle_d(cos_t, tpars["gamma"], tpars["c"], tpars["d"], tpars["h"])
            ex_t = zeta_exp(rij_t, r_ik, tpars["lam3"], m_t)
            ex_ld_t = zeta_exp_d_over(rij_t, r_ik, tpars["lam3"], m_t)
            zeta_contrib = fc_ik * g_t * ex_t
            zeta = np.bincount(tp, weights=zeta_contrib.astype(np.float64, copy=False),
                               minlength=P).astype(cd)
        else:
            # zero-triplet fallback (isolated atoms); off the stepping path
            zeta = np.zeros(P, dtype=cd)  # repro-lint: disable=KA003

        # ---- pair terms ---------------------------------------------------------
        fc_ij = f_c(r_ij, pp["R"], pp["D"])
        fc_d_ij = f_c_d(r_ij, pp["R"], pp["D"])
        fr = f_r(r_ij, pp["A"], pp["lam1"])
        fr_d = f_r_d(r_ij, pp["A"], pp["lam1"])
        fa = f_a(r_ij, pp["B"], pp["lam2"])
        fa_d = f_a_d(r_ij, pp["B"], pp["lam2"])
        bij = b_order(zeta, pp["beta"], pp["n"], pp["c1"], pp["c2"], pp["c3"], pp["c4"])
        bij_d = b_order_d(zeta, pp["beta"], pp["n"], pp["c1"], pp["c2"], pp["c3"], pp["c4"])

        e_pair = 0.5 * fc_ij * (fr + bij * fa)
        dE_dr = 0.5 * (fc_d_ij * (fr + bij * fa) + fc_ij * (fr_d + bij * fa_d))
        fpair = -dE_dr / r_ij  # force-over-distance on the pair
        prefactor = 0.5 * fc_ij * fa * bij_d  # dV/dzeta

        energy = float(np.sum(e_pair.astype(ad, copy=False)))
        fvec = (fpair[:, None] * d_ij).astype(np.float64, copy=False)
        # force accumulator must start zeroed; Workspace.buf hands back
        # uninitialized capacity, so a fresh allocation is the honest cost
        forces64 = np.zeros((n, 3), dtype=np.float64)  # repro-lint: disable=KA003
        forces64 -= segsum3(pairs.i_idx, fvec, n, np.float64)
        forces64 += segsum3(pairs.j_idx, fvec, n, np.float64)
        # full virial tensor W_ab = sum d_a F_b (pair part: F on j is fvec)
        stress = np.einsum("ia,ib->ab", pairs.d, fvec)
        virial = float(np.trace(stress))

        # ---- triplet force terms --------------------------------------------------
        if T:
            pre_t = prefactor[tp]
            hat_ij = dij_t / rij_t[:, None]
            hat_ik = d_ik / r_ik[:, None]
            dcos_dj = hat_ik / rij_t[:, None] - (cos_t / rij_t)[:, None] * hat_ij
            dcos_dk = hat_ij / r_ik[:, None] - (cos_t / r_ik)[:, None] * hat_ik

            fc_g_ex = zeta_contrib
            fc_gd_ex = fc_ik * g_d_t * ex_t
            dzeta_dj = (fc_g_ex * ex_ld_t)[:, None] * hat_ij + fc_gd_ex[:, None] * dcos_dj
            dzeta_dk = (fc_d_ik * g_t * ex_t - fc_g_ex * ex_ld_t)[:, None] * hat_ik + fc_gd_ex[:, None] * dcos_dk
            dzeta_di = -(dzeta_dj + dzeta_dk)

            fi = (pre_t[:, None] * dzeta_di).astype(np.float64, copy=False)
            fj = (pre_t[:, None] * dzeta_dj).astype(np.float64, copy=False)
            fk = (pre_t[:, None] * dzeta_dk).astype(np.float64, copy=False)
            forces64 -= segsum3(pairs.i_idx[tp], fi, n, np.float64)
            forces64 -= segsum3(pairs.j_idx[tp], fj, n, np.float64)
            forces64 -= segsum3(kcand.j_idx[tk], fk, n, np.float64)
            # triplet virial: F on j is -fj, on k is -fk (relative to i)
            stress -= np.einsum("ia,ib->ab", pairs.d[tp], fj)
            stress -= np.einsum("ia,ib->ab", kcand.d[tk], fk)
            virial = float(np.trace(stress))

        # per-atom energies: every ordered pair's half-energy belongs to i
        per_atom_energy = np.bincount(pairs.i_idx, weights=e_pair.astype(np.float64, copy=False),
                                      minlength=n)
        stats = {
            "pairs_in_cutoff": P,
            "triples": T,
            "list_entries": pairs.n_list_entries,
            "filter_efficiency": pairs.filter_efficiency,
            "virial_tensor": 0.5 * (stress + stress.T),
            "per_atom_energy": per_atom_energy,
        }
        # accumulate dtype discipline: round through ad if single precision —
        # the float64 re-cast is the ForceResult ABI, not a promotion leak
        forces = forces64.astype(ad).astype(np.float64)  # repro-lint: disable=KA002
        return ForceResult(energy=energy, forces=forces, virial=virial, stats=stats)


class TersoffProduction(PipelinePotential):
    """The optimized Tersoff solver used for real simulations (``Opt``
    modes); see :class:`~repro.core.pipeline.PipelinePotential` for the
    parameters."""

    family = "tersoff"

    def validate(self, system) -> None:
        if system.species != self.params.species:
            raise ValueError("system species do not match parameterization")
