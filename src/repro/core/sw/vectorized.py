"""Vectorized Stillinger-Weber on the lane-faithful backend.

The paper's conclusion claims the approach generalizes to other
multi-body potentials; this module substantiates it at the *kernel*
level: scheme (1b) — fused (i,j) pairs across lanes with per-lane
K-cursors, fast-forwarding and conflict-handled scatters — re-used for
a different functional form.

Differences from the Tersoff sweep that the machinery absorbs:

- SW's three-body sum runs over *unordered* (j,k) pairs: each lane's
  cursor starts just past its own j-slot instead of at the list head
  (the ``k > j`` triangle), and there is no ζ accumulation phase — the
  kernel applies forces immediately (no bond-order coupling, so no
  second pass and no kmax scratch at all);
- there is no separate cutoff function: the exponential tails vanish at
  ``a sigma``, so the in-cutoff test is a plain distance compare.
"""

from __future__ import annotations

import numpy as np

from repro.core.sw.functional import phi2, phi3
from repro.core.sw.parameters import SWParams
from repro.core.tersoff.kernels import charge
from repro.core.pipeline import group_by_i
from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList
from repro.md.potential import ForceResult, Potential
from repro.vector.backend import VectorBackend, lane_stats
from repro.vector.isa import ISA, get_isa
from repro.vector.precision import Precision

# instruction recipes for the SW kernels (per-lane vector ops)
RECIPE_PHI2 = {"arith": 9, "divide": 2, "exp": 1}
RECIPE_PHI3 = {"arith": 14, "divide": 3, "exp": 2}
RECIPE_GEOM = {"arith": 24, "divide": 2, "sqrt": 1}
RECIPE_FORCE3 = {"arith": 24}


class StillingerWeberVectorized(Potential):
    """SW via scheme (1b) on a simulated vector ISA.

    Parameters mirror :class:`~repro.core.tersoff.vectorized.TersoffVectorized`
    minus the options that have no SW counterpart (kmax — SW needs no
    derivative scratch; neighbor filtering is implied by the single
    cutoff).
    """

    needs_full_list = True

    def __init__(
        self,
        params: SWParams,
        *,
        isa: ISA | str = "avx2",
        precision: Precision | str = Precision.DOUBLE,
        fast_forward: bool = True,
    ):
        self.params = params
        self.cutoff = params.cut
        self.isa = get_isa(isa) if isinstance(isa, str) else isa
        self.precision = Precision.parse(precision)
        self.fast_forward = bool(fast_forward)
        self.backend = VectorBackend(self.isa, self.precision)

    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        self.check_list(neigh)
        p = self.params
        bk = self.backend
        bk.reset_counter()
        cd = bk.compute_dtype
        W = bk.width
        n = system.n

        # ---- scalar filter: in-cutoff pairs, grouped by i -------------------
        i_all, j_all = neigh.pairs()
        d_all = system.box.minimum_image(system.x[j_all] - system.x[i_all])
        # sqrt of a sum of squares: argument is nonnegative by construction
        r_all = np.sqrt(np.einsum("ij,ij->i", d_all, d_all))  # repro-lint: disable=KA004
        if not np.isfinite(r_all).all():
            raise ValueError("non-finite interatomic distance")
        keep = r_all < p.cut
        i_idx, j_idx, d, r = i_all[keep], j_all[keep], d_all[keep], r_all[keep]
        P = i_idx.shape[0]
        forces = np.zeros((n, 3), dtype=np.float64)
        if P == 0:
            return ForceResult(energy=0.0, forces=forces, virial=0.0,
                               stats=lane_stats(bk, "1b", 0, int(i_all.shape[0])))

        starts, counts = group_by_i(i_idx, n)
        # lane-local slot of each pair within its atom's run
        slot = np.arange(P, dtype=np.int64) - starts[i_idx]

        # ---- lane grid: packed pairs --------------------------------------------
        C = (P + W - 1) // W
        sel = np.full(C * W, -1, dtype=np.int64)
        sel[:P] = np.arange(P, dtype=np.int64)
        sel = sel.reshape(C, W)
        valid = sel >= 0
        idx = np.where(valid, sel, 0)
        lane_i = np.where(valid, i_idx[idx], 0)
        lane_rij = np.where(valid, r[idx], 1.0).astype(cd)
        lane_dij = np.where(valid[..., None], d[idx], 0.0).astype(cd)

        # ---- two-body on the packed pairs -----------------------------------------
        rows = C
        e2, de2 = phi2(lane_rij, p)
        charge(bk, RECIPE_PHI2, rows, mask=valid, masked=True)
        e2 = np.where(valid, e2, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            fpair = np.where(valid, -0.5 * de2 / lane_rij, 0.0).astype(np.float64)
        energy = 0.5 * float(np.sum(bk.reduce_add(e2.astype(cd), valid)))
        fvec = fpair[..., None] * lane_dij.astype(np.float64)
        for axis in range(3):
            bk.scatter_add_conflict(forces[:, axis], np.where(valid, j_idx[idx], 0),
                                    fvec[..., axis], valid)
            bk.scatter_add_conflict(forces[:, axis], lane_i, -fvec[..., axis], valid)
        virial = float(np.sum(fpair * lane_rij.astype(np.float64) ** 2, where=valid))

        # ---- three-body K sweep: cursor starts just past the lane's own j ---------
        cursor = np.where(valid, idx + 1, 0).astype(np.int64)  # next pair row of the same atom
        kend = np.where(valid, starts[lane_i] + counts[lane_i], 0)
        found = np.zeros((C, W), dtype=bool)
        pend = np.zeros((C, W), dtype=np.int64)
        exhausted = cursor >= kend
        bk.int_op(slot, n_ops=2)  # cursor initialisation from the slot table

        def advance(need: np.ndarray) -> np.ndarray:
            rows_active = int(np.count_nonzero(need.any(axis=1)))
            krow = np.where(need, cursor, 0)
            rik = bk.gather(r, krow, mask=need, rows_active=rows_active, fill=1.0e9)
            ok = need & (np.asarray(rik) < p.cut)
            bk.int_op(need, n_ops=2, rows_active=rows_active)
            pend[ok] = krow[ok]
            cursor[need] += 1
            return ok

        def fire(mask: np.ndarray) -> tuple[float, float]:
            rows_active = int(np.count_nonzero(mask.any(axis=1)))
            if rows_active == 0:
                return 0.0, 0.0
            krow = np.where(mask, pend, 0)
            rik = np.where(mask, r[krow], 1.0).astype(cd)
            dik = np.where(mask[..., None], d[krow], 0.0).astype(cd)
            with np.errstate(divide="ignore", invalid="ignore"):
                cos_t = np.einsum("...i,...i->...", lane_dij, dik) / (lane_rij * rik)
            charge(bk, RECIPE_GEOM, rows_active, mask=mask, masked=True)
            e3, de_drij, de_drik, de_dcos = phi3(lane_rij, rik, cos_t, p)
            charge(bk, RECIPE_PHI3, rows_active, mask=mask, masked=True)
            e3 = np.where(mask, e3, 0.0)
            bk.counter.record_kernel_invocation(rows_active)
            e = float(np.sum(bk.reduce_add(e3.astype(cd), mask, rows_active=rows_active)))
            with np.errstate(divide="ignore", invalid="ignore"):
                hat_ij = lane_dij / lane_rij[..., None]
                hat_ik = dik / rik[..., None]
                dcos_dj = hat_ik / lane_rij[..., None] - (cos_t / lane_rij)[..., None] * hat_ij
                dcos_dk = hat_ij / rik[..., None] - (cos_t / rik)[..., None] * hat_ik
                fj = -(de_drij[..., None] * hat_ij + de_dcos[..., None] * dcos_dj)
                fk = -(de_drik[..., None] * hat_ik + de_dcos[..., None] * dcos_dk)
            charge(bk, RECIPE_FORCE3, rows_active, mask=mask, masked=True)
            fj = np.where(mask[..., None], fj, 0.0).astype(np.float64)
            fk = np.where(mask[..., None], fk, 0.0).astype(np.float64)
            k_atom = np.where(mask, j_idx[krow], 0)
            j_atom = np.where(valid, j_idx[idx], 0)
            for axis in range(3):
                bk.scatter_add_conflict(forces[:, axis], j_atom, fj[..., axis], mask,
                                        rows_active=rows_active)
                bk.scatter_add_conflict(forces[:, axis], k_atom, fk[..., axis], mask,
                                        rows_active=rows_active)
                bk.scatter_add_conflict(forces[:, axis], lane_i, -(fj + fk)[..., axis], mask,
                                        rows_active=rows_active)
            w = float(np.sum(lane_dij.astype(np.float64) * fj, where=mask[..., None])
                      + np.sum(dik.astype(np.float64) * fk, where=mask[..., None]))
            return e, w

        if self.fast_forward:
            while True:
                while True:
                    need = valid & ~found & ~exhausted
                    rows_need = int(np.count_nonzero(need.any(axis=1)))
                    if rows_need == 0:
                        break
                    ok = advance(need)
                    found |= ok
                    exhausted = cursor >= kend
                    bk.counter.record_spin(rows_need)
                    bk.all_lanes(found | exhausted | ~valid, rows_active=rows_need)
                if not found.any():
                    break
                e, w = fire(found)
                energy += e
                virial += w
                found[:] = False
        else:
            while True:
                need = valid & ~exhausted
                if not need.any():
                    break
                ok = advance(need)
                exhausted = cursor >= kend
                if ok.any():
                    e, w = fire(ok)
                    energy += e
                    virial += w

        return ForceResult(energy=energy, forces=forces, virial=virial,
                           stats=lane_stats(bk, "1b", P, int(i_all.shape[0])))
