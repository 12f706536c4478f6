"""Frozen pre-refactor (seed) implementations, verbatim.

These are byte-level copies of the production paths as they stood
BEFORE the staged-pipeline refactor (commit 30749b3), renamed
``Legacy*`` (with ``@hot_path`` neutralized so the test import does
not pollute the hot-path registry).  ``test_pipeline.py`` asserts the
refactored potentials reproduce them bit for bit — energy, forces,
virial, virial tensor, per-atom energy — across precisions, cold vs
cached, and neighbor-list rebuilds.

Do not modernize this module: its value is that it does not change.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import (
    CacheStats,
    PairData,
    TripletData,
    Workspace,
    build_pairs,
    build_triplets,
    group_by_i,
    idx3_of,
    pair_geometry,
    segsum3,
)
from repro.core.sw.functional import phi2, phi3
from repro.core.sw.parameters import SWParams
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
from repro.core.tersoff.kernels import (
    PROD_PAIR_FIELDS,
    PROD_TRIPLET_FIELDS,
    charge,
    gather_flat,
)
from repro.core.tersoff.parameters import FlatParams, TersoffParams
from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList
from repro.md.potential import ForceResult, Potential
from repro.vector.backend import VectorBackend, scatter_add_rows
from repro.vector.isa import ISA, get_isa
from repro.vector.precision import Precision


def hot_path(**_kw):
    """No-op stand-in: keep the frozen sources verbatim without
    registering legacy entry points in the hot-path registry."""
    def deco(fn):
        return fn
    return deco

@dataclass
class LegacyStaging:
    """Everything the production kernel consumes for one force call.

    ``pairs``/``kcand`` carry fresh geometry every call; all other
    fields are topology or parameter pulls that the cache may reuse.
    ``idx3`` holds the fused segmented-sum index arrays (empty for the
    cold path, which recomputes them per call like the old code did).
    """

    pairs: PairData
    kcand: PairData
    tri: TripletData
    tflat: np.ndarray  # (T,) flat (ti, tj, tk) parameter index
    pair_p: dict[str, np.ndarray]  # 12 per-pair fields at pair_flat
    tri_p: dict[str, np.ndarray]  # 7 per-triplet fields at tflat
    m_t: np.ndarray  # (T,) the m selector at tflat (float64)
    idx3: dict[str, np.ndarray]


class LegacyInteractionCache:
    """Step-persistent staging for :class:`TersoffProduction`.

    One instance per potential; see the module docstring for the
    validity layers.  ``prepare`` returns a :class:`LegacyStaging` whose
    geometry arrays live in the shared :class:`Workspace` (valid until
    the next ``prepare`` call on the same cache).
    """

    def __init__(self, workspace: Workspace | None = None):
        self.workspace = workspace if workspace is not None else Workspace()
        self.stats = CacheStats()
        self._neigh_ref = lambda: None
        self._version = -1
        self._n_atoms = -1
        # L1: full-list topology
        self._i_full: np.ndarray | None = None
        self._j_full: np.ndarray | None = None
        # L2: type staging
        self._types: np.ndarray | None = None
        self._ti_full: np.ndarray | None = None
        self._tj_full: np.ndarray | None = None
        self._pair_flat_full: np.ndarray | None = None
        self._cut_full: np.ndarray | None = None
        # L3: mask-keyed filtered staging
        self._maskp: np.ndarray | None = None
        self._maskm: np.ndarray | None = None
        self._staging: LegacyStaging | None = None

    def __reduce__(self):
        # Pickle as a *fresh* cache: the internals hold a weakref and
        # workspace views that must not cross process boundaries, and a
        # cold cache is exact (hits only ever reuse recomputable
        # arrays), so "spawn" workers simply warm their own copy.
        return (LegacyInteractionCache, ())

    @hot_path(reason="per-step staging; geometry scratch must come from the Workspace")
    def prepare(self, system, neigh, flat, pblock: dict[str, np.ndarray], p_m: np.ndarray) -> LegacyStaging:
        ws = self.workspace
        topo_valid = True
        if (
            self._neigh_ref() is not neigh
            or self._version != neigh.version
            or self._n_atoms != system.n
        ):
            self._i_full, self._j_full = neigh.pairs()
            self._neigh_ref = weakref.ref(neigh)
            self._version = neigh.version
            self._n_atoms = system.n
            self._types = None
            topo_valid = False
        if self._types is None or not np.array_equal(system.type, self._types):
            self._types = system.type.copy()
            ti = system.type[self._i_full].astype(np.int64)
            tj = system.type[self._j_full].astype(np.int64)
            self._ti_full, self._tj_full = ti, tj
            self._pair_flat_full = (ti * flat.ntypes + tj) * flat.ntypes + tj
            self._cut_full = flat.cut[self._pair_flat_full]
            topo_valid = False

        i_idx, j_idx = self._i_full, self._j_full
        L = i_idx.shape[0]
        d, r = pair_geometry(system.x, system.box, i_idx, j_idx, workspace=ws)
        maskp = ws.buf("maskp", L, bool)
        np.less_equal(r, self._cut_full, out=maskp)
        maskm = ws.buf("maskm", L, bool)
        np.less_equal(r, float(np.max(flat.cut)), out=maskm)

        if (
            topo_valid
            and self._maskp is not None
            and np.array_equal(maskp, self._maskp)
            and np.array_equal(maskm, self._maskm)
        ):
            self.stats.hits += 1
            self.stats.last_event = "hit"
        else:
            if topo_valid:
                self.stats.misses += 1
                self.stats.last_event = "miss"
            else:
                self.stats.invalidations += 1
                self.stats.last_event = "invalidated"
            self._maskp = maskp.copy()
            self._maskm = maskm.copy()
            self._staging = self._build_staging(flat, pblock, p_m, maskp, maskm, L)

        st = self._staging
        # fresh geometry every call (hit or not): compress the full-list
        # d/r through the masks into reused buffers — identical values to
        # the cold path's boolean indexing.
        P, K = st.pairs.n_pairs, st.kcand.n_pairs
        st.pairs.d = np.compress(maskp, d, axis=0, out=ws.buf("dp", (P, 3), np.float64))
        st.pairs.r = np.compress(maskp, r, out=ws.buf("rp", P, np.float64))
        st.kcand.d = np.compress(maskm, d, axis=0, out=ws.buf("dk", (K, 3), np.float64))
        st.kcand.r = np.compress(maskm, r, out=ws.buf("rk", K, np.float64))
        return st

    def _build_staging(self, flat, pblock, p_m, maskp, maskm, n_list: int) -> LegacyStaging:
        i_idx, j_idx = self._i_full, self._j_full
        empty = np.empty(0, dtype=np.float64)
        pairs = PairData(
            i_idx=i_idx[maskp], j_idx=j_idx[maskp], d=empty, r=empty,
            ti=self._ti_full[maskp], tj=self._tj_full[maskp],
            pair_flat=self._pair_flat_full[maskp],
            n_atoms=self._n_atoms, n_list_entries=n_list,
        )
        kcand = PairData(
            i_idx=i_idx[maskm], j_idx=j_idx[maskm], d=empty, r=empty,
            ti=self._ti_full[maskm], tj=self._tj_full[maskm],
            pair_flat=self._pair_flat_full[maskm],
            n_atoms=self._n_atoms, n_list_entries=n_list,
        )
        tri = build_triplets(pairs, kcand)
        tp, tk = tri.tri_pair, tri.tri_k
        tflat = (pairs.ti[tp] * flat.ntypes + pairs.tj[tp]) * flat.ntypes + kcand.tj[tk]
        return LegacyStaging(
            pairs=pairs,
            kcand=kcand,
            tri=tri,
            tflat=tflat,
            pair_p=gather_flat(pblock, pairs.pair_flat, PROD_PAIR_FIELDS),
            tri_p=gather_flat(pblock, tflat, PROD_TRIPLET_FIELDS),
            m_t=p_m[tflat],
            idx3={
                "pair_i": idx3_of(pairs.i_idx),
                "pair_j": idx3_of(pairs.j_idx),
                "tri_i": idx3_of(pairs.i_idx[tp]),
                "tri_j": idx3_of(pairs.j_idx[tp]),
                "tri_k": idx3_of(kcand.j_idx[tk]),
            },
        )

class LegacyTersoffProduction(Potential):
    """The optimized solver used for real simulations (``Opt`` modes).

    Parameters
    ----------
    params:
        Tersoff parameterization.
    precision:
        ``"double"`` (Opt-D), ``"single"`` (Opt-S) or ``"mixed"``
        (Opt-M).
    cache:
        Step-persistent interaction cache (default on).  ``False``
        restores the old stage-everything-per-call behaviour; results
        are bit-for-bit identical either way.
    """

    needs_full_list = True

    def __init__(
        self,
        params: TersoffParams,
        *,
        precision: Precision | str = Precision.DOUBLE,
        cache: bool = True,
    ):
        self.params = params
        self.precision = Precision.parse(precision)
        self.cutoff = params.max_cutoff
        self._flat = params.flat()
        # parameter block views in the compute dtype (cast once)
        cd = self.precision.compute_dtype
        self._p = {
            name: getattr(self._flat, name).astype(cd)
            for name in ("gamma", "lam3", "c", "d", "h", "n", "beta", "lam2", "B", "R", "D", "lam1", "A", "c1", "c2", "c3", "c4")
        }
        self._p_m = self._flat.m  # integer-ish selector, keep double
        self._nt = self._flat.ntypes
        self.cache_enabled = bool(cache)
        self._cache = LegacyInteractionCache() if cache else None

    @property
    def cache_stats(self):
        """The cumulative :class:`CacheStats`, or ``None`` when off."""
        return self._cache.stats if self._cache is not None else None

    def _stage_cold(self, system: AtomSystem, neigh: NeighborList) -> LegacyStaging:
        """The original per-call staging (``cache=False`` ablation path)."""
        flat = self._flat
        pairs = build_pairs(system, neigh, flat, cutoff="pair")
        kcand = build_pairs(system, neigh, flat, cutoff="max")
        tri = build_triplets(pairs, kcand)
        tp, tk = tri.tri_pair, tri.tri_k
        tflat = (pairs.ti[tp] * self._nt + pairs.tj[tp]) * self._nt + kcand.tj[tk]
        return LegacyStaging(
            pairs=pairs, kcand=kcand, tri=tri, tflat=tflat,
            pair_p=gather_flat(self._p, pairs.pair_flat, PROD_PAIR_FIELDS),
            tri_p=gather_flat(self._p, tflat, PROD_TRIPLET_FIELDS),
            m_t=self._p_m[tflat],
            idx3={},
        )

    @hot_path(reason="per-step entry point; all allocations belong to the cache Workspace")
    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        self.check_list(neigh)
        if system.species != self.params.species:
            raise ValueError("system species do not match parameterization")
        t0 = time.perf_counter()
        if self._cache is not None:
            st = self._cache.prepare(system, neigh, self._flat, self._p, self._p_m)
            cache_info = {"enabled": True, "list_version": neigh.version,
                          **self._cache.stats.as_dict()}
        else:
            st = self._stage_cold(system, neigh)
            cache_info = {"enabled": False}
        t1 = time.perf_counter()
        result = self._evaluate(st, system.n)
        t2 = time.perf_counter()
        result.stats["cache"] = cache_info
        result.stats["timing"] = {"staging_s": t1 - t0, "kernel_s": t2 - t1}
        return result

    @hot_path(reason="computational part of every force call (paper Alg. 3)")
    def _evaluate(self, st: LegacyStaging, n: int) -> ForceResult:
        cd = self.precision.compute_dtype
        ad = self.precision.accum_dtype
        pairs, kcand, tri = st.pairs, st.kcand, st.tri
        pp, tpars = st.pair_p, st.tri_p
        idx3 = st.idx3

        P = pairs.n_pairs
        if P == 0:
            # cold early-return for empty systems; never hit during stepping
            return ForceResult(energy=0.0, forces=np.zeros((n, 3), dtype=np.float64),  # repro-lint: disable=KA003
                               virial=0.0,
                               stats={"pairs_in_cutoff": 0, "triples": 0,
                                      "filter_efficiency": pairs.filter_efficiency,
                                      "virial_tensor": np.zeros((3, 3), dtype=np.float64)})  # repro-lint: disable=KA003
        T = tri.n_triplets

        # compute-dtype views of the geometry
        d_ij = pairs.d.astype(cd, copy=False)
        r_ij = pairs.r.astype(cd, copy=False)

        # ---- zeta accumulation over triplets ----------------------------------
        tp = tri.tri_pair
        tk = tri.tri_k
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
            ex_t = zeta_exp(rij_t, r_ik, tpars["lam3"], st.m_t)
            ex_ld_t = zeta_exp_d_over(rij_t, r_ik, tpars["lam3"], st.m_t)
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
        forces64 -= segsum3(pairs.i_idx, fvec, n, np.float64, idx3=idx3.get("pair_i"))
        forces64 += segsum3(pairs.j_idx, fvec, n, np.float64, idx3=idx3.get("pair_j"))
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
            forces64 -= segsum3(pairs.i_idx[tp], fi, n, np.float64, idx3=idx3.get("tri_i"))
            forces64 -= segsum3(pairs.j_idx[tp], fj, n, np.float64, idx3=idx3.get("tri_j"))
            forces64 -= segsum3(kcand.j_idx[tk], fk, n, np.float64, idx3=idx3.get("tri_k"))
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

class LegacyStillingerWeberProduction(Potential):
    """Wide batched SW with double/single/mixed precision."""

    needs_full_list = True

    def __init__(self, params: SWParams, *, precision: Precision | str = Precision.DOUBLE):
        self.params = params
        self.precision = Precision.parse(precision)
        self.cutoff = params.cut

    def _pairs(self, system: AtomSystem, neigh: NeighborList) -> PairData:
        """SW has a single species/cutoff: filter directly on it."""
        i_idx, j_idx = neigh.pairs()
        d = system.box.minimum_image(system.x[j_idx] - system.x[i_idx])
        # sqrt of a sum of squares: argument is nonnegative by construction
        r = np.sqrt(np.einsum("ij,ij->i", d, d))  # repro-lint: disable=KA004
        if not np.isfinite(r).all():
            bad = int(i_idx[np.nonzero(~np.isfinite(r))[0][0]])
            raise ValueError(f"non-finite interatomic distance involving atom {bad}")
        keep = r < self.params.cut
        zeros = np.zeros(int(np.count_nonzero(keep)), dtype=np.int64)
        return PairData(
            i_idx=i_idx[keep], j_idx=j_idx[keep], d=d[keep], r=r[keep],
            ti=zeros, tj=zeros, pair_flat=zeros,
            n_atoms=system.n, n_list_entries=i_idx.shape[0],
        )

    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        self.check_list(neigh)
        p = self.params
        cd = self.precision.compute_dtype
        n = system.n
        pairs = self._pairs(system, neigh)
        P = pairs.n_pairs
        if P == 0:
            return ForceResult(energy=0.0, forces=np.zeros((n, 3), dtype=np.float64), virial=0.0,
                               stats={"pairs_in_cutoff": 0, "triples": 0})

        d_ij = pairs.d.astype(cd)
        r_ij = pairs.r.astype(cd)

        # ---- two-body -------------------------------------------------------
        e2, de2 = phi2(r_ij, p)
        # dense filtered pairs: r_ij > 0 for every retained row
        fpair = (-0.5 * de2 / r_ij).astype(np.float64)  # repro-lint: disable=KA004
        energy = 0.5 * float(np.sum(e2.astype(np.float64)))
        fvec = fpair[:, None] * pairs.d
        forces = np.zeros((n, 3), dtype=np.float64)
        forces -= segsum3(pairs.i_idx, fvec, n)
        forces += segsum3(pairs.j_idx, fvec, n)
        virial = float(np.sum(fpair * pairs.r * pairs.r))

        # ---- three-body: unordered (j, k) via ordered expansion + row filter -
        tri = build_triplets(pairs, pairs)
        keep = tri.tri_k > tri.tri_pair  # each unordered pair once
        tp = tri.tri_pair[keep]
        tk = tri.tri_k[keep]
        T = tp.shape[0]
        if T:
            rij_t = r_ij[tp]
            rik_t = r_ij[tk]
            dij_t = d_ij[tp]
            dik_t = d_ij[tk]
            cos_t = np.einsum("ij,ij->i", dij_t, dik_t) / (rij_t * rik_t)
            e3, de_drij, de_drik, de_dcos = phi3(rij_t, rik_t, cos_t, p)
            energy += float(np.sum(e3.astype(np.float64)))
            hat_ij = dij_t / rij_t[:, None]
            hat_ik = dik_t / rik_t[:, None]
            dcos_dj = hat_ik / rij_t[:, None] - (cos_t / rij_t)[:, None] * hat_ij
            dcos_dk = hat_ij / rik_t[:, None] - (cos_t / rik_t)[:, None] * hat_ik
            fj = -(de_drij[:, None] * hat_ij + de_dcos[:, None] * dcos_dj).astype(np.float64)
            fk = -(de_drik[:, None] * hat_ik + de_dcos[:, None] * dcos_dk).astype(np.float64)
            forces += segsum3(pairs.j_idx[tp], fj, n)
            forces += segsum3(pairs.j_idx[tk], fk, n)
            forces -= segsum3(pairs.i_idx[tp], fj + fk, n)
            virial += float(np.sum(np.einsum("ij,ij->i", pairs.d[tp], fj)
                                   + np.einsum("ij,ij->i", pairs.d[tk], fk)))

        # per-atom energies: half of each ordered pair to i, each triple
        # to its center atom
        per_atom = np.bincount(pairs.i_idx, weights=0.5 * e2.astype(np.float64), minlength=n)
        if T:
            per_atom += np.bincount(pairs.i_idx[tp], weights=e3.astype(np.float64), minlength=n)
        stats = {"pairs_in_cutoff": P, "triples": int(T),
                 "list_entries": pairs.n_list_entries,
                 "filter_efficiency": pairs.filter_efficiency,
                 "per_atom_energy": per_atom}
        return ForceResult(energy=energy, forces=forces, virial=virial, stats=stats)

# per-lane vector ops of one LJ interaction (r2 -> energy+force)
RECIPE_LJ = {"arith": 11, "divide": 1, "blend": 1}


class LegacyLennardJonesVectorized(Potential):
    """Cut/shifted 12-6 LJ via scheme (1a) on a simulated vector ISA.

    Single-type only (the contrast experiment does not need mixing).
    """

    needs_full_list = True

    def __init__(
        self,
        epsilon: float,
        sigma: float,
        cutoff: float,
        *,
        shift: bool = True,
        isa: ISA | str = "avx2",
        precision: Precision | str = Precision.DOUBLE,
    ):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.epsilon = float(epsilon)
        self.sigma = float(sigma)
        self.cutoff = float(cutoff)
        self.shift = bool(shift)
        self.isa = get_isa(isa) if isinstance(isa, str) else isa
        self.precision = Precision.parse(precision)
        self.backend = VectorBackend(self.isa, self.precision)
        sr6 = (self.sigma / self.cutoff) ** 6
        self._e_cut = 4.0 * self.epsilon * (sr6 * sr6 - sr6) if shift else 0.0

    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        self.check_list(neigh)
        bk = self.backend
        bk.reset_counter()
        cd = bk.compute_dtype
        W = bk.width
        n = system.n

        i_idx, j_idx = neigh.pairs()
        d = system.box.minimum_image(system.x[j_idx] - system.x[i_idx])
        r2_all = np.einsum("ij,ij->i", d, d)

        # scheme (1a): rows = atoms (blocks), lanes = their list entries;
        # pair potentials traditionally do NOT pre-filter (the mask is
        # cheap and lists are long), so the skin mask runs in-register.
        starts, counts = group_by_i(i_idx, n)
        nblocks = (counts + W - 1) // W
        row_atom = np.repeat(np.arange(n, dtype=np.int64), nblocks)
        C = row_atom.shape[0]
        forces = np.zeros((n, 3), dtype=np.float64)
        if C == 0:
            return ForceResult(energy=0.0, forces=forces, virial=0.0, stats=self._stats(bk, 0))
        row_first = np.concatenate(([0], np.cumsum(nblocks)[:-1]))
        block_in_atom = np.arange(C, dtype=np.int64) - np.repeat(row_first, nblocks)
        lane = np.arange(W, dtype=np.int64)[None, :]
        slot = starts[row_atom][:, None] + block_in_atom[:, None] * W + lane
        valid = slot < (starts[row_atom] + counts[row_atom])[:, None]
        idx = np.where(valid, slot, 0)

        r2 = np.where(valid, r2_all[idx], 1.0e30).astype(cd)
        within = bk.cmp_le(r2, self.cutoff * self.cutoff)
        mask = valid & np.asarray(within)

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            inv_r2 = 1.0 / r2
            sr2 = (self.sigma * self.sigma) * inv_r2
            sr6 = sr2 * sr2 * sr2
            sr12 = sr6 * sr6
            e_pair = 4.0 * self.epsilon * (sr12 - sr6) - self._e_cut
            f_over_r = 24.0 * self.epsilon * (2.0 * sr12 - sr6) * inv_r2
        charge(bk, RECIPE_LJ, C, mask=mask, masked=True)
        bk.counter.record_kernel_invocation(C)

        e_pair = np.where(mask, e_pair, 0.0)
        f_over_r = np.where(mask, f_over_r, 0.0).astype(np.float64)
        energy = 0.5 * float(np.sum(bk.reduce_add(e_pair.astype(cd), mask)))

        dvec = np.where(valid[..., None], d[idx], 0.0)
        fvec = f_over_r[..., None] * dvec
        # full-list Newton-off convention (miniMD-style): every ordered
        # pair updates only its center atom i — an in-register reduction
        # and one scalar store, with no scatter at all.  This is why the
        # paper calls pair potentials the *easy* case.
        fi_rows = np.zeros((C, 3), dtype=np.float64)
        for axis in range(3):
            fi_rows[:, axis] = bk.reduce_add(fvec[..., axis].astype(cd), mask)
        scatter_add_rows(forces, row_atom, -fi_rows)
        bk.counter.record("store", C, bk.isa.costs.store)

        virial = 0.5 * float(np.sum(f_over_r * np.einsum("...i,...i->...", dvec, dvec)))
        return ForceResult(energy=energy, forces=forces, virial=virial, stats=self._stats(bk, int(np.count_nonzero(mask))))

    def _stats(self, bk: VectorBackend, n_pairs: int) -> dict:
        st = bk.stats()
        return {
            "isa": self.isa.name,
            "scheme": "1a",
            "width": bk.width,
            "pairs_in_cutoff": n_pairs,
            "cycles": st.cycles,
            "instructions": st.instructions,
            "utilization": st.utilization,
            "kernel_invocations": st.kernel_invocations,
            "spin_iterations": st.spin_iterations,
            "by_category": dict(st.by_category),
            "kernel_stats": st,
        }
