"""The vectorized Tersoff solver: schemes (1a), (1b), (1c) on the
lane-faithful backend (paper Sec. IV-B/C/D, Fig. 1).

All three schemes share:

- the scalar **filter component** (:mod:`repro.core.pipeline.topology`)
  that packs in-cutoff pairs densely before any vector code runs;
- the **computational component**
  (:mod:`repro.core.tersoff.kernels`) — straight-line lane math;
- Algorithm 3's fused ζ+derivative pass with ``kmax`` storage and the
  original-scheme fallback.

They differ exactly as in Fig. 1:

``1a``
    One atom *i* per vector register, its neighbor list *J* across
    lanes; the K loop walks the *same* list for all lanes, so k-data
    loads are broadcasts and F_i / F_k accumulate with in-register
    reductions.  The natural scheme for short vectors.
``1b``
    Fused (i,j) pairs across lanes: unlimited data parallelism, but
    lanes traverse *different* neighbor lists, so the K loop needs
    per-lane cursors (with Sec. IV-C fast-forwarding) and every force
    write is a potential conflict that must be serialized (or handled
    by AVX-512CD).
``1c``
    One atom *i* per lane, J sequential per lane — the GPU/warp model;
    F_i lives in a register for the whole sweep, the vector-wide
    conditional is a warp vote.

Options reproduce the paper's ablations: ``fast_forward`` (Sec. IV-C)
and ``filter_neighbors`` (Sec. IV-D) can be disabled to measure what
they buy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import PairData, build_pairs, group_by_i
from repro.core.tersoff.kernels import (
    ParamFields,
    gather_params,
    pair_kernel,
    triplet_kernel,
    _PAIR_FIELDS,
    _TRIPLET_FIELDS,
)
from repro.core.tersoff.parameters import TersoffParams
from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList
from repro.md.potential import ForceResult, Potential
from repro.vector.backend import VectorBackend, lane_stats, scatter_add_rows
from repro.vector.isa import ISA, get_isa
from repro.vector.precision import Precision

SCHEMES = ("1a", "1b", "1c")


def _cast_block(flat, cd) -> dict[str, np.ndarray]:
    """Parameter arrays in the compute dtype (m kept as selector)."""
    block = {
        name: getattr(flat, name).astype(cd)
        for name in ("gamma", "lam3", "c", "d", "h", "n", "beta", "lam2", "B", "R", "D",
                     "lam1", "A", "cut", "c1", "c2", "c3", "c4")
    }
    block["m"] = flat.m
    return block


@dataclass
class _KCandidates:
    """The k-candidate pool, grouped by center atom."""

    j: np.ndarray  # (Q,) atom id of the candidate
    tj: np.ndarray  # (Q,) its type
    r: np.ndarray  # (Q,) distance to the center
    d: np.ndarray  # (Q, 3) displacement from the center
    start: np.ndarray  # (n_atoms,) first row per center atom
    end: np.ndarray  # (n_atoms,)

    @classmethod
    def from_pairs(cls, kcand: PairData) -> "_KCandidates":
        starts, counts = group_by_i(kcand.i_idx, kcand.n_atoms)
        return cls(
            j=kcand.j_idx,
            tj=kcand.tj,
            r=kcand.r,
            d=kcand.d,
            start=starts,
            end=starts + counts,
        )


@dataclass
class _LaneState:
    """Per-lane (i,j) pair state for the K sweep (all shape (C, W))."""

    i_atom: np.ndarray
    j_atom: np.ndarray
    ti: np.ndarray
    tj: np.ndarray
    rij: np.ndarray
    dij: np.ndarray  # (C, W, 3)
    valid: np.ndarray  # bool


@dataclass
class _KSweepResult:
    zeta: np.ndarray  # (C, W)
    dzi: np.ndarray  # (C, W, 3)
    dzj: np.ndarray  # (C, W, 3)
    stored_krow: np.ndarray  # (C, W, S) rows into the k-candidate pool
    stored_dzk: np.ndarray  # (C, W, S, 3)
    nstored: np.ndarray  # (C, W)
    # overflow entries (kmax exceeded): flat indices into the lane grid
    over_c: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    over_w: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    over_krow: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


class TersoffVectorized(Potential):
    """Tersoff on the simulated vector ISA (the paper's Opt kernels).

    Parameters
    ----------
    params:
        The Tersoff parameterization.
    isa:
        Target instruction set (name or :class:`~repro.vector.isa.ISA`).
    precision:
        double / single / mixed (Opt-D / Opt-S / Opt-M).
    scheme:
        "1a", "1b", "1c", or "auto" (Sec. VI footnotes 4-5 policy via
        :func:`repro.core.schemes.select_scheme`).
    fast_forward:
        Sec. IV-C: delay kernel execution until all lanes are ready.
    filter_neighbors:
        Sec. IV-D: pre-filter the k-candidate list by the maximum
        cutoff in the scalar segment.
    kmax:
        Algorithm 3 derivative-scratch capacity per lane.
    """

    needs_full_list = True

    def __init__(
        self,
        params: TersoffParams,
        *,
        isa: ISA | str = "avx2",
        precision: Precision | str = Precision.DOUBLE,
        scheme: str = "auto",
        fast_forward: bool = True,
        filter_neighbors: bool = True,
        kmax: int = 16,
        trace_register: int | None = None,
    ):
        self.params = params
        self.cutoff = params.max_cutoff
        self.isa = get_isa(isa) if isinstance(isa, str) else isa
        self.precision = Precision.parse(precision)
        if scheme == "auto":
            from repro.core.schemes import select_scheme

            scheme = select_scheme(self.isa, self.precision)
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES} or 'auto'")
        self.scheme = scheme
        self.fast_forward = bool(fast_forward)
        self.filter_neighbors = bool(filter_neighbors)
        if kmax < 1:
            raise ValueError("kmax must be >= 1")
        self.kmax = int(kmax)
        #: record a Fig.-2-style lane trace of this vector register
        #: (row of the (chunks, W) grid) during the K sweep
        self.trace_register = trace_register
        self.last_trace = None
        self.backend = VectorBackend(self.isa, self.precision)
        self._flat = params.flat()
        self._pblock = _cast_block(self._flat, self.backend.compute_dtype)
        self._nt = self._flat.ntypes

    # ------------------------------------------------------------------ utils

    def _params_for(self, bk: VectorBackend, flat_idx, fields, mask=None) -> ParamFields:
        return gather_params(bk, self._pblock, flat_idx, fields=fields, mask=mask)

    def _k_cut(self, bk: VectorBackend, ti, tj, tk, mask):
        """Per-lane cutoff of the (ti,tj,tk) entry for the r_ik test."""
        if self._nt == 1:
            return float(self._pblock["cut"][0])
        tflat = (ti * self._nt + tj) * self._nt + tk
        return bk.gather(self._pblock["cut"], tflat, mask=mask, adjacent=True)

    # ------------------------------------------------------------- the K sweep

    def _k_sweep(self, bk: VectorBackend, st: _LaneState, kc: _KCandidates) -> _KSweepResult:
        """Accumulate ζ and its derivatives for every lane's (i,j) pair.

        Implements both K-loop traversals of Fig. 2: with
        ``fast_forward`` each lane advances its own cursor until every
        lane is ready (vector-wide conditional), then the kernel fires
        on dense masks; without it, lanes move in lockstep and the
        kernel fires on whatever sparse mask each step produces.
        """
        C, W = st.rij.shape
        cd = bk.compute_dtype
        cursor = np.where(st.valid, kc.start[st.i_atom], 0).astype(np.int64)
        kend = np.where(st.valid, kc.end[st.i_atom], 0).astype(np.int64)
        S = self.kmax

        zeta = np.zeros((C, W), dtype=cd)
        dzi = np.zeros((C, W, 3), dtype=cd)
        dzj = np.zeros((C, W, 3), dtype=cd)
        stored_krow = np.zeros((C, W, S), dtype=np.int64)
        stored_dzk = np.zeros((C, W, S, 3), dtype=cd)
        nstored = np.zeros((C, W), dtype=np.int64)
        over_c: list[np.ndarray] = []
        over_w: list[np.ndarray] = []
        over_krow: list[np.ndarray] = []

        exhausted = cursor >= kend
        found = np.zeros((C, W), dtype=bool)
        pend_row = np.zeros((C, W), dtype=np.int64)

        # optional Fig. 2 trace of one vector register
        tr = self.trace_register
        trace = None
        if tr is not None and 0 <= tr < C:
            from repro.core.tersoff.trace import KLoopTrace, frame_from_masks

            trace = KLoopTrace(width=W)

            def snap(computed=None):
                trace.add_frame(frame_from_masks(
                    computed=None if computed is None else computed[tr],
                    ready=found[tr], exhausted=exhausted[tr], valid=st.valid[tr],
                ))
        else:
            def snap(computed=None):
                return None
        self.last_trace = trace

        def advance(need: np.ndarray) -> np.ndarray:
            """One cursor step for `need` lanes; returns newly-ready mask."""
            rows_active = int(np.count_nonzero(need.any(axis=1)))
            idx = np.where(need, cursor, 0)
            kj = bk.gather_int(kc.j, idx, mask=need, rows_active=rows_active)
            rik = bk.gather(kc.r, idx, mask=need, rows_active=rows_active)
            if self._nt == 1:
                cut = float(self._pblock["cut"][0])
            else:
                tk = np.where(need, kc.tj[idx], 0)
                cut = self._k_cut(bk, st.ti, st.tj, tk, need)
            ok = need & (kj != st.j_atom) & (np.asarray(rik) <= cut)
            # cursor increment + two compares: vector integer work
            bk.int_op(need, n_ops=3, rows_active=rows_active)
            pend_row[ok] = idx[ok]
            cursor[need] += 1
            return ok

        def fire(mask: np.ndarray) -> None:
            """Run the triplet kernel for `mask` lanes and bank results."""
            rows_active = int(np.count_nonzero(mask.any(axis=1)))
            if rows_active == 0:
                return
            krow = np.where(mask, pend_row, 0)
            rik = kc.r[krow]
            dik = kc.d[krow]
            if self._nt == 1:
                pf = self._params_for(bk, 0, _TRIPLET_FIELDS)
            else:
                tk = kc.tj[krow]
                tflat = (st.ti * self._nt + st.tj) * self._nt + tk
                pf = self._params_for(bk, tflat, _TRIPLET_FIELDS, mask=mask)
            z, di, dj, dk = triplet_kernel(
                bk, pf, st.rij, st.dij, rik, dik, mask, rows=rows_active
            )
            zeta[mask] += z[mask]
            # Alg. 3 fallback semantics: lanes whose scratch is full only
            # accumulate zeta here; their derivatives are recomputed in
            # the second ("original scheme") pass.
            can_store = mask & (nstored < S)
            dzi[can_store] += di[can_store]
            dzj[can_store] += dj[can_store]
            cs = np.nonzero(can_store)
            slots = nstored[cs]
            stored_dzk[cs[0], cs[1], slots] = dk[cs]
            stored_krow[cs[0], cs[1], slots] = pend_row[cs]
            nstored[cs] += 1
            over = mask & ~can_store
            if over.any():
                oc, ow = np.nonzero(over)
                over_c.append(oc)
                over_w.append(ow)
                over_krow.append(pend_row[over])

        if self.fast_forward:
            while True:
                # fast-forward phase: spin lanes until every lane is
                # ready or exhausted (Fig. 2, right)
                while True:
                    need = st.valid & ~found & ~exhausted
                    rows_need = int(np.count_nonzero(need.any(axis=1)))
                    if rows_need == 0:
                        break
                    ok = advance(need)
                    found |= ok
                    exhausted = cursor >= kend
                    bk.counter.record_spin(rows_need)
                    bk.all_lanes(found | exhausted | ~st.valid, rows_active=rows_need)
                    snap()
                if not found.any():
                    break
                fire(found)
                snap(computed=found)
                found[:] = False
        else:
            # naive lockstep traversal (Fig. 2, left): the kernel fires as
            # soon as at least one lane is ready
            while True:
                need = st.valid & ~exhausted
                if not need.any():
                    break
                ok = advance(need)
                exhausted = cursor >= kend
                if ok.any():
                    fire(ok)
                snap(computed=ok)

        res = _KSweepResult(
            zeta=zeta, dzi=dzi, dzj=dzj,
            stored_krow=stored_krow, stored_dzk=stored_dzk, nstored=nstored,
        )
        if over_c:
            res.over_c = np.concatenate(over_c)
            res.over_w = np.concatenate(over_w)
            res.over_krow = np.concatenate(over_krow)
        return res

    # ----------------------------------------------------- force accumulation

    def _apply_pair_and_zeta_forces(
        self,
        bk: VectorBackend,
        st: _LaneState,
        sweep: _KSweepResult,
        kc: _KCandidates,
        forces: np.ndarray,
        *,
        conflict_writes: bool,
        register_fi: np.ndarray | None = None,
    ) -> tuple[float, float]:
        """Pair kernel + force scatter for schemes 1b/1c.

        Returns ``(energy, virial)``.  With ``register_fi`` (scheme 1c)
        the i-contribution accumulates into the provided per-lane
        register block instead of memory.
        """
        rows_active = int(np.count_nonzero(st.valid.any(axis=1)))
        if self._nt == 1:
            pf = self._params_for(bk, 0, _PAIR_FIELDS)
        else:
            pflat = (st.ti * self._nt + st.tj) * self._nt + st.tj
            pf = self._params_for(bk, pflat, _PAIR_FIELDS, mask=st.valid)
        e_pair, fpair, prefactor = pair_kernel(bk, pf, st.rij, sweep.zeta, st.valid, rows=rows_active)

        energy = float(np.sum(bk.reduce_add(e_pair, st.valid, rows_active=rows_active)))
        fvec_j = fpair[..., None] * st.dij - prefactor[..., None] * sweep.dzj
        fvec_i = -fpair[..., None] * st.dij - prefactor[..., None] * sweep.dzi
        bk.counter.record("arith", rows_active * 12, bk.isa.costs.arith, width=bk.width)

        scatter = bk.scatter_add_conflict if conflict_writes else bk.scatter_add_distinct
        for axis in range(3):
            scatter(forces[:, axis], st.j_atom, fvec_j[..., axis].astype(np.float64),
                    st.valid, rows_active=rows_active)
        if register_fi is not None:
            register_fi += np.where(st.valid[..., None], fvec_i, 0.0)
            bk.counter.record("arith", rows_active * 3, bk.isa.costs.arith, width=bk.width)
        else:
            for axis in range(3):
                scatter(forces[:, axis], st.i_atom, fvec_i[..., axis].astype(np.float64),
                        st.valid, rows_active=rows_active)

        # stored k contributions (and their virial via the banked k rows)
        max_stored = int(sweep.nstored.max()) if sweep.nstored.size else 0
        vir_k = 0.0
        for s in range(max_stored):
            m = st.valid & (sweep.nstored > s)
            rows_s = int(np.count_nonzero(m.any(axis=1)))
            if rows_s == 0:
                continue
            fk = -(prefactor[..., None] * sweep.stored_dzk[:, :, s, :])
            bk.counter.record("arith", rows_s * 3, bk.isa.costs.arith, width=bk.width)
            krow = sweep.stored_krow[:, :, s]
            kid = kc.j[krow]
            for axis in range(3):
                bk.scatter_add_conflict(
                    forces[:, axis], kid, fk[..., axis].astype(np.float64),
                    m, rows_active=rows_s,
                )
            d_ik = kc.d[krow]  # (C, W, 3)
            vir_k += float(np.sum((fk.astype(np.float64) * d_ik), where=m[..., None]))

        # overflow fallback: recompute the zeta derivatives (Alg. 3's
        # "original scheme" second loop) for lanes that exceeded kmax
        n_over = sweep.over_c.shape[0]
        if n_over:
            oc, ow, okr = sweep.over_c, sweep.over_w, sweep.over_krow
            W = bk.width
            pad = (-n_over) % W
            def _padded(a, fill=0):
                return np.concatenate([a, np.full(pad, fill, a.dtype)]) if pad else a
            sel_rij = _padded(st.rij[oc, ow]).reshape(-1, W)
            sel_dij = (np.concatenate([st.dij[oc, ow], np.zeros((pad, 3), st.dij.dtype)])
                       if pad else st.dij[oc, ow]).reshape(-1, W, 3)
            sel_rik = _padded(kc.r[okr].astype(bk.compute_dtype)).reshape(-1, W)
            sel_dik = (np.concatenate([kc.d[okr], np.zeros((pad, 3), dtype=kc.d.dtype)]) if pad
                       else kc.d[okr]).astype(bk.compute_dtype).reshape(-1, W, 3)
            sel_mask = _padded(np.ones(n_over, dtype=bool), False).reshape(-1, W)
            if self._nt == 1:
                pf_o = self._params_for(bk, 0, _TRIPLET_FIELDS)
            else:
                tflat = ((st.ti[oc, ow] * self._nt + st.tj[oc, ow]) * self._nt + kc.tj[okr])
                pf_o = self._params_for(bk, _padded(tflat).reshape(-1, W), _TRIPLET_FIELDS, mask=sel_mask)
            _, di_o, dj_o, dk_o = triplet_kernel(bk, pf_o, sel_rij, sel_dij, sel_rik, sel_dik, sel_mask)
            pre_o = _padded(prefactor[oc, ow].astype(np.float64)).reshape(-1, W)
            for axis in range(3):
                bk.scatter_add_conflict(forces[:, axis], _padded(st.i_atom[oc, ow]).reshape(-1, W),
                                        -(pre_o * di_o[..., axis]), sel_mask)
                bk.scatter_add_conflict(forces[:, axis], _padded(st.j_atom[oc, ow]).reshape(-1, W),
                                        -(pre_o * dj_o[..., axis]), sel_mask)
                bk.scatter_add_conflict(forces[:, axis], _padded(kc.j[okr]).reshape(-1, W),
                                        -(pre_o * dk_o[..., axis]), sel_mask)
            # overflow virial
            v_over = -np.sum(pre_o[..., None] * (sel_dij * dj_o + sel_dik * dk_o), where=sel_mask[..., None])
        else:
            v_over = 0.0

        vir_pair = np.sum((fpair * st.rij * st.rij).astype(np.float64), where=st.valid)
        vir_j = -np.sum((prefactor[..., None] * sweep.dzj * st.dij).astype(np.float64), where=st.valid[..., None])
        virial = float(vir_pair + vir_j + vir_k + v_over)
        return energy, virial

    # --------------------------------------------------------------- schemes

    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        self.check_list(neigh)
        if system.species != self.params.species:
            raise ValueError("system species do not match parameterization")
        bk = self.backend
        bk.reset_counter()
        flat = self._flat

        pairs = build_pairs(system, neigh, flat, cutoff="pair")
        kmode = "max" if self.filter_neighbors else "none"
        kcand_pairs = build_pairs(system, neigh, flat, cutoff=kmode)
        kc = _KCandidates.from_pairs(kcand_pairs)

        forces = np.zeros((system.n, 3), dtype=np.float64)
        if pairs.n_pairs == 0:
            return ForceResult(energy=0.0, forces=forces, virial=0.0,
                               stats=lane_stats(bk, self.scheme, pairs.n_pairs, pairs.n_list_entries))

        if self.scheme == "1a":
            energy, virial = self._compute_1a(bk, system, pairs, kc, forces)
        elif self.scheme == "1b":
            energy, virial = self._compute_1b(bk, system, pairs, kc, forces)
        else:
            energy, virial = self._compute_1c(bk, system, pairs, kc, forces)

        return ForceResult(energy=energy, forces=forces, virial=virial,
                           stats=lane_stats(bk, self.scheme, pairs.n_pairs, pairs.n_list_entries))

    # -- scheme 1b: fused pairs across lanes -----------------------------------

    def _lane_state_from_pairs(self, bk: VectorBackend, pairs: PairData, sel: np.ndarray) -> _LaneState:
        """Pack pair rows `sel` (padded with -1) into a (C, W) lane grid."""
        valid = sel >= 0
        idx = np.where(valid, sel, 0)
        return _LaneState(
            i_atom=np.where(valid, pairs.i_idx[idx], 0),
            j_atom=np.where(valid, pairs.j_idx[idx], -1),
            ti=np.where(valid, pairs.ti[idx], 0),
            tj=np.where(valid, pairs.tj[idx], 0),
            rij=np.where(valid, pairs.r[idx], 1.0).astype(bk.compute_dtype),
            dij=np.where(valid[..., None], pairs.d[idx], 0.0).astype(bk.compute_dtype),
            valid=valid,
        )

    def _compute_1b(self, bk, system, pairs, kc, forces) -> tuple[float, float]:
        W = bk.width
        P = pairs.n_pairs
        C = (P + W - 1) // W
        sel = np.full(C * W, -1, dtype=np.int64)
        sel[:P] = np.arange(P, dtype=np.int64)
        st = self._lane_state_from_pairs(bk, pairs, sel.reshape(C, W))
        sweep = self._k_sweep(bk, st, kc)
        return self._apply_pair_and_zeta_forces(
            bk, st, sweep, kc, forces, conflict_writes=True
        )

    # -- scheme 1c: atoms across lanes, J sequential ----------------------------

    def _compute_1c(self, bk, system, pairs, kc, forces) -> tuple[float, float]:
        W = bk.width
        n = system.n
        starts, counts = group_by_i(pairs.i_idx, n)
        C = (n + W - 1) // W
        atom_grid = np.arange(C * W, dtype=np.int64).reshape(C, W)
        atom_valid = atom_grid < n
        atom_ids = np.where(atom_valid, atom_grid, 0)
        register_fi = np.zeros((C, W, 3), dtype=np.float64)
        energy = 0.0
        virial = 0.0
        max_pairs = int(counts.max()) if counts.size else 0
        for jj in range(max_pairs):
            lane_valid = atom_valid & (jj < counts[atom_ids])
            if not lane_valid.any():
                break
            sel = np.where(lane_valid, starts[atom_ids] + jj, -1)
            st = self._lane_state_from_pairs(bk, pairs, sel)
            sweep = self._k_sweep(bk, st, kc)
            e, v = self._apply_pair_and_zeta_forces(
                bk, st, sweep, kc, forces, conflict_writes=True, register_fi=register_fi,
            )
            energy += e
            virial += v
        # one distinct write of the register-accumulated F_i per lane
        for axis in range(3):
            bk.scatter_add_distinct(forces[:, axis], atom_ids, register_fi[..., axis], atom_valid)
        return energy, virial

    # -- scheme 1a: shared neighbor list across lanes ----------------------------

    def _compute_1a(self, bk, system, pairs, kc, forces) -> tuple[float, float]:
        W = bk.width
        cd = bk.compute_dtype
        n = system.n
        starts, counts = group_by_i(pairs.i_idx, n)
        nblocks = (counts + W - 1) // W
        row_atom = np.repeat(np.arange(n, dtype=np.int64), nblocks)
        C = row_atom.shape[0]
        if C:
            row_first = np.concatenate(([0], np.cumsum(nblocks)[:-1]))
            block_in_atom = np.arange(C, dtype=np.int64) - np.repeat(row_first, nblocks)
        else:
            block_in_atom = np.empty(0, dtype=np.int64)
        if C == 0:
            return 0.0, 0.0
        lane = np.arange(W, dtype=np.int64)[None, :]
        pair_row = starts[row_atom][:, None] + block_in_atom[:, None] * W + lane
        valid = pair_row < (starts[row_atom] + counts[row_atom])[:, None]
        idx = np.where(valid, pair_row, 0)

        st = _LaneState(
            i_atom=np.where(valid, pairs.i_idx[idx], 0),
            j_atom=np.where(valid, pairs.j_idx[idx], -1),
            ti=np.where(valid, pairs.ti[idx], 0),
            tj=np.where(valid, pairs.tj[idx], 0),
            rij=np.where(valid, pairs.r[idx], 1.0).astype(cd),
            dij=np.where(valid[..., None], pairs.d[idx], 0.0).astype(cd),
            valid=valid,
        )

        # ---- shared-list K loop: k is uniform across lanes ------------------
        kstart = kc.start[row_atom]
        kcount = kc.end[row_atom] - kstart
        maxk = int(kcount.max()) if kcount.size else 0
        S = self.kmax
        zeta = np.zeros((C, W), dtype=cd)
        dzi = np.zeros((C, W, 3), dtype=cd)
        dzj = np.zeros((C, W, 3), dtype=cd)
        stored_dzk = np.zeros((C, W, min(S, max(maxk, 1)), 3), dtype=cd)
        stored_kid = np.zeros((C, min(S, max(maxk, 1))), dtype=np.int64)
        stored_krow = np.zeros((C, min(S, max(maxk, 1))), dtype=np.int64)
        stored_rowmask = np.zeros((C, min(S, max(maxk, 1))), dtype=bool)
        nstored = np.zeros(C, dtype=np.int64)
        overflow: list[tuple[np.ndarray, np.ndarray]] = []  # (rows, krow)

        for t in range(maxk):
            row_active = t < kcount
            rows_active = int(np.count_nonzero(row_active))
            if rows_active == 0:
                break
            krow = np.where(row_active, kstart + t, 0)
            # k data loads are *broadcasts*: the whole register reads the
            # same neighbor-list slot (the big advantage of scheme 1a)
            rik_s = kc.r[krow]
            k_atom = kc.j[krow]
            bk.counter.record("load", rows_active * 2, bk.isa.costs.load, width=bk.width)
            if self._nt == 1:
                cut = float(self._pblock["cut"][0])
                kcut_ok = (row_active & (rik_s <= cut))[:, None] & valid
            else:
                # per-lane cutoff (tj differs across lanes, k is shared)
                tk = kc.tj[krow]
                tflat_lane = (st.ti * self._nt + st.tj) * self._nt + tk[:, None]
                cutl = bk.gather(self._pblock["cut"], tflat_lane, mask=valid, adjacent=True)
                kcut_ok = row_active[:, None] & valid & (rik_s[:, None] <= np.asarray(cutl))
            mask = kcut_ok & (st.j_atom != k_atom[:, None])
            bk.int_op(mask, n_ops=2, rows_active=rows_active)
            rows_fire = int(np.count_nonzero(mask.any(axis=1)))
            if rows_fire == 0:
                continue
            rik = np.broadcast_to(rik_s[:, None], (C, W)).astype(cd)
            dik = np.broadcast_to(kc.d[krow][:, None, :], (C, W, 3)).astype(cd)
            if self._nt == 1:
                pf = self._params_for(bk, 0, _TRIPLET_FIELDS)
            else:
                tk = kc.tj[krow]
                tflat = (st.ti * self._nt + st.tj) * self._nt + tk[:, None]
                pf = self._params_for(bk, tflat, _TRIPLET_FIELDS, mask=mask)
            z, di, dj, dk = triplet_kernel(bk, pf, st.rij, st.dij, rik, dik, mask, rows=rows_fire)
            zeta[mask] += z[mask]
            can_store = mask.any(axis=1) & (nstored < stored_dzk.shape[2])
            # overflow rows only bank zeta; derivatives are recomputed in
            # the fallback pass (Alg. 3 semantics)
            store_mask = mask & can_store[:, None]
            dzi[store_mask] += di[store_mask]
            dzj[store_mask] += dj[store_mask]
            csr = np.nonzero(can_store)[0]
            slots = nstored[csr]
            stored_dzk[csr, :, slots] = np.where(mask[csr][..., None], dk[csr], 0.0)
            stored_kid[csr, slots] = k_atom[csr]
            stored_krow[csr, slots] = krow[csr]
            stored_rowmask[csr, slots] = True
            nstored[csr] += 1
            over_rows = np.nonzero(mask.any(axis=1) & ~can_store)[0]
            if over_rows.size:
                overflow.append((over_rows, krow[over_rows]))

        # ---- pair kernel + force writes -------------------------------------
        rows_valid = int(np.count_nonzero(valid.any(axis=1)))
        if self._nt == 1:
            pf = self._params_for(bk, 0, _PAIR_FIELDS)
        else:
            pflat = (st.ti * self._nt + st.tj) * self._nt + st.tj
            pf = self._params_for(bk, pflat, _PAIR_FIELDS, mask=valid)
        e_pair, fpair, prefactor = pair_kernel(bk, pf, st.rij, zeta, valid, rows=rows_valid)

        energy = float(np.sum(bk.reduce_add(e_pair, valid, rows_active=rows_valid)))
        fvec_j = fpair[..., None] * st.dij - prefactor[..., None] * dzj
        fvec_i = -fpair[..., None] * st.dij - prefactor[..., None] * dzi
        bk.counter.record("arith", rows_valid * 12, bk.isa.costs.arith, width=bk.width)
        # j's within a register come from one neighbor list -> distinct
        for axis in range(3):
            bk.scatter_add_distinct(forces[:, axis], st.j_atom, fvec_j[..., axis].astype(np.float64),
                                    valid, rows_active=rows_valid)
        # i is uniform per register -> in-register reduction + scalar update
        fi_rows = np.zeros((C, 3), dtype=np.float64)
        for axis in range(3):
            fi_rows[:, axis] = bk.reduce_add(fvec_i[..., axis], valid, rows_active=rows_valid).astype(np.float64)
        scatter_add_rows(forces, row_atom, fi_rows)
        bk.counter.record("store", rows_valid, bk.isa.costs.store)

        virial = float(np.sum((fpair * st.rij * st.rij).astype(np.float64), where=valid))
        virial -= float(np.sum((prefactor[..., None] * dzj * st.dij).astype(np.float64), where=valid[..., None]))

        # k contributions: k uniform per register -> reduce + scalar update
        for s in range(stored_dzk.shape[2]):
            rmask = stored_rowmask[:, s]
            rows_s = int(np.count_nonzero(rmask))
            if rows_s == 0:
                continue
            contrib = -(prefactor[..., None] * stored_dzk[:, :, s, :])
            bk.counter.record("arith", rows_s * 3, bk.isa.costs.arith, width=bk.width)
            fk_rows = np.zeros((C, 3), dtype=np.float64)
            for axis in range(3):
                fk_rows[:, axis] = bk.reduce_add(contrib[..., axis], valid, rows_active=rows_s).astype(np.float64)
            fk_rows[~rmask] = 0.0
            scatter_add_rows(forces, stored_kid[:, s], fk_rows)
            bk.counter.record("store", rows_s, bk.isa.costs.store)
            d_k = kc.d[stored_krow[:, s]]
            virial += float(np.sum(np.where(rmask[:, None], fk_rows * d_k, 0.0)))

        # overflow fallback (kmax exceeded): recompute row-by-row
        for rows, krows in overflow:
            for r0, kr in zip(rows, krows):
                m = valid[r0 : r0 + 1]
                rik = np.broadcast_to(kc.r[kr], (1, W)).astype(cd)
                dik = np.broadcast_to(kc.d[kr][None, None, :], (1, W, 3)).astype(cd)
                mm = m & (st.j_atom[r0 : r0 + 1] != kc.j[kr])
                if self._nt == 1:
                    pf_o = self._params_for(bk, 0, _TRIPLET_FIELDS)
                else:
                    tflat = (st.ti[r0 : r0 + 1] * self._nt + st.tj[r0 : r0 + 1]) * self._nt + kc.tj[kr]
                    pf_o = self._params_for(bk, tflat, _TRIPLET_FIELDS, mask=mm)
                _, di_o, dj_o, dk_o = triplet_kernel(
                    bk, pf_o, st.rij[r0 : r0 + 1], st.dij[r0 : r0 + 1], rik, dik, mm
                )
                pre = prefactor[r0 : r0 + 1][..., None].astype(np.float64)
                for axis in range(3):
                    bk.scatter_add_distinct(forces[:, axis], st.j_atom[r0 : r0 + 1],
                                            -(pre[..., 0] * dj_o[..., axis]), mm)
                fi_o = -np.sum(np.where(mm[..., None], pre * di_o, 0.0), axis=1)[0]
                fk_o = -np.sum(np.where(mm[..., None], pre * dk_o, 0.0), axis=1)[0]
                forces[row_atom[r0]] += fi_o
                forces[kc.j[kr]] += fk_o
                virial += float(-np.sum(np.where(mm[..., None], pre * dj_o * st.dij[r0:r0+1], 0.0)))
                virial += float(np.dot(fk_o, kc.d[kr]))
        return energy, virial
