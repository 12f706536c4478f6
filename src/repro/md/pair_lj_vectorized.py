"""Vectorized Lennard-Jones — the pair-potential contrast case.

The paper's related work (miniMD, Gromacs' kernels) establishes that
pair potentials vectorize straightforwardly with scheme (1a): the J
loop maps onto lanes, there is no K loop, no bond-order coupling, no
conflict writes beyond the j-scatter.  This module implements exactly
that on the lane backend so the repository can *measure* the contrast
the paper draws in Sec. I-III: compare its utilization/cycle statistics
with :class:`~repro.core.tersoff.vectorized.TersoffVectorized` on the
same workload (``tests/test_pair_lj_vectorized.py::TestContrast``).

Like its Tersoff and SW siblings it is a plain lane simulator: pair
potentials traditionally do not pre-filter — the cutoff mask is cheap
and lists are long — so every call lays the full skin-extended list
out in lanes and the cutoff mask runs in-register.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import hot_path
from repro.core.pipeline import group_by_i, pair_geometry
from repro.core.tersoff.kernels import charge
from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList
from repro.md.potential import ForceResult, Potential
from repro.vector.backend import VectorBackend, lane_stats, scatter_add_rows
from repro.vector.isa import ISA, get_isa
from repro.vector.precision import Precision

# per-lane vector ops of one LJ interaction (r2 -> energy+force)
RECIPE_LJ = {"arith": 11, "divide": 1, "blend": 1}


class LennardJonesVectorized(Potential):
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

    @hot_path(reason="every vectorized-LJ force call")
    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        self.check_list(neigh)
        bk = self.backend
        bk.reset_counter()
        cd = bk.compute_dtype
        W = bk.width
        n = system.n

        i_idx, j_idx = neigh.pairs()
        L = i_idx.shape[0]
        # the guards against non-finite and coincident atoms; the kernel
        # itself works in r², which no square root produced
        d, _ = pair_geometry(system.x, system.box, i_idx, j_idx)
        r2_all = np.einsum("ij,ij->i", d, d)

        # scheme (1a): rows = atoms (blocks), lanes = their list entries
        starts, counts = group_by_i(i_idx, n)
        nblocks = (counts + W - 1) // W
        row_atom = np.repeat(np.arange(n, dtype=np.int64), nblocks)
        C = row_atom.shape[0]
        # the force accumulator must start zeroed: a fresh allocation per call
        forces = np.zeros((n, 3), dtype=np.float64)  # repro-lint: disable=KA003
        if C == 0:
            stats = lane_stats(bk, "1a", 0, L)
            stats["virial_tensor"] = np.zeros((3, 3), dtype=np.float64)  # repro-lint: disable=KA003
            stats["per_atom_energy"] = np.zeros(n, dtype=np.float64)  # repro-lint: disable=KA003
            return ForceResult(energy=0.0, forces=forces, virial=0.0, stats=stats)
        row_first = np.concatenate(([0], np.cumsum(nblocks)[:-1]))
        block_in_atom = np.arange(C, dtype=np.int64) - np.repeat(row_first, nblocks)
        lane = np.arange(W, dtype=np.int64)[None, :]
        slot = starts[row_atom][:, None] + block_in_atom[:, None] * W + lane
        valid = slot < (starts[row_atom] + counts[row_atom])[:, None]
        idx = np.where(valid, slot, 0)

        r2 = np.where(valid, r2_all[idx], 1.0e30).astype(cd)
        within = bk.cmp_le(r2, self.cutoff * self.cutoff)
        mask = np.logical_and(valid, within)

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
        e_rows = bk.reduce_add(e_pair.astype(cd), mask)
        energy = 0.5 * float(np.sum(e_rows))

        dvec = np.where(valid[..., None], d[idx], 0.0)
        fvec = f_over_r[..., None] * dvec
        # full-list Newton-off convention (miniMD-style): every ordered
        # pair updates only its center atom i — an in-register reduction
        # and one scalar store, with no scatter at all.  This is why the
        # paper calls pair potentials the *easy* case.
        fi_rows = np.zeros((C, 3), dtype=np.float64)  # repro-lint: disable=KA003
        for axis in range(3):
            fi_rows[:, axis] = bk.reduce_add(fvec[..., axis].astype(cd), mask)
        scatter_add_rows(forces, row_atom, -fi_rows)
        bk.counter.record("store", C, bk.isa.costs.store)

        virial = 0.5 * float(np.sum(f_over_r * np.einsum("...i,...i->...", dvec, dvec)))
        stats = lane_stats(bk, "1a", int(np.count_nonzero(mask)), L)
        # full virial tensor: each ordered pair contributes d ⊗ f, halved
        # for the double count; symmetrize to kill summation-order skew
        stress = 0.5 * np.einsum("cwa,cwb->ab", dvec, fvec)
        stats["virial_tensor"] = 0.5 * (stress + stress.T)
        stats["per_atom_energy"] = 0.5 * np.bincount(
            row_atom, weights=e_rows.astype(np.float64), minlength=n
        )
        return ForceResult(energy=energy, forces=forces, virial=virial, stats=stats)
