"""Spatial domain decomposition with ghost-atom (halo) exchange.

LAMMPS partitions the periodic box into a ``px x py x pz`` grid of
subdomains, one per MPI rank; each rank owns the atoms inside its
brick and keeps *ghost* copies of remote atoms within the list cutoff
of its boundary.  Per timestep the ranks forward-communicate ghost
positions and (because full neighbor lists accumulate forces onto
ghosts) reverse-communicate ghost forces back to their owners.

This module reproduces that structure in sequential-SPMD form; the
shared-memory execution engine (:mod:`repro.parallel.engine`) runs the
same ranks concurrently.  The distributed energy/force computation is
exact: each rank evaluates the potential with the i-loop restricted to
owned atoms, so summing rank energies and reverse-adding ghost forces
reproduces the single-domain result bit-for-bit up to floating-point
reassociation (validated in tests to ~1e-12).

Determinism contract: for a *fixed* decomposition (rank count, grid),
the rank-by-rank evaluation plus the fixed rank-order reduction in
:meth:`DomainDecomposition.compute_forces` is the reference result, and
the engine reproduces it bitwise for any number of worker processes
(see ``tests/test_parallel_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import cext
from repro.core.pipeline import Workspace
from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.potential import ForceResult, Potential
from repro.md.units import DEFAULT_SKIN
from repro.vector.backend import scatter_add_rows

#: bytes per atom in a forward (position+type+tag) halo message
FORWARD_BYTES_PER_ATOM = 3 * 8 + 4 + 8
#: bytes per atom in a reverse (force) halo message
REVERSE_BYTES_PER_ATOM = 3 * 8


def _grid_for(n_ranks: int) -> tuple[int, int, int]:
    """Near-cubic process grid for `n_ranks` (LAMMPS procs-grid logic)."""
    best = (n_ranks, 1, 1)
    best_surface = None
    for px in range(1, n_ranks + 1):
        if n_ranks % px:
            continue
        rest = n_ranks // px
        for py in range(1, rest + 1):
            if rest % py:
                continue
            pz = rest // py
            surface = px * py + py * pz + px * pz
            if best_surface is None or surface < best_surface:
                best_surface = surface
                best = (px, py, pz)
    return best


def _c_reduce_args(out: np.ndarray, n: int, pairs: list) -> tuple | None:
    """``md_reduce_rows``'s arguments after `n`, with the pointer tables
    they point into, or ``None`` unless `out` is a contiguous f64 ``(n, 3)``
    array, every block contiguous f64 rows enough for its rank's indices
    and every index array contiguous int64 (C checks the index values)."""
    def rows3(a, m: int) -> bool:
        return (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous
                and a.ndim == 2 and a.shape[1] == 3 and a.shape[0] >= m)

    if not (rows3(out, n) and len(out) == n and all(
            rows3(b, len(dom.local_idx)) and dom.local_idx.dtype == np.int64
            and dom.local_idx.flags.c_contiguous for dom, b in pairs)):
        return None
    tables = (np.array([dom.local_idx.ctypes.data for dom, _ in pairs], dtype=np.uintp),
              np.array([dom.local_idx.shape[0] for dom, _ in pairs], dtype=np.int64),
              np.array([block.ctypes.data for _, block in pairs], dtype=np.uintp))
    return (out.ctypes.data, len(pairs), *(t.ctypes.data for t in tables)), tables


def blank_ghost_rows(neigh: NeighborList, n_owned: int) -> None:
    """Remove neighbor rows of ghost atoms (they are not iterated).

    Keeps the CSR invariants; ghost atoms end up with empty rows so
    any potential skips them as i-atoms while they still appear as
    j/k partners of owned atoms.  Must run right after every (re)build
    of a rank-local list, before the list is consumed — the engine and
    the sequential path both follow that discipline, so a given list
    ``version`` always refers to the blanked topology.
    """
    counts = np.diff(neigh.offsets)
    counts[n_owned:] = 0
    keep_len = int(neigh.offsets[n_owned])
    neigh.neighbors = neigh.neighbors[:keep_len]
    neigh.offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


@dataclass
class RankDomain:
    """One rank's view: owned atoms plus ghosts within the halo width."""

    rank: int
    cell: tuple[int, int, int]
    owned_idx: np.ndarray  # global indices of owned atoms
    ghost_idx: np.ndarray  # global indices of ghosts
    local_idx: np.ndarray  # owned + ghost global indices, owned first
    local_system: AtomSystem  # owned + ghosts, owned first
    n_owned: int

    @property
    def n_ghost(self) -> int:
        return int(self.ghost_idx.shape[0])


class DomainDecomposition:
    """Partition a system across a process grid and run halo exchanges.

    Parameters
    ----------
    system:
        The global system (fully periodic box).
    n_ranks:
        Number of MPI ranks; the grid is chosen like LAMMPS does
        (minimal subdomain surface) unless `grid` is given.
    halo:
        Ghost-region width; must be >= the neighbor-list cutoff
        (cutoff + skin) of the potential that will run on the domains.
    """

    def __init__(
        self,
        system: AtomSystem,
        n_ranks: int,
        halo: float,
        *,
        grid: tuple[int, int, int] | None = None,
    ):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if halo <= 0.0:
            raise ValueError("halo width must be positive")
        self.system = system
        self.halo = float(halo)
        self.grid = grid if grid is not None else _grid_for(n_ranks)
        if int(np.prod(self.grid)) != n_ranks:
            raise ValueError(f"grid {self.grid} does not have {n_ranks} cells")
        self.n_ranks = n_ranks
        box = system.box
        lengths = box.lengths
        sub = lengths / np.array(self.grid, dtype=np.float64)
        self.sub_lengths = sub
        self.domains = self._build_domains()
        # per-rank neighbor lists, keyed by (cutoff, skin): each is built
        # once for this decomposition and reused by every compute_forces,
        # so an interaction cache keyed on the list version survives.
        self._lists: dict[int, NeighborList] = {}
        self._list_key: tuple[float, float] | None = None
        self._ws = Workspace()
        self._c: tuple = ((), None)  # the last C reduction's arrays and arguments

    # -- construction -----------------------------------------------------------

    def _cell_of(self, x: np.ndarray) -> np.ndarray:
        box = self.system.box
        frac = (x - box.lo) / box.lengths
        cells = np.floor(frac * np.array(self.grid)).astype(np.int64)
        return np.clip(cells, 0, np.array(self.grid) - 1)

    def _build_domains(self) -> list[RankDomain]:
        system = self.system
        box = system.box
        grid = np.array(self.grid)
        cells = self._cell_of(system.x)
        lin = (cells[:, 0] * grid[1] + cells[:, 1]) * grid[2] + cells[:, 2]
        owner = lin  # rank id per atom
        domains: list[RankDomain] = []
        for rank in range(self.n_ranks):
            cz = rank % grid[2]
            cy = (rank // grid[2]) % grid[1]
            cx = rank // (grid[1] * grid[2])
            lo = box.lo + np.array([cx, cy, cz]) * self.sub_lengths
            hi = lo + self.sub_lengths
            owned_mask = owner == rank
            owned_idx = np.nonzero(owned_mask)[0]
            # ghosts: non-owned atoms within `halo` of the brick, with
            # periodic wrap-around measured through the global box
            others = np.nonzero(~owned_mask)[0]
            if others.size:
                xo = system.x[others]
                dist = np.zeros(others.shape[0], dtype=np.float64)
                for axis in range(3):
                    # distance from the point to the interval [lo, hi],
                    # minimized over the point's periodic images
                    shifts = (0.0,)
                    if box.periodic[axis]:
                        span = box.lengths[axis]
                        shifts = (0.0, span, -span)
                    d_axis = None
                    for shift in shifts:
                        xs = xo[:, axis] + shift
                        d = np.maximum.reduce([lo[axis] - xs, xs - hi[axis], np.zeros_like(xs)])
                        d_axis = d if d_axis is None else np.minimum(d_axis, d)
                    dist += d_axis * d_axis
                ghost_mask = dist <= self.halo * self.halo
                ghost_idx = others[ghost_mask]
            else:
                ghost_idx = np.empty(0, dtype=np.int64)
            local_idx = np.concatenate([owned_idx, ghost_idx])
            local = AtomSystem(
                box=box,
                x=system.x[local_idx].copy(),
                v=system.v[local_idx].copy(),
                f=np.zeros((local_idx.shape[0], 3), dtype=np.float64),
                type=system.type[local_idx].copy(),
                mass=system.mass.copy(),
                species=system.species,
                tag=system.tag[local_idx].copy(),
            )
            domains.append(
                RankDomain(
                    rank=rank,
                    cell=(int(cx), int(cy), int(cz)),
                    owned_idx=owned_idx,
                    ghost_idx=ghost_idx,
                    local_idx=local_idx,
                    local_system=local,
                    n_owned=int(owned_idx.shape[0]),
                )
            )
        return domains

    # -- position refresh (forward halo exchange, in-process) ---------------------

    def refresh_positions(self, x: np.ndarray) -> None:
        """Update every rank's local positions from global positions `x`.

        The in-process analogue of a forward halo exchange: topology
        (owned/ghost sets) stays fixed, only coordinates move.  Valid
        while no atom has drifted further than half the skin from the
        positions the decomposition was built at — the same criterion
        that triggers a neighbor-list rebuild; callers that advance
        atoms are responsible for rebuilding the decomposition then
        (the engine does this automatically).
        """
        for dom in self.domains:
            np.take(x, dom.local_idx, axis=0, out=dom.local_system.x)

    # -- distributed force computation ----------------------------------------------

    def ensure_local_list(self, rank: int, settings: NeighborSettings) -> NeighborList:
        """Rank `rank`'s local list for `settings`, ghost rows blanked.

        Built once per decomposition and settings, at the rank's local
        positions of the first call, and never skin-tested: like the
        engine, the caller decomposes again once an atom has moved past
        half the skin (the validity condition of :meth:`refresh_positions`).
        """
        key = (settings.cutoff, settings.skin)
        if self._list_key != key:
            self._lists.clear()
            self._list_key = key
        nl = self._lists.get(rank)
        if nl is None:
            dom = self.domains[rank]
            nl = self._lists[rank] = NeighborList(settings)
            nl.build(dom.local_system.x, dom.local_system.box)
            blank_ghost_rows(nl, dom.n_owned)
        return nl

    def reduce_forces(self, rank_forces: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        """Fixed rank-order reverse halo exchange: merge per-rank force
        blocks (owned + ghost rows) onto the global force array.

        The reduction order — rank 0, rank 1, ... with input-order
        accumulation inside each scatter — is the determinism contract:
        the engine reproduces exactly this association for any worker
        count.  ``md_reduce_rows`` (``_step.c``) adds in that order where
        the extension loads and the arrays are contiguous f64 rows;
        ``scatter_add_rows`` is the same sums otherwise, bit for bit.
        The returned array is a workspace view, valid until the next
        reduction on this decomposition (pass ``out=`` to own it).
        """
        n = self.system.n
        if out is None:
            out = self._ws.buf("forces", (n, 3), np.float64)
        pairs = list(zip(self.domains, rank_forces))
        fn = cext.entry("md_reduce_rows")
        if fn is not None:
            # checked and looked up once per set of arrays: after a wait on
            # the workers that Python costs ~50 us a step, a third of the C pass
            key = (out, *(block for _, block in pairs))
            if len(key) != len(self._c[0]) or any(a is not b for a, b in zip(key, self._c[0])):
                self._c = key, _c_reduce_args(out, n, pairs)
            args = self._c[1]
            if args is not None and fn(n, *args[0]) == 0:
                return out
        out.fill(0.0)
        for dom, block in pairs:
            scatter_add_rows(out, dom.local_idx, block[: dom.local_idx.shape[0]])
        return out

    def compute_forces(
        self,
        potential: Potential,
        *,
        skin: float = DEFAULT_SKIN,
    ) -> tuple[float, np.ndarray, list[ForceResult]]:
        """Evaluate `potential` rank-by-rank and assemble global results.

        Per rank: build the local neighbor list on the first call (its
        ghost rows blanked: the i-loop runs over owned atoms only) or
        reuse it, evaluate, then reverse-add ghost force contributions to
        their owners in fixed rank order.

        Returns ``(total_energy, global_forces, per_rank_results)``;
        the force array is a workspace view valid until the next call.
        """
        settings = NeighborSettings(cutoff=potential.cutoff, skin=skin, full=True)
        energy = 0.0
        results: list[ForceResult] = []
        for dom in self.domains:
            neigh = self.ensure_local_list(dom.rank, settings)
            res = potential.compute(dom.local_system, neigh)
            energy += res.energy
            results.append(res)
        forces = self.reduce_forces([r.forces for r in results])
        return energy, forces, results

    # -- summaries -----------------------------------------------------------------

    def workload_summary(self) -> dict:
        """Per-rank owned/ghost counts for the performance model."""
        owned = np.array([d.n_owned for d in self.domains])
        ghosts = np.array([d.n_ghost for d in self.domains])
        return {
            "grid": self.grid,
            "owned_max": int(owned.max()),
            "owned_mean": float(owned.mean()),
            "ghost_max": int(ghosts.max()) if ghosts.size else 0,
            "ghost_mean": float(ghosts.mean()) if ghosts.size else 0.0,
            "imbalance": float(owned.max() / max(owned.mean(), 1e-300)),
        }
