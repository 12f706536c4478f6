"""Step-persistent interaction cache for the staged pipeline.

Generalized from the PR-2 Tersoff-only cache: the validity layers and
the geometry-recomputed-every-call discipline are unchanged, but the
potential-specific staging decisions now come from the
:class:`~repro.core.pipeline.kernel.MultiBodyKernel` contract instead
of being hard-wired.

The paper's follow-up ("Sustainable performance through vectorization",
arXiv:1710.00882) observes that portable implementations lose their
speedups in the *scalar segment*: neighbor-list filtering and data
staging, not the floating-point kernel.  The skin distance exists
precisely so the neighbor list — and therefore the list-level topology
— stays fixed for many consecutive MD steps, so that topology is made
step-persistent here.  Validity is layered:

==========  ==========================================  =================
layer       keyed on                                    caches
==========  ==========================================  =================
L1 (list)   ``NeighborList`` identity + ``version``     full-list (i, j)
                                                        expansion
L2 (types)  L1 + the system's ``type`` array (by        ``ti``/``tj``,
            value); only for kernels with               ``pair_flat``,
            ``uses_types``                              per-entry cutoff
==========  ==========================================  =================

A kernel that walks the list itself (``reads_list``: the compiled
kernels filter and build their geometry per atom, straight from
positions) is handed the CSR arrays as stored, the longest row, the
list's transposed index and the type column (zeros for a type-blind
kernel), and only ``x``/``box`` are rewritten per call.

Geometry (``d``, ``r``) is recomputed from the current positions on
*every* call — forces always follow the atoms — and so are the cutoff
masks and everything the kernel stages from them (the filtered pairs,
triplets, parameter gathers and segsum indices): the
numpy kernels are the oracle and the no-toolchain fallback, and their
staging stays the plain cold path.  A cache **hit** therefore reuses
only L1/L2 arrays that the cold path would have recomputed to identical
values, which is what makes hits bit-for-bit exact rather than
approximately right.

Counters: an L1/L2 change is an *invalidation* (the list was rebuilt or
repointed), everything else is a *hit*.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.analysis import hot_path
from repro.core.pipeline.kernel import MultiBodyKernel, Staging
from repro.core.pipeline.topology import ListData, PairData, pair_geometry
from repro.core.pipeline.workspace import CacheStats, Workspace
from repro.md.neighbor import incoming_index


class InteractionCache:
    """Step-persistent staging for one pipeline kernel.

    One instance per potential; see the module docstring for the
    validity layers.  ``prepare`` returns a :class:`Staging` whose
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
        # L2: type staging (kernels with uses_types)
        self._types: np.ndarray | None = None
        self._ti_full: np.ndarray | None = None
        self._tj_full: np.ndarray | None = None
        self._pair_flat_full: np.ndarray | None = None
        self._cut_full = None  # per-entry array, or a scalar cutoff
        self._staging: Staging | None = None

    def __reduce__(self):
        # Pickle as a *fresh* cache: the internals hold a weakref and
        # workspace views that must not cross process boundaries, and a
        # cold cache is exact (hits only ever reuse recomputable
        # arrays), so "spawn" workers simply warm their own copy.
        return (InteractionCache, ())

    def _rekey(self, system, neigh) -> bool:
        """L1: True (and re-keyed) when the list or atom count changed."""
        if (
            self._neigh_ref() is neigh
            and self._version == neigh.version
            and self._n_atoms == system.n
        ):
            return False
        self._neigh_ref = weakref.ref(neigh)
        self._version = neigh.version
        self._n_atoms = system.n
        self._types = None
        return True

    def _count(self, topo_valid: bool) -> None:
        if topo_valid:
            self.stats.hits += 1
            self.stats.last_event = "hit"
        else:
            self.stats.invalidations += 1
            self.stats.last_event = "invalidated"

    def _prepare_list(self, system, neigh, kernel: MultiBodyKernel) -> Staging:
        """L1/L2 only, for ``reads_list`` kernels."""
        topo_valid = not self._rekey(system, neigh)
        if not topo_valid:
            offsets = np.ascontiguousarray(neigh.offsets, dtype=np.int64)
            if offsets.shape[0] != system.n + 1 or offsets[-1] != neigh.neighbors.shape[0]:
                # the kernel indexes these arrays unchecked by numpy; stay
                # un-keyed so that a retry is validated again
                self._version = -1
                raise ValueError(
                    f"neighbor list rows ({offsets.shape[0] - 1} atoms, "
                    f"{neigh.neighbors.shape[0]} entries) do not match the system ({system.n} atoms)"
                )
            neighbors = np.ascontiguousarray(neigh.neighbors, dtype=np.int32)
            lst = ListData(
                offsets=offsets,
                neighbors=neighbors,
                max_row=int(np.diff(offsets).max(initial=0)),
                incoming=incoming_index(neighbors, system.n),
            )
            self._staging = Staging(pairs=lst, kcand=lst)
        lst = self._staging.pairs
        if self._types is None or (
            kernel.uses_types and not np.array_equal(system.type, self._types)
        ):
            # a type-blind kernel sees one type, whatever the system says
            self._types = lst.types = (np.array(system.type, dtype=np.int32) if kernel.uses_types
                                       else np.zeros(system.n, dtype=np.int32))
            topo_valid = False
        self._count(topo_valid)
        lst.x = np.ascontiguousarray(system.x, dtype=np.float64)
        lst.box = system.box
        return self._staging

    @hot_path(reason="per-step staging; geometry scratch must come from the Workspace")
    def prepare(self, system, neigh, kernel: MultiBodyKernel) -> Staging:
        if kernel.reads_list:
            # allocates only when the list or the type column changed
            return self._prepare_list(system, neigh, kernel)  # repro-lint: disable=KA003
        ws = self.workspace
        topo_valid = not self._rekey(system, neigh)
        if not topo_valid:
            self._i_full, self._j_full = neigh.pairs()
        if self._types is None or (
            kernel.uses_types and not np.array_equal(system.type, self._types)
        ):
            if kernel.uses_types:
                self._types = system.type.copy()
                ti = system.type[self._i_full].astype(np.int64)
                tj = system.type[self._j_full].astype(np.int64)
                self._ti_full, self._tj_full = ti, tj
                self._pair_flat_full = kernel.pair_type_index(ti, tj)
                self._cut_full = kernel.pair_cutoffs(self._pair_flat_full)
            else:
                # type-blind kernel: never re-key on system.type
                self._types = self._i_full
                self._ti_full = self._tj_full = self._pair_flat_full = None
                self._cut_full = kernel.pair_cutoffs(None)
            topo_valid = False

        i_idx, j_idx = self._i_full, self._j_full
        L = i_idx.shape[0]
        d, r = pair_geometry(system.x, system.box, i_idx, j_idx, workspace=ws)

        maskp = ws.buf("maskp", L, bool)
        if kernel.cutoff_inclusive:
            np.less_equal(r, self._cut_full, out=maskp)
        else:
            np.less(r, self._cut_full, out=maskp)
        if kernel.separate_kcand:
            maskm = ws.buf("maskm", L, bool)
            np.less_equal(r, kernel.kcand_cutoff, out=maskm)
        else:
            maskm = maskp

        self._count(topo_valid)
        # cold every call: the masks follow the positions
        return self._build_staging(kernel, L, maskp, maskm, d, r)  # repro-lint: disable=KA003

    def _build_staging(self, kernel, n_list: int, maskp, maskm, d, r) -> Staging:
        """The pairs within the cutoff (``maskp``) and the k-candidates
        (``maskm``, the same mask unless ``separate_kcand``), handed to
        the kernel's :meth:`~MultiBodyKernel.build_staging`."""
        i_idx, j_idx = self._i_full, self._j_full

        def subset(mask) -> PairData:
            if self._ti_full is None:
                ti = tj = flat = np.zeros(int(np.count_nonzero(mask)), dtype=np.int64)
            else:
                ti, tj, flat = self._ti_full[mask], self._tj_full[mask], self._pair_flat_full[mask]
            return PairData(
                i_idx=i_idx[mask], j_idx=j_idx[mask], d=d[mask], r=r[mask],
                ti=ti, tj=tj, pair_flat=flat,
                n_atoms=self._n_atoms, n_list_entries=n_list,
            )

        pairs = subset(maskp)
        return kernel.build_staging(pairs, pairs if maskm is maskp else subset(maskm))
