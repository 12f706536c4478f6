"""Step-persistent interaction cache for the staged pipeline.

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
L1 (list)   ``NeighborList`` identity + ``version``     the CSR arrays as
                                                        stored
L2 (types)  L1 + the system's ``type`` array (by        the type column
            value); only for kernels with               (zeros for a
            ``uses_types``                              type-blind kernel)
==========  ==========================================  =================

Every kernel is handed that list as a
:class:`~repro.core.pipeline.topology.ListData`, and only ``x``/``box``
are rewritten per call.  The filter is the kernel's: the cutoff masks,
geometry and everything derived from them follow the positions on
*every* call, so a cache **hit** reuses only arrays the cold path would
have rebuilt to identical values, which is what makes hits bit-for-bit
exact rather than approximately right.  What a kernel derives from the
list alone (the numpy kernels' ``(i, j)`` expansion, the compiled
kernel's transposed index) lives on the ``ListData``, built on first
read once per list version.

Counters: an L1/L2 change is an *invalidation* (the list was rebuilt or
repointed), everything else is a *hit*.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.analysis import hot_path
from repro.core.pipeline.kernel import MultiBodyKernel, Staging
from repro.core.pipeline.topology import ListData
from repro.core.pipeline.workspace import CacheStats


class InteractionCache:
    """Step-persistent list staging for one pipeline kernel.

    One instance per potential; see the module docstring for the
    validity layers.  ``prepare`` returns the same :class:`Staging`
    while the list is unchanged.
    """

    def __init__(self):
        self.stats = CacheStats()
        self._neigh_ref = lambda: None
        self._version = -1
        self._n_atoms = -1
        self._types: np.ndarray | None = None
        self._staging: Staging | None = None

    def __reduce__(self):
        # Pickle as a *fresh* cache: the internals hold a weakref that
        # must not cross process boundaries, and a cold cache is exact
        # (hits only ever reuse recomputable arrays), so "spawn" workers
        # simply warm their own copy.
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

    @hot_path(reason="per-step staging; allocates only when the list or the type column changed")
    def prepare(self, system, neigh, kernel: MultiBodyKernel) -> Staging:
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
            self._staging = Staging(pairs=ListData(offsets, neighbors))
        lst = self._staging.pairs
        if self._types is None or (
            kernel.uses_types and not np.array_equal(system.type, self._types)
        ):
            # a type-blind kernel sees one type, whatever the system says
            self._types = lst.types = (np.array(system.type, dtype=np.int32) if kernel.uses_types
                                       else np.zeros(system.n, dtype=np.int32))  # repro-lint: disable=KA003
            topo_valid = False
        if topo_valid:
            self.stats.hits += 1
            self.stats.last_event = "hit"
        else:
            self.stats.invalidations += 1
            self.stats.last_event = "invalidated"
        lst.x = np.ascontiguousarray(system.x, dtype=np.float64)
        lst.box = system.box
        return self._staging
