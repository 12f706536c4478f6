"""The potential-agnostic staged pipeline (list → cache → kernel →
accumulate).

The paper's thesis is that one algorithm plus swappable building
blocks yields performance portability (Sec. V); this package is the
repository's rendition of that claim at the *potential* level.  The
step-persistent :class:`InteractionCache` of the neighbor list, the
scalar filter (:mod:`repro.core.pipeline.topology`), the
:class:`Workspace` arena, the fused segmented sums and the
timing/cache stats contract all live here once, behind one class,
:class:`PipelinePotential`: the Opt-* solver of a family.  A family
contributes only a :class:`MultiBodyKernel` per compute backend
(Tersoff and Stillinger-Weber, each a compiled list walker and a numpy
oracle); every kernel gets the same :class:`ListData` and runs its
family's filter itself.  The lane simulators (``TersoffVectorized``,
``StillingerWeberVectorized``, ``LennardJonesVectorized``) are plain
potentials that stage their own lanes each call; they do not run
through it.
"""

from repro.core.pipeline.accumulate import idx3_of, segsum3
from repro.core.pipeline.cache import InteractionCache
from repro.core.pipeline.kernel import MultiBodyKernel, Staging
from repro.core.pipeline.pipeline import PipelinePotential
from repro.core.pipeline.topology import (
    DegenerateGeometryError,
    ListData,
    PairData,
    TripletData,
    build_pairs,
    build_triplets,
    filter_list,
    group_by_i,
    pair_geometry,
)
from repro.core.pipeline.workspace import CacheStats, Workspace

__all__ = [
    "CacheStats",
    "DegenerateGeometryError",
    "InteractionCache",
    "ListData",
    "MultiBodyKernel",
    "PairData",
    "PipelinePotential",
    "Staging",
    "TripletData",
    "Workspace",
    "build_pairs",
    "build_triplets",
    "filter_list",
    "group_by_i",
    "idx3_of",
    "pair_geometry",
    "segsum3",
]
