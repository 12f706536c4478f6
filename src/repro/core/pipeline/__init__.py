"""The potential-agnostic staged pipeline (filter → cache → kernel →
accumulate).

The paper's thesis is that one algorithm plus swappable building
blocks yields performance portability (Sec. V); this package is the
repository's rendition of that claim at the *potential* level.  The
scalar filter (:mod:`repro.core.pipeline.topology`), the
step-persistent :class:`InteractionCache`, the :class:`Workspace`
arena, the fused segmented sums and the timing/cache stats contract
all live here once; a potential contributes only a
:class:`MultiBodyKernel` (Tersoff, Stillinger-Weber and the vectorized
Lennard-Jones contrast case all run through it).
"""

from repro.core.pipeline.accumulate import idx3_of, segsum3, segsum3_loop
from repro.core.pipeline.cache import InteractionCache
from repro.core.pipeline.kernel import MultiBodyKernel, Staging
from repro.core.pipeline.pipeline import PipelinePotential, ProductionPotential, StagedPipeline
from repro.core.pipeline.topology import (
    DegenerateGeometryError,
    ListData,
    PairData,
    TripletData,
    build_pairs,
    build_triplets,
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
    "ProductionPotential",
    "StagedPipeline",
    "Staging",
    "TripletData",
    "Workspace",
    "build_pairs",
    "build_triplets",
    "group_by_i",
    "idx3_of",
    "pair_geometry",
    "segsum3",
    "segsum3_loop",
]
