"""The kernel protocol of the staged pipeline.

A :class:`MultiBodyKernel` is the *computational component* of the
paper's filter/compute split, and owns its family's filter too: every
kernel is handed the same unfiltered :class:`ListData` and applies its
own cutoff convention (the compiled walker per atom in C, the numpy
oracle through :func:`~repro.core.pipeline.topology.filter_list`).
The one thing it declares is whether it distinguishes atom types.

The pipeline (:mod:`repro.core.pipeline.pipeline`) and the cache
(:mod:`repro.core.pipeline.cache`) are the only callers; a new
potential implements ``evaluate`` and inherits step-persistent list
staging, precision discipline and the full ``ForceResult.stats``
contract for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline.topology import ListData
from repro.md.potential import ForceResult


@dataclass
class Staging:
    """What :meth:`InteractionCache.prepare` hands a kernel for one call.

    ``pairs`` is the :class:`ListData` the cache keeps across calls,
    rewriting only its positions.  ``tri`` stays ``None``: no triplet
    table is staged outside a kernel.
    """

    pairs: ListData
    tri: None = None


class MultiBodyKernel:
    """Base class for pipeline kernels.

    ``uses_types``
        The kernel distinguishes atom types: the cache hands it the
        system's type column (L2, keyed by value).  When False the
        column is zeros and a type change never invalidates.
    """

    uses_types: bool = False

    def evaluate(self, st: Staging, n: int) -> ForceResult:
        """Filter and compute: one force call over the staged list."""
        raise NotImplementedError
