"""The kernel protocol of the staged pipeline.

A :class:`MultiBodyKernel` is the *computational component* of the
paper's filter/compute split: it declares, via class attributes, what
the potential-agnostic filter/staging layer must produce (typed pair
tables? inclusive or strict cutoff comparison? a separate max-cutoff
k-candidate set? or the raw list?), builds its own staging from the
filtered pairs, and evaluates energies/forces from them.

The pipeline (:mod:`repro.core.pipeline.pipeline`) and the cache
(:mod:`repro.core.pipeline.cache`) are the only callers; a new
potential implements exactly these hooks and inherits step-persistent
caching, workspace reuse, precision discipline and the full
``ForceResult.stats`` contract for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline.topology import ListData, PairData, TripletData
from repro.md.potential import ForceResult


@dataclass
class Staging:
    """Everything a kernel consumes for one force call.

    For a filtering kernel the cache builds it anew every call from
    that call's masked pairs.  ``kcand`` may be the same object as
    ``pairs`` (kernels without a separate k-candidate cutoff).
    ``idx3`` holds the fused segmented-sum index arrays; ``gathers`` is
    the kernel's own bag of derived arrays (parameter gathers, ...).
    For a ``reads_list`` kernel ``pairs`` (and ``kcand``) is a
    :class:`ListData` the cache keeps across calls, rewriting only its
    positions, and ``tri`` stays ``None``.
    """

    pairs: PairData | ListData
    kcand: PairData | ListData
    tri: TripletData | None = None
    idx3: dict[str, np.ndarray] = field(default_factory=dict)
    gathers: dict[str, np.ndarray] = field(default_factory=dict)


class MultiBodyKernel:
    """Base class for pipeline kernels.

    Class attributes declare the staging contract:

    ``uses_types``
        The kernel distinguishes atom types; the cache stages
        ``ti``/``tj``/``pair_flat`` (L2) via :meth:`pair_type_index`
        and per-entry cutoffs via :meth:`pair_cutoffs`.  When False the
        type columns are zeros and :meth:`pair_cutoffs` must return a
        scalar cutoff.
    ``cutoff_inclusive``
        ``r <= cut`` (Tersoff's convention) vs strict ``r < cut``
        (Stillinger-Weber, whose tail function diverges at exactly
        ``r == cut``).
    ``separate_kcand``
        The triplet k-candidate set uses its own (max-over-type-pairs)
        cutoff, Sec. IV-D; :attr:`kcand_cutoff` must be set.  When
        False the k-candidates are the filtered pairs themselves.
    ``reads_list``
        The kernel walks the CSR neighbor list itself — filter,
        geometry and accumulation fused in one pass — so the cache
        stages only the list (L1) and the type column (L2) as a
        :class:`ListData`; no pair geometry, masks or
        :meth:`build_staging`, and the filter attributes above are
        not consulted.
    """

    uses_types: bool = False
    cutoff_inclusive: bool = True
    separate_kcand: bool = False
    reads_list: bool = False

    #: max-cutoff radius of the k-candidate set (``separate_kcand``).
    kcand_cutoff: float = 0.0

    def pair_type_index(self, ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
        """Flat parameter-table index of each (ti, tj) list entry."""
        raise NotImplementedError

    def pair_cutoffs(self, pair_flat: np.ndarray | None):
        """Per-entry cutoff array (typed kernels) or a scalar cutoff."""
        raise NotImplementedError

    def build_staging(self, pairs: PairData, kcand: PairData) -> Staging:
        """Staging of one call (triplets, gathers, segsum indices).

        Built on every call from the pairs that pass this call's cutoff
        masks: `pairs` are the pairs within the kernel's cutoff and
        `kcand` the k-candidates (the same object unless
        ``separate_kcand``).
        """
        raise NotImplementedError

    def evaluate(self, st: Staging, n: int) -> ForceResult:
        """The computational component: one force call over staged work."""
        raise NotImplementedError
