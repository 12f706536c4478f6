"""The Opt-* solver of a potential family: list cache → kernel (filter, compute, accumulate).

:class:`PipelinePotential` owns, once for every family: the kernel a
compute backend (:mod:`repro.backends`) supplies for the family, the
step-persistent :class:`InteractionCache` (or an ephemeral one for
``cache=False`` — same code path, so the ablation is bit-for-bit
identical by construction), staging/kernel wall-clock timing, and the
``stats["cache"]``/``stats["timing"]`` contract.  A family subclasses
it, names its ``family`` and optionally overrides
:meth:`PipelinePotential.validate` for pre-flight checks.
"""

from __future__ import annotations

import time

from repro.analysis import hot_path
from repro.core.pipeline.cache import InteractionCache
from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList
from repro.md.potential import ForceResult, Potential
from repro.vector.precision import Precision


class PipelinePotential(Potential):
    """The optimized solver of a potential family (``Opt`` modes).

    Parameters
    ----------
    params:
        The family's parameterization.
    precision:
        ``"double"`` (Opt-D), ``"single"`` (Opt-S) or ``"mixed"``
        (Opt-M).
    cache:
        Step-persistent interaction cache (default on).  ``False``
        stages through an ephemeral cache per call; results are
        bit-for-bit identical either way.
    backend:
        Compute-backend name from :mod:`repro.backends` (``"numpy"``,
        ``"compiled"``) or ``None`` for ``repro.backends.get_default()``:
        compiled where the C extension loads, else numpy (the oracle).
        A requested backend that cannot run falls back to ``numpy`` with a
        one-time warning; the staging/cache machinery is identical.
    """

    #: the potential family the backend supplies a kernel for
    family = ""
    needs_full_list = True

    def __init__(self, params, *, precision: Precision | str = Precision.DOUBLE,
                 cache: bool = True, backend: str | None = None):
        # function-level import: repro.backends registers kernel
        # factories that import the production modules, so the
        # dependency edge must stay call-time to remain cycle-free
        from repro.backends import resolve

        self.params = params
        self.precision = Precision.parse(precision)
        self.cutoff = params.max_cutoff
        self.backend = resolve(backend)
        self.kernel = self.backend.make_kernel(self.family, params, self.precision)
        self.cache_enabled = bool(cache)
        self._cache = InteractionCache() if cache else None

    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def cache_stats(self):
        """The cumulative :class:`CacheStats`, or ``None`` when off."""
        return self._cache.stats if self._cache is not None else None

    def validate(self, system: AtomSystem) -> None:
        """Pre-flight check hook (species/type compatibility)."""

    @hot_path(reason="per-step entry point; all allocations belong to the cache Workspace")
    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        self.check_list(neigh)
        self.validate(system)
        t0 = time.perf_counter()
        if self._cache is not None:
            st = self._cache.prepare(system, neigh, self.kernel)
            cache_info = {"enabled": True, "list_version": neigh.version,
                          **self._cache.stats.as_dict()}
        else:
            # ephemeral cache: the exact staging code, persisted nowhere —
            # the cache=False ablation cannot drift from the cached path
            st = InteractionCache().prepare(system, neigh, self.kernel)
            cache_info = {"enabled": False}
        t1 = time.perf_counter()
        result = self.kernel.evaluate(st, system.n)
        t2 = time.perf_counter()
        result.stats["cache"] = cache_info
        # merge, don't overwrite: compiled kernels report one-time
        # warmup_s (build/load) which must be excluded from kernel_s
        kernel_timing = result.stats.get("timing") or {}
        warm = float(kernel_timing.get("warmup_s", 0.0))
        result.stats["timing"] = {
            **kernel_timing,
            "staging_s": t1 - t0,
            "kernel_s": max((t2 - t1) - warm, 0.0),
        }
        return result
