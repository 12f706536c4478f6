"""The potential-agnostic staged pipeline: filter → cache → kernel → accumulate.

:class:`StagedPipeline` owns everything that used to be duplicated per
potential: the step-persistent :class:`InteractionCache` (or an
ephemeral one for ``cache=False`` — same code path, so the ablation is
bit-for-bit identical by construction), staging/kernel wall-clock
timing, and the ``stats["cache"]``/``stats["timing"]`` contract.

:class:`PipelinePotential` adapts a :class:`MultiBodyKernel` to the
:class:`~repro.md.potential.Potential` interface; concrete potentials
subclass it, construct their kernel, and optionally override
:meth:`PipelinePotential.validate` for pre-flight checks.
:class:`ProductionPotential` is the Opt-* path of a potential family,
whose kernel a compute backend (:mod:`repro.backends`) supplies.
"""

from __future__ import annotations

import time

from repro.analysis import hot_path
from repro.core.pipeline.cache import InteractionCache
from repro.core.pipeline.kernel import MultiBodyKernel
from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList
from repro.md.potential import ForceResult, Potential
from repro.vector.precision import Precision


class StagedPipeline:
    """Runs one kernel through the shared staging/caching machinery."""

    def __init__(self, kernel: MultiBodyKernel, *, cache: bool = True):
        self.kernel = kernel
        self.cache_enabled = bool(cache)
        self._cache = InteractionCache() if cache else None

    @hot_path(reason="per-step pipeline driver; staging must reuse the cache Workspace")
    def run(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
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


class PipelinePotential(Potential):
    """A :class:`Potential` whose compute path is a staged pipeline.

    Subclasses build their kernel and call ``super().__init__(kernel,
    cache=...)``; they inherit step-persistent caching, workspace
    reuse, timing/cache stats and the ``cache_stats`` observability
    surface.
    """

    def __init__(self, kernel: MultiBodyKernel, *, cache: bool = True):
        self._pipeline = StagedPipeline(kernel, cache=cache)

    @property
    def kernel(self) -> MultiBodyKernel:
        return self._pipeline.kernel

    @property
    def cache_enabled(self) -> bool:
        return self._pipeline.cache_enabled

    @property
    def _cache(self) -> InteractionCache | None:
        return self._pipeline._cache

    @property
    def cache_stats(self):
        """The cumulative :class:`CacheStats`, or ``None`` when off."""
        cache = self._pipeline._cache
        return cache.stats if cache is not None else None

    def validate(self, system: AtomSystem) -> None:
        """Pre-flight check hook (species/type compatibility)."""

    @hot_path(reason="per-step entry point; all allocations belong to the cache Workspace")
    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        self.check_list(neigh)
        self.validate(system)
        return self._pipeline.run(system, neigh)


class ProductionPotential(PipelinePotential):
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
        super().__init__(self.backend.make_kernel(self.family, params, self.precision),
                         cache=cache)

    @property
    def backend_name(self) -> str:
        return self.backend.name
