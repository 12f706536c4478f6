"""Declarative, schema-versioned solver and run specifications.

A :class:`SolverSpec` answers *what computes forces*; a
:class:`RunSpec` adds *how it runs*.  Both are frozen dataclasses with
a canonical dict/JSON form, so the same value can travel through CLI
flags, checkpoint metadata, bench-case constructors and serve-request
payloads without drifting — and two specs compare equal exactly when
they describe the same solver.

Versioning follows the :mod:`repro.state` convention: the serialized
form carries ``schema`` = :data:`RUNTIME_SCHEMA_VERSION`; an *unknown
version* is rejected with a clear error (a new-schema spec must not be
silently misread by an old build), while unknown *fields* within a
known version are tolerated (forward-compatible additions may land
without a bump).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

#: Bump on any incompatible change to the serialized spec layout.
RUNTIME_SCHEMA_VERSION = 1

#: Supported potential families (the production pipeline kernels plus
#: their reference implementations).
POTENTIALS = ("tersoff", "sw")

#: The paper's execution modes (Sec. V-E); ``Ref`` is the LAMMPS-shipped
#: Algorithm 2, ``Opt-*`` the wide production path per precision.
MODES = ("Ref", "Opt-D", "Opt-S", "Opt-M")

_MODE_PRECISION = {"Opt-D": "double", "Opt-S": "single", "Opt-M": "mixed"}

#: Named parameter sets per potential family.  ``default`` aliases the
#: family's canonical set so CLI/serve callers need not know it.
_PARAM_SETS: dict[str, tuple[str, ...]] = {
    "tersoff": ("Si", "Si-1988", "C", "Ge", "SiC", "SiGe"),
    "sw": ("Si",),
}


class SpecError(ValueError):
    """The spec is malformed, inconsistent, or from an unknown schema."""


def _require_version(data: dict, what: str) -> None:
    version = data.get("schema")
    if version != RUNTIME_SCHEMA_VERSION:
        raise SpecError(
            f"{what} schema version {version!r} is not supported "
            f"(this build reads version {RUNTIME_SCHEMA_VERSION}); "
            "re-create the spec with a matching build"
        )


@dataclass(frozen=True)
class SolverSpec:
    """What computes forces: one declarative record.

    Attributes
    ----------
    potential:
        ``"tersoff"`` or ``"sw"``.
    mode:
        ``"Ref"`` or ``"Opt-D"`` / ``"Opt-S"`` / ``"Opt-M"`` (the
        production path per precision).
    cache:
        Step-persistent interaction cache (bit-for-bit identical either
        way; ignored for ``Ref``).
    backend:
        Compute backend for the Tersoff and SW Opt-* production paths
        (``None`` = process default: compiled where it loads, see
        :mod:`repro.backends`; a checkpoint pins the name that ran).
    params_set:
        Named parameter set within the family (``"default"`` resolves
        to the canonical one: Si for both families).
    """

    potential: str = "tersoff"
    mode: str = "Opt-M"
    cache: bool = True
    backend: str | None = None
    params_set: str = "default"

    def __post_init__(self) -> None:
        if self.potential not in POTENTIALS:
            raise SpecError(
                f"unknown potential {self.potential!r} (expected one of {POTENTIALS})"
            )
        if self.mode not in MODES:
            raise SpecError(f"unknown mode {self.mode!r} (expected one of {MODES})")
        if not isinstance(self.cache, bool):
            raise SpecError(f"cache must be a bool, got {self.cache!r}")
        sets = _PARAM_SETS[self.potential]
        if self.params_set not in sets and self.params_set != "default":
            raise SpecError(
                f"unknown params_set {self.params_set!r} for {self.potential} "
                f"(expected 'default' or one of {sets})"
            )
        if self.backend is not None:
            if self.mode == "Ref":
                raise SpecError(
                    "backend selection only applies to the Tersoff and SW Opt-* production paths"
                )
            from repro.backends import names

            if self.backend not in names():
                raise SpecError(
                    f"unknown backend {self.backend!r} (expected one of {names()})"
                )

    # ---- derived -------------------------------------------------------------

    @property
    def precision(self) -> str | None:
        """``"double"`` / ``"single"`` / ``"mixed"``; ``None`` for Ref."""
        return _MODE_PRECISION.get(self.mode)

    # ---- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-able form (carries the schema version)."""
        return {
            "schema": RUNTIME_SCHEMA_VERSION,
            "potential": self.potential,
            "mode": self.mode,
            "cache": self.cache,
            "backend": self.backend,
            "params_set": self.params_set,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolverSpec":
        """Restore from :meth:`to_dict` output.

        Unknown schema versions are rejected; unknown fields within the
        known version are ignored (forward compatibility).
        """
        if not isinstance(data, dict):
            raise SpecError(f"solver spec must be a mapping, got {type(data).__name__}")
        _require_version(data, "solver spec")
        kwargs = {}
        for key in ("potential", "mode", "cache", "backend", "params_set"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """Stable string form — equal strings iff equal specs — and so
        the hashable identity for pool/cache keying."""
        return _solver_json(self)

    key = canonical_json

    # ---- construction --------------------------------------------------------

    def build_params(self):
        """The parameter object for this spec's family and set."""
        name = "Si" if self.params_set == "default" else self.params_set
        if self.potential == "tersoff":
            from repro.core.tersoff.parameters import (
                tersoff_carbon,
                tersoff_germanium,
                tersoff_si,
                tersoff_si_1988,
                tersoff_sic,
                tersoff_sige,
            )

            factory = {
                "Si": tersoff_si,
                "Si-1988": tersoff_si_1988,
                "C": tersoff_carbon,
                "Ge": tersoff_germanium,
                "SiC": tersoff_sic,
                "SiGe": tersoff_sige,
            }[name]
            return factory()
        from repro.core.sw.parameters import sw_silicon

        return sw_silicon()

    def cutoff(self, params=None) -> float:
        """The force cutoff the neighbor list must cover."""
        params = self.build_params() if params is None else params
        if self.potential == "tersoff":
            return float(params.max_cutoff)
        return float(params.cut)

    def build(self, params=None):
        """Construct the potential (see :func:`repro.runtime.session.build_potential`)."""
        from repro.runtime.session import build_potential

        return build_potential(self, params=params)


# every served request rebuilds its spec from the envelope and asks for
# the key twice: memoised by value, as validate._spec_limits is
@lru_cache(maxsize=256)
def _solver_json(spec: SolverSpec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunSpec:
    """How a solver runs: spec + execution topology.

    ``workers``/``ranks`` select the PR-4 parallel engine (physics
    depends only on ranks, never workers), ``executor``
    or ``hosts`` the PR-7/9 execution backend (a name from
    :data:`~repro.parallel.executor.EXECUTOR_NAMES`, or the addresses
    of pre-started ``repro worker`` listeners), ``skin`` the
    neighbor-list build margin.
    """

    solver: SolverSpec = field(default_factory=SolverSpec)
    workers: int | None = None
    ranks: int | None = None
    executor: str | None = None
    hosts: tuple[str, ...] | None = None
    skin: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.solver, SolverSpec):
            raise SpecError("RunSpec.solver must be a SolverSpec")
        if self.hosts is not None:
            object.__setattr__(self, "hosts", tuple(self.hosts))
            if not self.hosts:
                object.__setattr__(self, "hosts", None)
        if self.workers is not None and self.workers < 1:
            raise SpecError("workers must be >= 1")
        if self.ranks is not None and self.ranks < 1:
            raise SpecError("ranks must be >= 1")
        if not math.isfinite(self.skin):
            raise SpecError(f"skin must be finite, got {self.skin}")
        if self.skin < 0.0:
            raise SpecError("skin must be non-negative")
        if self.executor is not None:
            from repro.parallel.executor import EXECUTOR_NAMES

            if self.executor not in EXECUTOR_NAMES:
                raise SpecError(
                    f"unknown executor {self.executor!r} (expected one of {EXECUTOR_NAMES})"
                )
            if self.hosts is not None:
                raise SpecError("--hosts already selects the cluster executor; drop --executor")

    # ---- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": RUNTIME_SCHEMA_VERSION,
            "solver": self.solver.to_dict(),
            "workers": self.workers,
            "ranks": self.ranks,
            "executor": self.executor,
            "hosts": None if self.hosts is None else list(self.hosts),
            "skin": self.skin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        if not isinstance(data, dict):
            raise SpecError(f"run spec must be a mapping, got {type(data).__name__}")
        _require_version(data, "run spec")
        if "solver" not in data:
            raise SpecError("run spec is missing its solver section")
        # a sorted run summed in Morton order: resumed unsorted, its
        # bits would change, so refuse it rather than drop the field
        if data.get("sort"):
            raise SpecError("run spec asks for Morton-sorted domains (sort: true), "
                            "which this build no longer supports")
        kwargs: dict = {"solver": SolverSpec.from_dict(data["solver"])}
        for key in ("workers", "ranks", "executor", "hosts", "skin"):
            if key in data:
                kwargs[key] = data[key]
        # specs pinned before the `transport` field was dropped: alone it
        # named the spawned socket pool, which `executor` now spells
        if data.get("transport") and not kwargs.get("executor") and not kwargs.get("hosts"):
            kwargs["executor"] = data["transport"]
        # ... and before a start method stopped being an executor name:
        # each was the process pool, and executors never define physics
        if kwargs.get("executor") in ("fork", "spawn", "forkserver"):
            kwargs["executor"] = "process"
        return cls(**kwargs)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    # ---- CLI adapter ---------------------------------------------------------

    @classmethod
    def from_args(cls, args) -> "RunSpec":
        """Build from an argparse namespace carrying the ``repro run``
        flag family (also used by the restart path).

        Recognized attributes (all optional): ``potential``, ``mode``,
        ``backend``, ``workers``, ``ranks``, ``executor``, ``hosts``,
        ``skin``.  This is the *one* place CLI
        flags become a spec (the interaction cache has no flag: it is
        always on from the CLI, ``SolverSpec.cache`` is the library knob).
        """
        hosts = getattr(args, "hosts", None)
        if isinstance(hosts, str):
            hosts = tuple(h.strip() for h in hosts.split(",") if h.strip()) or None
        solver = SolverSpec(
            potential=getattr(args, "potential", "tersoff"),
            mode=getattr(args, "mode", "Opt-M"),
            backend=getattr(args, "backend", None),
        )
        return cls(
            solver=solver,
            workers=getattr(args, "workers", None),
            ranks=getattr(args, "ranks", None),
            executor=getattr(args, "executor", None),
            hosts=hosts,
            skin=getattr(args, "skin", 1.0),
        )

    def with_overrides(self, **changes) -> "RunSpec":
        """A copy with the given fields replaced (restart-flag overrides)."""
        return replace(self, **changes)

    # ---- construction --------------------------------------------------------

    def build_executor(self):
        """Resolve the executor selection to ``(executor, workers)``.

        ``hosts`` builds a
        :class:`~repro.parallel.transport.ClusterExecutor` (one worker
        per address) and fixes the worker count to the address list;
        executor names pass through.
        """
        if self.hosts:
            from repro.parallel.transport import ClusterExecutor

            return ClusterExecutor(self.workers, hosts=list(self.hosts)), len(self.hosts)
        return self.executor, self.workers

    def build_simulation(self, system, **kwargs):
        """See :func:`repro.runtime.session.build_simulation`."""
        from repro.runtime.session import build_simulation

        return build_simulation(self, system, **kwargs)
