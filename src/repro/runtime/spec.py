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
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.md.units import DEFAULT_SKIN

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
        keys = ("potential", "mode", "cache", "backend", "params_set")
        return cls(**{key: data[key] for key in keys if key in data})

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
    skin: float = DEFAULT_SKIN

    def __post_init__(self) -> None:
        if not isinstance(self.solver, SolverSpec):
            raise SpecError("RunSpec.solver must be a SolverSpec")
        if self.hosts is not None:
            if not (isinstance(self.hosts, (list, tuple))
                    and all(isinstance(h, str) for h in self.hosts)):
                raise SpecError(f"hosts must be a list of address strings, got {self.hosts!r}")
            object.__setattr__(self, "hosts", tuple(self.hosts) or None)
        for name in ("workers", "ranks"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, numbers.Integral) and value >= 1):
                raise SpecError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.skin, numbers.Real) or not math.isfinite(self.skin):
            raise SpecError(f"skin must be finite, got {self.skin!r}")
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
        keys = ("workers", "ranks", "executor", "hosts", "skin")
        return cls(solver=SolverSpec.from_dict(data["solver"]),
                   **{key: data[key] for key in keys if key in data})

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

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


# ---- the ``repro run`` flags ---------------------------------------------------

#: A fresh lattice's values, which ``--atoms``, ``--temperature`` and
#: ``--seed`` override; a restart takes atoms and velocities from its file.
FRESH_LATTICE = {"atoms": 512, "temperature": 600.0, "seed": 2016}

#: Every ``repro run`` option (argparse dest), classified once.  A restart
#: runs with an ``applied`` one; checks a ``pinned`` one against its
#: checkpoint (``ranks`` with the stored decomposition, which defines the
#: physics) and refuses it when it differs; refuses an ``unrecorded`` one,
#: which only seeds a fresh lattice's velocities, whenever it is given;
#: ``source`` names the checkpoint itself.
RUN_FLAGS = {
    "applied": ("workers", "executor", "hosts", "sanitize", "steps", "checkpoint",
                "checkpoint_every", "telemetry", "telemetry_every", "traj", "traj_every"),
    "pinned": ("potential", "mode", "backend", "skin", "atoms", "ranks"),
    "unrecorded": ("temperature", "seed"),
    "source": ("restart_from",),
}


def run_from_args(args, checkpoint=None) -> tuple[RunSpec, dict | None]:
    """The run the ``repro run`` flags ask for, by :data:`RUN_FLAGS`:
    the one place flags become a run, fresh or resumed.

    A fresh run returns its spec (a flag not given takes the spec's
    default) and its :data:`FRESH_LATTICE` values.  A restart returns
    the checkpoint's pinned spec under the execution flags given, and
    ``None``; a checkpoint written through the library pins no spec,
    so its solver comes from the flags.  The pinned flags that differ
    and the unrecorded ones given are one :class:`SpecError`.  The
    interaction cache has no flag (``SolverSpec.cache`` is the library's).
    """
    given = {name: value for names in RUN_FLAGS.values() for name in names
             if (value := getattr(args, name, None)) is not None}
    if isinstance(given.get("hosts"), str):
        given["hosts"] = [h.strip() for h in given["hosts"].split(",") if h.strip()] or None
    solver = {k: given[k] for k in ("potential", "mode", "backend") if k in given}
    fields = {k: given[k] for k in ("workers", "ranks", "executor", "hosts", "skin") if k in given}
    if checkpoint is None:
        lattice = {k: given.get(k, value) for k, value in FRESH_LATTICE.items()}
        return RunSpec(solver=SolverSpec(**solver), **fields), lattice
    pinned = checkpoint.run_spec()
    # skin and ranks are state, which a file that pins no spec records too
    stored = {key: section.get(key) if isinstance(section := checkpoint.meta.get(name), dict)
              else None for key, name in (("skin", "neighbor"), ("ranks", "engine"))}
    if pinned is not None:
        stored.update(potential=pinned.solver.potential, mode=pinned.solver.mode,
                      backend=pinned.solver.backend)
    asked = dict(given)
    if "atoms" in given:  # compared as the lattice it would build
        from repro.md.lattice import cells_for_atoms

        stored["atoms"] = checkpoint.system().n
        asked["atoms"] = 8 * math.prod(cells_for_atoms(given["atoms"]))
    refused = [f"--{k} {given[k]} differs from the checkpoint's {stored[k]}"
               for k in RUN_FLAGS["pinned"] if k in stored and asked.get(k, stored[k]) != stored[k]]
    refused += [f"--{k} {given[k]} only seeds a fresh lattice"
                for k in RUN_FLAGS["unrecorded"] if k in given]
    if refused:
        raise SpecError("; ".join(refused))
    if pinned is None:
        pinned = RunSpec(solver=SolverSpec(**solver), skin=stored["skin"])
    if "executor" in fields or "hosts" in fields:  # one selects the executor
        fields = {"executor": None, "hosts": None, **fields}
    return pinned.with_overrides(**fields), None
