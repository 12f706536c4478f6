"""``repro.runtime`` — the single source of truth for "what solver, how".

The solver/run configuration has one declarative, schema-versioned
description; :func:`repro.core.schemes.make_solver`, the ``repro run``
flags, ``repro serve`` requests and the checkpoint ``user_meta``
pinning in :mod:`repro.state.checkpoint` all go through it:

:class:`SolverSpec`
    *What* computes forces — potential family, execution mode
    (precision), parameter set, interaction cache, compute backend.
:class:`RunSpec`
    *How* it runs — a :class:`SolverSpec` plus execution topology
    (workers/ranks), executor/hosts selection and the
    neighbor skin.

Both serialize to canonical JSON-able dicts (:meth:`SolverSpec.to_dict`)
and restore bitwise-equivalent solvers (:meth:`SolverSpec.build`).

:class:`SolverPool` keeps *warm* solver sessions — potential plus
step-persistent :class:`~repro.core.pipeline.InteractionCache` and
``Workspace`` — alive across independent evaluation requests, keyed by
(tenant, spec), with LRU eviction.  This is what makes the serve path
fast: the PR-2/5 caches survive between requests.
"""

from repro.runtime.pool import PoolStats, SolverPool, SolverSession
from repro.runtime.session import build_potential, build_simulation
from repro.runtime.spec import (
    RUNTIME_SCHEMA_VERSION,
    RunSpec,
    SolverSpec,
    SpecError,
)

__all__ = [
    "RUNTIME_SCHEMA_VERSION",
    "PoolStats",
    "RunSpec",
    "SolverPool",
    "SolverSession",
    "SolverSpec",
    "SpecError",
    "build_potential",
    "build_simulation",
]
