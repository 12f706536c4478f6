"""Warm solver sessions: the pool behind ``repro serve``.

A :class:`SolverSession` owns a built potential *plus* its neighbor
list, so the PR-2/PR-5 step-persistent machinery — the layered-validity
:class:`~repro.core.pipeline.InteractionCache` and the
capacity-doubling ``Workspace`` — survives across independent
evaluation requests exactly as it survives across MD steps.  Repeat
requests on the same session with unchanged (or skin-bounded) geometry
hit the interaction cache instead of re-staging.

Request evaluation uses the *same* neighbor semantics as
:meth:`Simulation.compute_forces`: ``neigh.ensure`` rebuilds only when
positions drift beyond skin/2.  A session's response sequence is
therefore bitwise identical to feeding the same request sequence to a
direct, locally-constructed solver with the same spec and skin — the
serve-equivalence contract asserted in ``tests/test_serve.py``.

:class:`SolverPool` keys sessions by ``(tenant, spec)`` with LRU
eviction under a global cap and a per-tenant cap, so one noisy tenant
cannot evict everyone else's warm state.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.potential import ForceResult
from repro.md.units import DEFAULT_SKIN
from repro.runtime.spec import SolverSpec


@dataclass
class PoolStats:
    """Cumulative pool counters (surfaced by ``GET /v1/stats``)."""

    session_hits: int = 0
    session_misses: int = 0
    evictions: int = 0
    tenant_evictions: int = 0
    requests: int = 0
    by_tenant: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        by_tenant = {k: dict(v) for k, v in sorted(self.by_tenant.items())}
        return {**vars(self), "by_tenant": by_tenant}


class SolverSession:
    """One warm solver: potential + neighbor list + request counters.

    Not thread-safe on its own: :class:`SolverPool` holds :attr:`lock`
    around every evaluation, so different sessions evaluate at once.
    """

    def __init__(self, spec: SolverSpec, *, skin: float = DEFAULT_SKIN):
        self.spec = spec
        self.skin = float(skin)
        params = spec.build_params()
        self.potential = spec.build(params=params)
        self.cutoff = spec.cutoff(params)
        self.neigh: NeighborList | None = None
        self._shape: tuple[int, int] | None = None
        self.requests = 0
        self.last_used = time.monotonic()
        self.lock = threading.Lock()

    def _list_for(self, system: AtomSystem) -> NeighborList:
        # a session serves one system shape at a time; a different atom
        # count (or species table width) resets the list — the cache's
        # L1 identity check would miss anyway
        shape = (system.n, system.ntypes)
        if self.neigh is None or self._shape != shape:
            self.neigh = NeighborList(
                NeighborSettings(
                    cutoff=self.cutoff, skin=self.skin,
                    full=self.potential.needs_full_list,
                )
            )
            self._shape = shape
        return self.neigh

    def evaluate(self, system: AtomSystem) -> ForceResult:
        """Forces/energy for one request (MD-step neighbor semantics)."""
        neigh = self._list_for(system)
        neigh.ensure(system.x, system.box)
        result = self.potential.compute(system, neigh)
        self.requests += 1
        self.last_used = time.monotonic()
        return result

    def cache_info(self) -> dict | None:
        stats = getattr(self.potential, "cache_stats", None)
        return None if stats is None else stats.as_dict()


class SolverPool:
    """LRU pool of warm :class:`SolverSession` instances.

    Parameters
    ----------
    max_sessions:
        Global cap; the least-recently-used session is evicted when a
        new one would exceed it.
    per_tenant_cap:
        Cap per tenant key (evicts that tenant's LRU session first), so
        warm state is shared fairly across tenants.
    skin:
        Neighbor skin for all sessions (part of the bitwise contract:
        the direct-evaluation reference must use the same value).
    """

    def __init__(self, *, max_sessions: int = 32, per_tenant_cap: int = 8,
                 skin: float = DEFAULT_SKIN):
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if per_tenant_cap < 1:
            raise ValueError("per_tenant_cap must be >= 1")
        self.max_sessions = int(max_sessions)
        self.per_tenant_cap = int(per_tenant_cap)
        self.skin = float(skin)
        self.stats = PoolStats()
        self._lock = threading.Lock()
        # key -> session, in LRU order (oldest first)
        self._sessions: "OrderedDict[tuple[str, str], SolverSession]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _tenant_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for tenant, _ in self._sessions:
            counts[tenant] = counts.get(tenant, 0) + 1
        return counts

    def _tenant_stats(self, tenant: str) -> dict:
        return self.stats.by_tenant.setdefault(
            tenant, {"requests": 0, "sessions": 0, "evictions": 0}
        )

    def session(self, spec: SolverSpec, *, tenant: str = "default") -> SolverSession:
        """The warm session for ``(tenant, spec)``, creating and evicting
        as needed.  Touches LRU order."""
        key = (tenant, spec.key())
        with self._lock:
            sess = self._sessions.get(key)
            if sess is not None:
                self._sessions.move_to_end(key)
                self.stats.session_hits += 1
                return sess
            self.stats.session_misses += 1
            # per-tenant cap: evict this tenant's oldest session first
            if self._tenant_counts().get(tenant, 0) >= self.per_tenant_cap:
                for old_key in self._sessions:
                    if old_key[0] == tenant:
                        del self._sessions[old_key]
                        self.stats.evictions += 1
                        self.stats.tenant_evictions += 1
                        self._tenant_stats(tenant)["evictions"] += 1
                        break
            # global cap: evict the overall LRU session
            while len(self._sessions) >= self.max_sessions:
                old_key, _ = self._sessions.popitem(last=False)
                self.stats.evictions += 1
                self._tenant_stats(old_key[0])["evictions"] += 1
            sess = SolverSession(spec, skin=self.skin)
            self._sessions[key] = sess
            ts = self._tenant_stats(tenant)
            ts["sessions"] += 1
            return sess

    def evaluate(self, spec: SolverSpec, system: AtomSystem, *,
                 tenant: str = "default") -> ForceResult:
        """One request through the warm pool (thread-safe)."""
        sess = self.session(spec, tenant=tenant)
        with sess.lock:  # an evicted session finishes this call first
            result = sess.evaluate(system)
        with self._lock:
            self.stats.requests += 1
            self._tenant_stats(tenant)["requests"] += 1
        return result

    def snapshot(self) -> dict:
        """Stats + live-session inventory (for ``/v1/stats``)."""
        with self._lock:
            sessions = [
                {
                    "tenant": tenant,
                    "spec": sess.spec.to_dict(),
                    "requests": sess.requests,
                    "cache": sess.cache_info(),
                }
                for (tenant, _), sess in self._sessions.items()
            ]
            return {
                "sessions": sessions,
                "n_sessions": len(sessions),
                "max_sessions": self.max_sessions,
                "per_tenant_cap": self.per_tenant_cap,
                **self.stats.as_dict(),
            }
