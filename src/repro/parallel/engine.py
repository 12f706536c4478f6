"""Parallel execution engine for the decomposed Tersoff path.

The paper's evaluation (Sec. VI, Figs. 5/8/9) and its journal follow-up
make multi-threaded strong scaling the headline claim; this module is
the repository's real (not modeled) counterpart: a persistent worker
pool that executes the ranks of a
:class:`~repro.parallel.decomposition.DomainDecomposition`
concurrently, on one node or behind sockets.

Architecture
------------
- **One pool per engine, alive across MD steps.**  Workers are forked
  (or spawned) once; each worker owns, for every rank assigned to it, a
  long-lived local :class:`~repro.md.neighbor.NeighborList` and its own
  potential instance — so the PR-2 interaction cache and workspace
  persist across steps and cache hits survive parallel execution.
- **Ghost-only data plane.**  The host gathers each rank's owned+ghost
  positions (``local_idx`` rows, typically a small multiple of
  ``n/ranks``) and each rank returns only its local force slab — never
  the full ``(n, 3)`` arrays.  Two carriers, chosen from the executor:
  shared slabs (serial, thread and process executors: one
  ``(ranks, n, 3)`` position block and one force block, written
  sparsely), and the *wire* when the executor declares
  ``wire_data_plane`` (the socket :class:`ClusterExecutor`): ghost
  positions travel in the step payload and owned-force slabs in the
  reply, so a multi-host step moves only halo-sized messages.
- **Deterministic reduction.**  The host merges per-rank force blocks
  with :meth:`DomainDecomposition.reduce_forces` (fixed rank order,
  input-order row adds, in C by ``md_reduce_rows`` of ``_step.c``, by
  ``scatter_add_rows`` where the extension does not load: the same
  bits) straight into the caller's force array, and sums rank energies
  in rank order, so for a fixed decomposition the result is **bitwise
  identical** for any worker count — including ``workers=1`` versus the
  sequential ``DomainDecomposition.compute_forces`` path (tested).
- **Decomposition lifecycle.**  The decomposition (and with it every
  rank's owned/ghost sets) is rebuilt when any atom has moved more than
  half the skin since it was built — the neighbor list's own skin test,
  :func:`~repro.md.neighbor.past_half_skin`, the only one a decomposed
  step runs — and each worker is sent its ranks' new atom types and
  owned counts; between rebuilds only positions flow.  A rank builds its
  list once per decomposition, at the decomposition's positions, and
  never skin-tests it: its rows are the host's, unshifted, so no rank
  atom moves further than the host's test allows.  A NaN or inf position
  is refused on the host with the serial path's ``ValueError`` before
  anything is dispatched, so the pool survives it.

Failure containment: a worker exception is caught in the worker,
reported with its traceback, and surfaced on the host as
:class:`WorkerCrash`; the pool is then shut down and both shared-memory
segments unlinked (no orphaned ``/dev/shm`` files — tested via
attach-after-close).
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro import backends
from repro.analysis import hot_path
from repro.core.pipeline import PipelinePotential
from repro.host import usable_cores
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.neighbor import NeighborList, NeighborSettings, past_half_skin, require_finite
from repro.md.potential import Potential
from repro.parallel.comm import CommRecord
from repro.parallel.decomposition import DomainDecomposition, blank_ghost_rows
from repro.parallel.executor import (
    EngineExecutor,
    ExecutorError,
    WorkerFailure,
    make_executor,
)
from repro.perf.network import AlphaBetaFit


class EngineError(RuntimeError):
    """The engine is unusable (bad configuration or closed pool)."""


class WorkerCrash(EngineError):
    """A worker raised during a step; carries the remote traceback."""

    def __init__(self, worker: int, remote_traceback: str):
        self.worker = worker
        self.remote_traceback = remote_traceback
        super().__init__(
            f"worker {worker} crashed during a parallel step\n"
            f"--- remote traceback ---\n{remote_traceback}"
        )


@dataclass
class _RankState:
    """One rank's long-lived state inside a worker."""

    n_owned: int
    system: AtomSystem
    neigh: NeighborList
    potential: Potential
    built: bool = False


@dataclass
class WorkerHost:
    """One worker's long-lived state, commands served via :meth:`handle`.

    It owns the per-rank states and the views into the shared
    position/force slabs, and knows nothing about pipes, processes or
    shared-memory lifecycle — :mod:`repro.parallel.executor` supplies
    those, calling ``partial(WorkerHost, box=..., ...)(arrays)`` on the
    worker's side.  Spawn and socket pools pickle that partial, so
    everything bound into it (box, masses, the template potential,
    neighbor settings) must pickle.
    """

    #: ``"xl"``/``"f"`` slabs, or empty in wire mode (positions and
    #: forces then travel in the step messages themselves)
    arrays: dict
    box: Box
    mass: np.ndarray
    species: tuple
    potential: Potential
    settings: NeighborSettings
    #: workers of the engine this host serves: a rank's kernel and list
    #: build thread over at most this host's usable cores divided by it,
    #: so ranks side by side never oversubscribe (no result bit moves)
    workers: int = 1
    states: dict[int, _RankState] = field(default_factory=dict)

    def handle(self, cmd: str, payload):
        if cmd == "ranks":
            return self._set_ranks(payload)
        if cmd == "step":
            return self._step(None if payload is None else payload.get("x"))
        raise ValueError(f"unknown command {cmd!r}")

    @hot_path(reason="per-worker per-step evaluation; reuses persistent lists/caches")
    def _step(self, xblocks: dict | None) -> list[dict]:
        """Evaluate every rank owned by this worker.

        Positions come from ``xblocks[rank]`` (wire mode — the
        ghost-region block arrived in the step payload) or else the
        rank's shared ``"xl"`` slab, already gathered by the host.
        Either is a plain elementwise copy into the rank's persistent
        position array, so both feed the kernel bit-identical
        coordinates.

        Builds the rank's list (and blanks its ghost rows) on the first
        step of a decomposition and reuses it unchecked until the next,
        runs the potential, and writes the local force block into the
        rank's ``"f"`` slab — or, in wire mode, attaches it to the stats
        dict for the reply message.
        """
        XL, F = self.arrays.get("xl"), self.arrays.get("f")
        out = []
        for rank in sorted(self.states):
            st = self.states[rank]
            t0 = time.perf_counter()
            if xblocks is not None:
                st.system.x[...] = xblocks[rank]
            else:
                st.system.x[...] = XL[rank, :st.system.n]
            # the process's first C list build loads the extension
            load = 0.0 if st.built else self._build(st, st.system.x)
            t1 = time.perf_counter()
            res = st.potential.compute(st.system, st.neigh)
            t2 = time.perf_counter()
            m = res.forces.shape[0]
            if F is not None:
                F[rank, :m, :] = res.forces
            timing = res.stats.get("timing", {})
            staging = min(max(float(timing.get("staging_s", 0.0)), 0.0), t2 - t1)
            warmup = min(max(float(timing.get("warmup_s", 0.0)), 0.0), (t2 - t1) - staging)
            info = {
                "rank": rank,
                "energy": res.energy,
                "virial": res.virial,
                "n_local": m,
                "neighbor_s": t1 - t0 - load,
                "staging_s": staging,
                "warmup_s": warmup + load,
                "kernel_s": (t2 - t1) - staging - warmup,
                "total_s": t2 - t0,
                "cache": res.stats.get("cache"),
                "pairs_in_cutoff": res.stats.get("pairs_in_cutoff"),
            }
            if F is None:
                # wire reply: the force slab travels back in the message.
                # Safe to send without copying — the serve loop transmits
                # the reply before this rank's workspace is touched again.
                info["forces"] = res.forces
            out.append(info)
        return out

    def _build(self, st: _RankState, x: np.ndarray) -> float:
        """Build `st`'s list at `x` and blank its ghost rows; returns the
        seconds the build spent loading the C extension."""
        st.neigh.build(x, self.box)
        blank_ghost_rows(st.neigh, st.n_owned)
        st.built = True
        return st.neigh.warmup_s

    def _set_ranks(self, payloads: list[dict]) -> None:
        # new decomposition generation: refresh topology but keep each
        # rank's potential (and its interaction cache / workspace)
        # alive across generations.  A payload's ``"x"`` (restart) is
        # the rank's rows of the decomposition's positions: its list is
        # built there now, not at the first step's positions.
        for payload in payloads:
            rank = payload["rank"]
            prev = self.states.get(rank)
            neigh = prev.neigh if prev is not None else NeighborList(self.settings)
            neigh.threads = max(1, usable_cores() // self.workers)
            self.states[rank] = _RankState(
                n_owned=payload["n_owned"],
                system=AtomSystem(
                    box=self.box,
                    x=np.zeros((payload["types"].shape[0], 3), dtype=np.float64),
                    type=payload["types"],
                    mass=self.mass,
                    species=self.species,
                ),
                neigh=neigh,
                potential=prev.potential if prev is not None else self._rank_potential(),
            )
            if "x" in payload:
                self._build(self.states[rank], payload["x"])
        for rank in [r for r in self.states if r not in {p["rank"] for p in payloads}]:
            del self.states[rank]

    def _rank_potential(self) -> Potential:
        """A rank's private copy of the template potential, its kernel threading over
        this worker's share of the host; a backend the host resolved that cannot load
        here (no toolchain) falls back to numpy with resolve()'s warning."""
        t = self.potential
        if isinstance(t, PipelinePotential) and not backends.is_available(t.backend_name):
            potential = type(t)(t.params, precision=t.precision, cache=t.cache_enabled,
                                backend=t.backend_name)
        else:
            potential = copy.deepcopy(t)
        kernel = getattr(potential, "kernel", None)
        if hasattr(kernel, "threads"):
            kernel.threads = max(1, usable_cores() // self.workers)
        return potential


@dataclass
class EngineStep:
    """Result of one parallel force evaluation.

    ``forces`` is the ``out`` array given to :meth:`ParallelEngine.compute`,
    else a workspace view valid until the next call — copy it to keep it.
    ``md_reduce_rows`` or, without the extension, ``scatter_add_rows``
    summed it, to the same bits.
    ``timers`` holds measured seconds: ``comm_s`` (position staging,
    dispatch and synchronization wait), ``reduce_s`` (host rank-order
    reduction), ``decompose_s`` (decomposition rebuild, when one
    happened) and the busiest worker's ``neighbor_s`` / ``staging_s`` /
    ``kernel_s`` critical-path components.

    Traffic accounting (bytes of position/force payload this step):
    ``bytes_forward`` is the ghost-region position rows moved to the
    workers, ``bytes_reverse`` the local force slabs that came back.
    ``bytes_wire`` is the ``(sent, received)`` socket byte delta for
    this step when the executor exposes a wire (framing overhead
    included), else ``None``.  ``comm`` is the step's :class:`CommRecord`
    in measured seconds (forward and reverse stages split from
    ``comm_s``).
    """

    energy: float
    forces: np.ndarray
    timers: dict[str, float]
    per_rank: list[dict] = field(default_factory=list)
    generation: int = 0
    redecomposed: bool = False
    virial: float = 0.0
    bytes_forward: int = 0
    bytes_reverse: int = 0
    bytes_wire: "tuple[int, int] | None" = None
    comm: "CommRecord | None" = None


class ParallelEngine:
    """Persistent worker pool executing decomposition ranks concurrently.

    Parameters
    ----------
    system:
        The global system.  The engine keeps a reference: decomposition
        rebuilds read its current ``type`` array; positions are passed
        explicitly to :meth:`compute`.
    potential:
        Template potential; each worker holds one private copy per
        assigned rank (so interaction caches never alias).  Must be
        picklable where the pool starts its workers with ``spawn``.
    workers:
        Number of worker processes (clamped to ``ranks``).
    ranks:
        Decomposition size (default: ``workers``).  The physics result
        depends only on ``ranks``, never on ``workers``; with
        ``ranks=1`` the local ordering matches the single-domain serial
        path exactly, so the engine result is bitwise identical to it.
    neighbor:
        Neighbor settings for the rank-local lists; defaults to the
        potential cutoff with the default skin.  ``full`` is forced — the
        decomposed i-loop restriction requires full lists.
    grid:
        Explicit process grid (default: LAMMPS-style near-cubic).
    executor:
        One of :data:`~repro.parallel.executor.EXECUTOR_NAMES` —
        ``"serial"`` (in-process), ``"thread"`` (real overlap with the
        GIL-releasing compiled kernel), ``"process"`` (the default;
        started by ``fork`` where the platform offers it, else
        ``spawn``), ``"tcp"`` / ``"unix"`` (spawned socket pool) — or a
        ready :class:`EngineExecutor`, e.g. a ``ProcessExecutor`` pinned
        to one start method or a
        :class:`~repro.parallel.transport.ClusterExecutor` connected to
        remote hosts.  The physics is bitwise identical across
        executors — they only move where the rank evaluations run.
    """

    def __init__(
        self,
        system: AtomSystem,
        potential: Potential,
        *,
        workers: int,
        ranks: int | None = None,
        neighbor: NeighborSettings | None = None,
        grid: tuple[int, int, int] | None = None,
        executor: "str | EngineExecutor | None" = None,
    ):
        if workers < 1:
            raise EngineError("need at least one worker")
        ranks = workers if ranks is None else int(ranks)
        if ranks < 1:
            raise EngineError("need at least one rank")
        self.system = system
        self.potential = potential
        self.ranks = ranks
        self.workers = min(int(workers), ranks)
        self.grid = grid
        self.settings = replace(neighbor or NeighborSettings(cutoff=potential.cutoff), full=True)
        self._dd: DomainDecomposition | None = None
        self.generation = 0
        self.steps = 0
        self.rebuild_steps = 0
        # telemetry only: rebuilt by the first compute() after restore,
        # deliberately outside the checkpoint contract
        self.last_step: EngineStep | None = None  # repro-lint: disable=KD001
        # measured traffic telemetry, same contract as last_step
        self.comm_total = CommRecord()
        self._comm_fit = AlphaBetaFit()
        self._closed = False

        n = system.n
        try:
            self._exec = make_executor(executor, workers=self.workers)
        except ExecutorError as exc:
            raise EngineError(str(exc)) from exc
        # a ready-made executor fixes the pool size; follow it (still
        # never more submit targets than ranks)
        self.workers = min(self._exec.workers, ranks)
        # wire executors (sockets) carry positions/forces in the step
        # messages themselves; no shared arrays at all.
        self._wire = bool(getattr(self._exec, "wire_data_plane", False))
        if self._wire:
            specs = {}
        else:
            specs = {"xl": ((ranks, n, 3), "float64"),
                     "f": ((ranks, n, 3), "float64")}
        views = self._exec.start(
            partial(WorkerHost, box=system.box, mass=system.mass.copy(),
                    species=system.species, potential=potential, settings=self.settings,
                    workers=self.workers),
            specs,
        )
        # per-call staging in executor shared memory: repopulated from the
        # caller's positions on every compute(), never persistent state
        self._XL = views.get("xl")
        # wire mode: host-local reduction buffer, filled from replies
        self._F = views.get("f")  # repro-lint: disable=KD001
        if self._F is None:
            self._F = np.zeros((ranks, n, 3), dtype=np.float64)
        # the same block objects every step: the reduction checks them once
        self._blocks = list(self._F)  # repro-lint: disable=KD001
        self._local_rows = 0
        self._wire_prev = (0, 0)  # repro-lint: disable=KD001

    # -- decomposition lifecycle --------------------------------------------------

    def _worker_of(self, rank: int) -> int:
        return rank % self.workers

    def _needs_decompose(self, x: np.ndarray) -> bool:
        """The neighbor list's skin test on the decomposition's reference
        positions: True past half the skin, or at a NaN or inf position."""
        return self._dd is None or past_half_skin(x, self._dd.system.x, self.system.box,
                                                  self.settings.skin)

    def _decompose(self, x: np.ndarray, *, build: bool = False) -> None:
        """Rebuild the decomposition at `x` and tell the workers their ranks;
        with `build`, each rank's rows of `x` go along and its list is built
        there (a restart, whose next step's positions are not `x`).

        A NaN or inf position is refused here, before any state changes or
        reaches a worker: the skin test sends every such step here.
        """
        require_finite(x)
        snapshot = AtomSystem(
            box=self.system.box,
            x=np.array(x, dtype=np.float64, copy=True),
            type=self.system.type.copy(),
            mass=self.system.mass.copy(),
            species=self.system.species,
        )
        self._dd = DomainDecomposition(
            snapshot, self.ranks, halo=self.settings.list_cutoff, grid=self.grid,
        )
        self.generation += 1
        # total owned+ghost rows across ranks: the per-step ghost-only
        # traffic is this many position (forward) and force (reverse) rows
        self._local_rows = sum(d.local_idx.shape[0] for d in self._dd.domains)
        payloads: list[list[dict]] = [[] for _ in range(self.workers)]
        for dom in self._dd.domains:
            payloads[self._worker_of(dom.rank)].append({
                "rank": dom.rank,
                "n_owned": dom.n_owned,
                "types": dom.local_system.type,
                **({"x": dom.local_system.x} if build else {}),
            })
        self._dispatch("ranks", payloads)

    def _dispatch(self, cmd: str, payloads: list | None = None) -> list:
        """Send `cmd` to every worker, collect replies in worker order."""
        futs = [
            self._exec.submit(w, cmd, None if payloads is None else payloads[w])
            for w in range(self.workers)
        ]
        return [self._result(fut) for fut in futs]

    def _result(self, fut):
        try:
            return fut.result()
        except WorkerFailure as exc:
            self.close()
            raise WorkerCrash(exc.worker, exc.remote_traceback) from exc

    # -- the hot loop -------------------------------------------------------------

    @hot_path(reason="per-step parallel force evaluation; host side of the data plane")
    def compute(self, x: np.ndarray, *, out: np.ndarray | None = None) -> EngineStep:
        """One parallel force evaluation at global positions `x`.

        The forces are reduced into `out` when given (an ``(n, 3)`` array
        the caller owns).  A NaN or inf position raises ``ValueError``
        naming the first such atom, with the pool untouched.
        """
        if self._closed:
            raise EngineError("engine is closed")
        t0 = time.perf_counter()
        redecomposed = self._needs_decompose(x)
        if redecomposed:
            self._decompose(x)
        t1 = time.perf_counter()
        if self._wire:
            # ghost-only wire payload: each worker gets just the position
            # rows its ranks own (plus ghosts), keyed by rank
            blocks: list[dict] = [{} for _ in range(self.workers)]
            for dom in self._dd.domains:
                blocks[self._worker_of(dom.rank)][dom.rank] = np.take(
                    x, dom.local_idx, axis=0)
            futs = [self._exec.submit(w, "step", {"x": blocks[w]})
                    for w in range(self.workers)]
        else:
            # ghost-only shared-memory staging: write each rank's
            # owned+ghost rows into its slab, nothing else
            for dom in self._dd.domains:
                m = dom.local_idx.shape[0]
                np.take(x, dom.local_idx, axis=0, out=self._XL[dom.rank, :m])
            futs = [self._exec.submit(w, "step") for w in range(self.workers)]
        t2 = time.perf_counter()
        per_worker = [self._result(fut) for fut in futs]
        t3 = time.perf_counter()
        per_rank = sorted(itertools.chain.from_iterable(per_worker), key=lambda r: r["rank"])
        if self._wire:
            # owned-force slabs came back in the replies; land them in the
            # host-local reduction buffer exactly where the shared-memory
            # planes would have written them
            for info in per_rank:
                fr = info.pop("forces")
                self._F[info["rank"], : fr.shape[0], :] = fr
        # fixed rank-order reduction — the determinism contract: same
        # association as the sequential DomainDecomposition path.
        energy = 0.0
        virial = 0.0
        for info in per_rank:
            energy += info["energy"]
            virial += info["virial"]
        forces = self._dd.reduce_forces(self._blocks, out=out)
        t4 = time.perf_counter()

        worker_totals = [sum(r["total_s"] for r in ranks) for ranks in per_worker]
        busiest = int(np.argmax(worker_totals)) if worker_totals else 0
        busy = per_worker[busiest] if per_worker else []
        wait_s = t3 - t2
        busy_total = worker_totals[busiest] if worker_totals else 0.0
        # dispatch + synchronization overhead = everything in the
        # dispatch/collect window that was not the busiest worker's
        # compute.  With the serial executor the compute happens inside
        # the submit calls (t2 - t1), so the formula must look at the
        # whole window before subtracting, not clamp per phase.
        timers = {
            "decompose_s": t1 - t0,
            "comm_s": max((t2 - t1) + wait_s - busy_total, 0.0),
            "reduce_s": t4 - t3,
            "neighbor_s": sum(r["neighbor_s"] for r in busy),
            "staging_s": sum(r["staging_s"] for r in busy),
            "warmup_s": sum(r.get("warmup_s", 0.0) for r in busy),
            "kernel_s": sum(r["kernel_s"] for r in busy),
            "wait_s": wait_s,
            "busy_s": busy_total,
        }
        self.steps += 1
        if redecomposed:
            self.rebuild_steps += 1

        # -- measured traffic accounting: one float64 (x, y, z) row per
        # owned+ghost atom each way --
        bytes_forward = bytes_reverse = self._local_rows * 24
        bytes_wire = None
        wire_fn = getattr(self._exec, "wire_bytes", None)
        if wire_fn is not None:
            cur = wire_fn()
            bytes_wire = (cur[0] - self._wire_prev[0], cur[1] - self._wire_prev[1])
            self._wire_prev = cur
        # split the measured comm window: the staging/dispatch phase
        # (t1..t2) is forward traffic, the remainder is collection
        comm_s = timers["comm_s"]
        fwd_s = min(max(t2 - t1, 0.0), comm_s)
        comm = CommRecord()
        for record in (comm, self.comm_total):
            record.add(bytes_forward, fwd_s, stage="forward")
            record.add(bytes_reverse, comm_s - fwd_s, stage="reverse")
        self._comm_fit.add(bytes_forward + bytes_reverse, comm_s)

        step = EngineStep(
            energy=energy,
            forces=forces,
            timers=timers,
            per_rank=per_rank,
            generation=self.generation,
            redecomposed=redecomposed,
            virial=virial,
            bytes_forward=bytes_forward,
            bytes_reverse=bytes_reverse,
            bytes_wire=bytes_wire,
            comm=comm,
        )
        self.last_step = step
        return step

    # -- checkpoint/restart -------------------------------------------------------

    def get_state(self) -> dict | None:
        """Checkpointable decomposition state.

        ``None`` before the first :meth:`compute` (nothing to restore).
        The state pins the positions the decomposition was built at.
        Every rank's list was built at its rows of them, so
        :meth:`restore_state` reconstructs both bitwise from this one
        array; nothing is asked of the workers.
        """
        if self._closed:
            raise EngineError("engine is closed")
        if self._dd is None:
            return None
        return {
            "ranks": self.ranks,
            "generation": self.generation,
            "steps": self.steps,
            "rebuild_steps": self.rebuild_steps,
            "x_ref": self._dd.system.x.copy(),
        }

    def restore_state(self, state: dict) -> None:
        """Warm-start from a :meth:`get_state` snapshot.

        Rebuilds the decomposition at the checkpointed reference
        positions and has each worker build its rank lists at their rows
        of them (``x_ref[local_idx]``), so the next :meth:`compute` sees
        exactly the state the uninterrupted run had — same domains,
        same list topology, same pending redecomposition test.
        """
        if self._closed:
            raise EngineError("engine is closed")
        if int(state["ranks"]) != self.ranks:
            raise EngineError(
                f"checkpoint was taken with ranks={state['ranks']}, engine has ranks={self.ranks}"
            )
        self._decompose(np.ascontiguousarray(state["x_ref"], dtype=np.float64), build=True)
        self.generation = int(state["generation"])
        self.steps = int(state["steps"])
        self.rebuild_steps = int(state["rebuild_steps"])

    # -- observability ------------------------------------------------------------

    def cache_summary(self) -> dict | None:
        """Aggregated per-rank interaction-cache counters (or ``None``)."""
        if self.last_step is None:
            return None
        caches = [r.get("cache") for r in self.last_step.per_rank]
        if not caches or any(c is None or not c.get("enabled", False) for c in caches):
            return None
        agg = {"enabled": True, "hits": 0, "misses": 0, "invalidations": 0,
               "list_version": 0, "last_event": caches[-1].get("last_event", "")}
        for c in caches:
            agg["hits"] += c.get("hits", 0)
            agg["misses"] += c.get("misses", 0)
            agg["invalidations"] += c.get("invalidations", 0)
            agg["list_version"] = max(agg["list_version"], c.get("list_version", 0))
        return agg

    def calibrated_network(self, *, name: str | None = None):
        """Alpha-beta :class:`~repro.perf.network.NetworkModel` fitted to
        this engine's *measured* per-step exchanges.

        Every :meth:`compute` contributes one ``(bytes, seconds)``
        sample to a running fit (its sufficient statistics, not the
        samples); the executor's own calibration (e.g.
        :meth:`~repro.parallel.transport.ClusterExecutor.calibrate`)
        probes the raw fabric instead — this fit sees the end-to-end
        data plane including staging.  ``None`` until a step with a
        positive comm time has been measured.
        """
        if not self._comm_fit.count:
            return None
        return self._comm_fit.model(name or f"measured-{type(self._exec).__name__}")

    def workload_summary(self) -> dict:
        """Structural decomposition summary plus measured execution data.

        Extends :meth:`DomainDecomposition.workload_summary` with the
        last step's measured per-rank seconds, the measured imbalance
        (busiest rank over mean) and the strong-scaling efficiency
        (total rank compute time over ``workers x`` synchronization
        wall — 1.0 means perfectly packed workers, lower means idle
        lanes, the Fig. 9 quantity measured instead of modeled).
        """
        if self._dd is None:
            raise EngineError("no decomposition yet; call compute() first")
        summary = self._dd.workload_summary()
        summary.update({
            "ranks": self.ranks,
            "workers": self.workers,
            "generations": self.generation,
            "steps": self.steps,
            "rebuild_steps": self.rebuild_steps,
        })
        if self.last_step is not None:
            rank_s = [r["total_s"] for r in self.last_step.per_rank]
            # the synchronization wall: host wait for process executors,
            # the busiest worker's busy time when the work ran inline
            # (serial executor, where wait is ~0 by construction)
            wall = max(self.last_step.timers["wait_s"], self.last_step.timers["busy_s"])
            summary.update({
                "rank_seconds": rank_s,
                "imbalance_measured": float(max(rank_s) / max(np.mean(rank_s), 1e-300)),
                "parallel_efficiency": float(sum(rank_s) / max(self.workers * wall, 1e-300)),
            })
        return summary

    # -- lifecycle ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the executor down (pool + shared memory).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._exec.shutdown()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
