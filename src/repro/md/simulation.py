"""The timestep driver with LAMMPS-style per-stage timers.

Reproduces the measurement contract of the paper's Sec. VI ("Timing
Methodology"): the run loop accounts time to *pair* (force kernel),
*neighbor* (list builds), *integrate* and — when running under the
simulated domain decomposition — *comm*, excluding initialisation and
cleanup.  The ``ns/day`` metric of Figs. 4-9 is derived from these
timers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.md.atoms import AtomSystem
from repro.md.integrate import Langevin, NoseHoover, VelocityRescale, VelocityVerlet
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.potential import ForceResult, Potential
from repro.md.thermo import ThermoSample, sample
from repro.md.units import DEFAULT_TIMESTEP_PS, ns_per_day


@dataclass
class StageTimers:
    """Wall-clock seconds per simulation stage (LAMMPS MPI-timer analogue).

    ``prepare`` is the scalar staging segment of the force call (list
    filtering, pair/triplet expansion, parameter gathers — the paper's
    filter component); ``pair`` is the remaining computational part.
    Potentials that do not report a staging split charge everything to
    ``pair``, as before.  Parallel runs (``workers=N``) additionally
    fill ``comm`` (position broadcast, worker dispatch and
    synchronization/imbalance wait — *measured*, not modeled) and
    ``reduce`` (the host's fixed rank-order force reduction); on the
    engine path ``pair``/``prepare``/``neighbor`` report the busiest
    worker's critical-path seconds.  ``warmup`` is one-time backend
    preparation (C extension build/load) reported by whichever of the
    first neighbor build and the compiled kernel's first call paid it —
    keeping it out of ``neighbor`` and ``pair`` keeps per-step medians
    honest.
    """

    pair: float = 0.0
    prepare: float = 0.0
    neighbor: float = 0.0
    integrate: float = 0.0
    comm: float = 0.0
    reduce: float = 0.0
    warmup: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.pair + self.prepare + self.neighbor + self.integrate
            + self.comm + self.reduce + self.warmup + self.other
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "pair": self.pair,
            "prepare": self.prepare,
            "neighbor": self.neighbor,
            "integrate": self.integrate,
            "comm": self.comm,
            "reduce": self.reduce,
            "warmup": self.warmup,
            "other": self.other,
            "total": self.total,
        }

    def breakdown(self) -> str:
        tot = self.total or 1.0
        parts = ", ".join(
            f"{k} {v:.3f}s ({100.0 * v / tot:.1f}%)" for k, v in self.as_dict().items() if k != "total"
        )
        return f"total {self.total:.3f}s: {parts}"


@dataclass
class RunResult:
    """Outcome of :meth:`Simulation.run`."""

    steps: int
    timers: StageTimers
    thermo: list[ThermoSample] = field(default_factory=list)
    neighbor_builds: int = 0

    def ns_per_day(self, dt_ps: float) -> float:
        if self.timers.total <= 0.0 or self.steps == 0:
            return float("inf")
        return ns_per_day(dt_ps, self.steps / self.timers.total)


class Simulation:
    """MD simulation: potential + neighbor list + integrator.

    Runs single-domain by default; with ``workers=N`` the force
    evaluation is delegated to a persistent
    :class:`~repro.parallel.engine.ParallelEngine` pool executing a
    fixed ``ranks``-way domain decomposition concurrently.  For a fixed
    ``ranks`` the trajectory is bitwise independent of ``workers``;
    ``workers=1, ranks=1`` reproduces the serial path bitwise.

    Parameters
    ----------
    system:
        The atom system; mutated in place as the run advances.
    potential:
        Any :class:`~repro.md.potential.Potential`.
    neighbor:
        Neighbor settings; ``cutoff`` defaults to the potential's.
    dt:
        Timestep in ps (default: the 1 fs metal-units standard).
    thermostat:
        Optional :class:`Langevin` or :class:`VelocityRescale`.
    workers:
        Number of parallel worker processes (``None`` = serial,
        in-process evaluation).
    ranks:
        Decomposition size for the parallel path (default: ``workers``).
        The physics depends only on ``ranks``, never on ``workers``.
    executor:
        Execution backend for the pool: one of
        :data:`~repro.parallel.executor.EXECUTOR_NAMES` (``"serial"``,
        ``"thread"``, ``"process"``, ``"tcp"``, ``"unix"``) or an
        :class:`~repro.parallel.executor.EngineExecutor` instance
        (default: ``"process"`` — fork where available).  Bitwise
        identical physics across executors.
    """

    def __init__(
        self,
        system: AtomSystem,
        potential: Potential,
        *,
        neighbor: NeighborSettings | None = None,
        dt: float = DEFAULT_TIMESTEP_PS,
        thermostat: Langevin | NoseHoover | VelocityRescale | None = None,
        workers: int | None = None,
        ranks: int | None = None,
        executor=None,
    ):
        self.system = system
        self.potential = potential
        if neighbor is None:
            neighbor = NeighborSettings(cutoff=potential.cutoff, full=potential.needs_full_list)
        if neighbor.cutoff < potential.cutoff:
            raise ValueError(
                f"neighbor cutoff {neighbor.cutoff} below potential cutoff {potential.cutoff}"
            )
        self.neigh = NeighborList(neighbor)
        self.integrator = VelocityVerlet(dt)
        self.thermostat = thermostat
        self.step_index = 0
        self.timers = StageTimers()
        self.last_result: ForceResult | None = None
        self.engine = None
        if workers is not None:
            from repro.parallel.engine import ParallelEngine

            self.engine = ParallelEngine(
                system,
                potential,
                workers=workers,
                ranks=ranks,
                neighbor=NeighborSettings(
                    cutoff=neighbor.cutoff, skin=neighbor.skin, full=True
                ),
                executor=executor,
            )

    @property
    def dt(self) -> float:
        return self.integrator.dt

    def _builds(self) -> int:
        """Neighbor-build counter (serial list builds / engine rebuild steps)."""
        if self.engine is not None:
            return self.engine.rebuild_steps
        return self.neigh.n_builds

    def close(self) -> None:
        """Shut down the parallel engine, if any.  Idempotent."""
        if self.engine is not None:
            self.engine.close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def workload_summary(self) -> dict | None:
        """The engine's measured decomposition summary (``None`` if serial)."""
        if self.engine is None or self.engine.last_step is None:
            return None
        return self.engine.workload_summary()

    def compute_forces(self) -> ForceResult:
        """Evaluate the potential into ``system.f``.

        Time is split *neighbor* (list build) / *prepare* (staging, when
        the potential reports it in ``stats["timing"]``) / *pair* (the
        computational part); the parallel path additionally fills
        *comm* and *reduce* from measured engine timers.
        """
        if self.engine is not None:
            return self._compute_forces_parallel()
        t0 = time.perf_counter()
        self.neigh.ensure(self.system.x, self.system.box)
        t1 = time.perf_counter()
        load = self.neigh.warmup_s
        self.timers.neighbor += t1 - t0 - load
        self.timers.warmup += load
        result = self.potential.compute(self.system, self.neigh)
        self.system.f[:] = result.forces
        elapsed = time.perf_counter() - t1
        timing = result.stats.get("timing", {})
        staging = float(timing.get("staging_s", 0.0))
        staging = min(max(staging, 0.0), elapsed)
        warmup = float(timing.get("warmup_s", 0.0))
        warmup = min(max(warmup, 0.0), elapsed - staging)
        self.timers.prepare += staging
        self.timers.warmup += warmup
        self.timers.pair += elapsed - staging - warmup
        self.last_result = result
        return result

    def _compute_forces_parallel(self) -> ForceResult:
        """One engine step; stage timers are fed from measured engine time.

        Attribution: decomposition rebuilds and the busiest worker's
        list work go to *neighbor*, its staging to *prepare*, its kernel
        to *pair*, the host reduction to *reduce*, and everything else
        in the host's wall time — broadcast, dispatch, IPC and
        synchronization/imbalance wait — to *comm*.
        """
        t0 = time.perf_counter()
        step = self.engine.compute(self.system.x, out=self.system.f)
        elapsed = time.perf_counter() - t0
        tm = step.timers
        neighbor = tm["decompose_s"] + tm["neighbor_s"]
        prepare = tm["staging_s"]
        pair = tm["kernel_s"]
        reduce_s = tm["reduce_s"]
        warmup = tm.get("warmup_s", 0.0)
        self.timers.neighbor += neighbor
        self.timers.prepare += prepare
        self.timers.pair += pair
        self.timers.reduce += reduce_s
        self.timers.warmup += warmup
        self.timers.comm += max(
            elapsed - (neighbor + prepare + pair + reduce_s + warmup), 0.0
        )
        stats: dict = {
            "parallel": {
                "workers": self.engine.workers,
                "ranks": self.engine.ranks,
                "generation": step.generation,
                "redecomposed": step.redecomposed,
                "any_rebuilt": step.any_rebuilt,
                "timers": dict(tm),
                "bytes_forward": step.bytes_forward,
                "bytes_reverse": step.bytes_reverse,
                "bytes_wire": step.bytes_wire,
                "comm_measured_s": 0.0 if step.comm is None else step.comm.time_s,
            }
        }
        cache = self.engine.cache_summary()
        if cache is not None:
            stats["cache"] = cache
        result = ForceResult(
            energy=step.energy, forces=self.system.f, virial=step.virial,
            stats=stats,
        )
        self.last_result = result
        return result

    def run(
        self,
        steps: int,
        *,
        thermo_every: int = 0,
        callback=None,
    ) -> RunResult:
        """Advance `steps` timesteps of velocity Verlet.

        Parameters
        ----------
        thermo_every:
            Collect a :class:`ThermoSample` every this many steps
            (0 = only at start/end).
        callback:
            Optional ``callback(sim, step)`` invoked after each step,
            or a list/tuple of such callables (trajectory writers,
            telemetry sinks and checkpointers compose).  After the last
            step, any callback exposing a ``finalize(sim)`` method
            (directly, or on the object a bound method belongs to) has
            it invoked exactly once — this is how trajectory writers
            flush a final frame that the ``every`` stride would skip.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if callback is None:
            callbacks = []
        elif isinstance(callback, (list, tuple)):
            callbacks = list(callback)
        else:
            callbacks = [callback]
        if self.last_result is None:
            self.compute_forces()
        thermo: list[ThermoSample] = []

        def collect() -> None:
            assert self.last_result is not None
            thermo.append(
                sample(self.system, self.step_index, self.step_index * self.dt, self.last_result.energy)
            )

        collect()
        builds_before = self._builds()
        for _ in range(steps):
            t0 = time.perf_counter()
            if isinstance(self.thermostat, NoseHoover):
                self.thermostat.half_step(self.system)
            self.integrator.initial_integrate(self.system)
            self.timers.integrate += time.perf_counter() - t0
            self.compute_forces()
            t0 = time.perf_counter()
            if isinstance(self.thermostat, Langevin):
                self.thermostat.apply(self.system)
            self.integrator.final_integrate(self.system)
            if isinstance(self.thermostat, VelocityRescale):
                self.thermostat.maybe_rescale(self.system, self.step_index)
            if isinstance(self.thermostat, NoseHoover):
                self.thermostat.half_step(self.system)
            self.timers.integrate += time.perf_counter() - t0
            self.step_index += 1
            if thermo_every and self.step_index % thermo_every == 0:
                collect()
            for cb in callbacks:
                cb(self, self.step_index)
        if not thermo_every or self.step_index % thermo_every:
            collect()
        for cb in callbacks:
            fin = getattr(cb, "finalize", None)
            if fin is None:
                fin = getattr(getattr(cb, "__self__", None), "finalize", None)
            if fin is not None:
                fin(self)
        return RunResult(
            steps=steps,
            timers=self.timers,
            thermo=thermo,
            neighbor_builds=self._builds() - builds_before,
        )
