"""The shared-memory parallel execution engine.

The contract under test (DESIGN.md §9): for a fixed decomposition
(ranks/grid/sort) the engine's energy and forces are **bitwise
identical** to the sequential rank-by-rank evaluation for *any* worker
count, across precisions and species; per-worker interaction caches
survive neighbor rebuilds; and the pool shuts down cleanly — including
on worker crash — without orphaning shared-memory segments.
"""

import copy
import glob
import subprocess
import sys

import numpy as np
import pytest
from multiprocessing import shared_memory

from conftest import needs_compiled
from repro import backends
from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si, tersoff_sic
from repro.core.tersoff.production import TersoffProduction
from repro.md.pair_lj_vectorized import LennardJonesVectorized
from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities, zincblende_sic
from repro.md.neighbor import NeighborSettings
from repro.md.potential import Potential
from repro.md.simulation import Simulation
from repro.parallel.decomposition import DomainDecomposition
from repro.parallel.engine import EngineError, ParallelEngine, WorkerCrash
from repro.parallel.executor import ProcessExecutor

SKIN = 1.0


def si_system():
    return perturbed(diamond_lattice(4, 4, 4), 0.05, seed=3)  # 512 atoms


def sequential_reference(system, potential, xs, *, ranks):
    """Replay positions `xs` through the sequential decomposition path
    with the engine's redecomposition criterion (moved > skin/2 since
    the decomposition was built).  Returns [(energy, forces), ...]."""
    pot = copy.deepcopy(potential)
    settings = NeighborSettings(cutoff=potential.cutoff, skin=SKIN, full=True)
    dd, x_ref = None, None
    out = []
    for x in xs:
        if dd is None:
            redo = True
        else:
            d = system.box.minimum_image(x - x_ref)
            redo = float(np.max(np.einsum("ij,ij->i", d, d))) > (0.5 * SKIN) ** 2
        if redo:
            snap = system.copy()
            snap.x[:] = x
            dd = DomainDecomposition(snap, ranks, halo=settings.list_cutoff)
            x_ref = x.copy()
        else:
            dd.refresh_positions(x)
        energy, forces, _ = dd.compute_forces(pot, skin=SKIN)
        out.append((energy, forces.copy()))
    return out


def drift_sequence(system, rng_seed=9):
    """Positions for 5 steps: tiny jitter, then one > skin/2 kick."""
    rng = np.random.default_rng(rng_seed)
    xs = [system.x.copy()]
    for _ in range(2):
        xs.append(xs[-1] + rng.normal(scale=1e-3, size=xs[-1].shape))
    kicked = xs[-1].copy()
    kicked[7] += np.array([0.6, 0.0, 0.0])  # > skin/2 = 0.5
    xs.append(kicked)
    xs.append(kicked + rng.normal(scale=1e-3, size=kicked.shape))
    return xs


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    def test_si_all_precisions(self, workers, precision):
        system = si_system()
        pot = TersoffProduction(tersoff_si(), precision=precision, cache=True)
        xs = drift_sequence(system)
        ref = sequential_reference(system, pot, xs, ranks=4)
        with ParallelEngine(system, pot, workers=workers, ranks=4) as eng:
            for x, (e_ref, f_ref) in zip(xs, ref):
                step = eng.compute(x)
                assert step.energy == e_ref
                assert np.array_equal(step.forces, f_ref)
            assert eng.generation == 2  # initial + the kicked step

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sic_multispecies(self, workers):
        system = perturbed(zincblende_sic(2, 2, 2), 0.10, seed=17)
        pot = TersoffProduction(tersoff_sic(), precision="double", cache=True)
        xs = drift_sequence(system)
        ref = sequential_reference(system, pot, xs, ranks=4)
        with ParallelEngine(system, pot, workers=workers, ranks=4) as eng:
            for x, (e_ref, f_ref) in zip(xs, ref):
                step = eng.compute(x)
                assert step.energy == e_ref
                assert np.array_equal(step.forces, f_ref)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sw_bitwise(self, workers):
        """The pipeline's other multi-body kernel runs through the
        engine unchanged: SW forces are bitwise those of the
        sequential rank-by-rank evaluation."""
        system = si_system()
        pot = StillingerWeberProduction(sw_silicon(), precision="mixed", cache=True)
        xs = drift_sequence(system)
        ref = sequential_reference(system, pot, xs, ranks=4)
        with ParallelEngine(system, pot, workers=workers, ranks=4) as eng:
            for x, (e_ref, f_ref) in zip(xs, ref):
                step = eng.compute(x)
                assert step.energy == e_ref
                assert np.array_equal(step.forces, f_ref)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lj_bitwise(self, workers):
        """A lane simulator (the scheme-(1a) vectorized LJ) also
        decomposes bitwise."""
        system = si_system()
        pot = LennardJonesVectorized(0.07, 2.0951, 4.2)
        xs = drift_sequence(system)
        ref = sequential_reference(system, pot, xs, ranks=4)
        with ParallelEngine(system, pot, workers=workers, ranks=4) as eng:
            for x, (e_ref, f_ref) in zip(xs, ref):
                step = eng.compute(x)
                assert step.energy == e_ref
                assert np.array_equal(step.forces, f_ref)

    def test_spawn_start_method_bitwise(self):
        system = si_system()
        pot = TersoffProduction(tersoff_si(), cache=True)
        e_ref, f_ref = sequential_reference(system, pot, [system.x], ranks=2)[0]
        spawned = ProcessExecutor(2, start_method="spawn")
        with ParallelEngine(system, pot, workers=2, ranks=2, executor=spawned) as eng:
            step = eng.compute(system.x)
            assert step.energy == e_ref
            assert np.array_equal(step.forces, f_ref)


class TestRankBackendFallback:
    @needs_compiled
    def test_a_rank_that_cannot_load_the_kernel_runs_numpy(self, monkeypatch):
        """The host resolved compiled; a rank where it cannot load (here:
        REPRO_NO_CEXT from then on) gets numpy with resolve()'s warning
        instead of a build error on its first step, and the engine then
        matches a numpy engine bit for bit.  A separate rank host:
        tests/test_cluster_transport.py::TestHostsMode."""
        system = perturbed(diamond_lattice(2, 2, 2), 0.1, seed=13)
        template = TersoffProduction(tersoff_si(), backend="compiled")
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        monkeypatch.setattr(backends, "_FALLBACK_WARNED", set())

        def step(pot):
            with ParallelEngine(system.copy(), pot, workers=2, ranks=2, executor="serial") as eng:
                res = eng.compute(system.x)
                return res.energy, res.forces.copy()

        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            energy, forces = step(template)
        e_ref, f_ref = step(TersoffProduction(tersoff_si(), backend="numpy"))
        assert energy == e_ref
        assert np.array_equal(forces, f_ref)


class TestCachePersistence:
    def test_hits_survive_three_rebuilds(self):
        """Per-worker caches persist across ≥3 neighbor rebuilds, and
        the cached engine stays bitwise identical to a cache-off one."""
        system = si_system()
        rng = np.random.default_rng(21)
        xs = [system.x.copy()]
        for kick in range(3):  # 3 redecomposition/rebuild rounds
            for _ in range(2):  # hit steps between rebuilds
                xs.append(xs[-1] + rng.normal(scale=5e-4, size=xs[-1].shape))
            kicked = xs[-1].copy()
            kicked[kick] += np.array([0.0, 0.6, 0.0])
            xs.append(kicked)
        for _ in range(2):  # hit steps after the final rebuild
            xs.append(xs[-1] + rng.normal(scale=5e-4, size=xs[-1].shape))
        pot_on = TersoffProduction(tersoff_si(), cache=True)
        pot_off = TersoffProduction(tersoff_si(), cache=False)
        with ParallelEngine(system, pot_on, workers=2, ranks=4) as eng, \
                ParallelEngine(system, pot_off, workers=2, ranks=4) as bare:
            hits_after_rebuild = []
            for x in xs:
                step = eng.compute(x)
                ref = bare.compute(x)
                assert step.energy == ref.energy
                assert np.array_equal(step.forces, ref.forces)
                if step.redecomposed:
                    hits_after_rebuild.append(eng.cache_summary()["hits"])
            assert eng.generation >= 4  # initial + 3 kicks
            cache = eng.cache_summary()
            assert cache["enabled"] and cache["hits"] > 0
            # hits kept accumulating after every rebuild round
            assert cache["hits"] > hits_after_rebuild[-1]

    def test_rebuild_steps_counted(self):
        system = si_system()
        pot = TersoffProduction(tersoff_si(), cache=True)
        with ParallelEngine(system, pot, workers=1, ranks=2) as eng:
            eng.compute(system.x)
            eng.compute(system.x + 1e-5)
            assert eng.rebuild_steps == 1
            assert eng.steps == 2


class TestImportPath:
    def test_engine_import_loads_no_measurement_code(self):
        """Every decomposed run and every spawned worker imports the
        engine: it may pull in the cost model behind the comm fit
        (``repro.perf.network``), not the machine tables, the step
        model, a bench harness or the figure drivers."""
        code = ("import sys, repro.parallel.engine\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.startswith(('repro.perf.', 'repro.harness'))))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.strip() == str(["repro.perf.network"])


class ExplodingPotential(Potential):
    """Raises on the second compute call (module-level: spawn-safe)."""

    cutoff = 3.2
    needs_full_list = True

    def __init__(self):
        self.calls = 0

    def compute(self, system, neigh):
        self.calls += 1
        if self.calls > 1:
            raise RuntimeError("kaboom")
        from repro.md.potential import ForceResult

        return ForceResult(energy=0.0, forces=np.zeros((system.n, 3), dtype=np.float64))


def shm_names(eng):
    """Shared-memory segment names of the engine's process executor."""
    return [shm.name for shm in eng._exec._segments]


class TestLifecycle:
    def test_worker_crash_raises_and_cleans_up(self):
        system = si_system()
        eng = ParallelEngine(system, ExplodingPotential(), workers=2, ranks=2)
        names = shm_names(eng)
        eng.compute(system.x)
        with pytest.raises(WorkerCrash, match="kaboom"):
            eng.compute(system.x + 0.6)  # forces redecomp + fresh compute
        assert eng.closed
        for name in names:  # no orphaned segments (resource_tracker owns none)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert not glob.glob(f"/dev/shm/{names[0]}") and not glob.glob(f"/dev/shm/{names[1]}")
        with pytest.raises(EngineError):
            eng.compute(system.x)

    def test_close_is_idempotent_and_unlinks(self):
        system = si_system()
        eng = ParallelEngine(system, TersoffProduction(tersoff_si()), workers=2, ranks=2)
        names = shm_names(eng)
        eng.compute(system.x)
        eng.close()
        eng.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        for proc in eng._exec._procs:
            assert not proc.is_alive()

    def test_workers_clamped_to_ranks(self):
        system = si_system()
        with ParallelEngine(system, TersoffProduction(tersoff_si()), workers=8, ranks=2) as eng:
            assert eng.workers == 2

    def test_rejects_bad_args(self):
        system = si_system()
        with pytest.raises(EngineError):
            ParallelEngine(system, TersoffProduction(tersoff_si()), workers=0)


class TestSimulationIntegration:
    def test_workers1_ranks1_bitwise_vs_serial_trajectory(self):
        def make():
            s = diamond_lattice(3, 3, 3)
            seeded_velocities(s, 600.0, seed=11)
            return s, TersoffProduction(tersoff_si(), cache=True)

        s1, p1 = make()
        Simulation(s1, p1).run(5)
        s2, p2 = make()
        with Simulation(s2, p2, workers=1, ranks=1) as sim2:
            sim2.run(5)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.v, s2.v)
        assert np.array_equal(s1.f, s2.f)

    def test_trajectory_independent_of_worker_count(self):
        def run(workers):
            s = diamond_lattice(3, 3, 3)
            seeded_velocities(s, 600.0, seed=4)
            with Simulation(s, TersoffProduction(tersoff_si()), workers=workers,
                            ranks=2) as sim:
                sim.run(5)
            return s

        s1, s2 = run(1), run(2)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.f, s2.f)

    def test_timers_and_summary(self):
        s = diamond_lattice(3, 3, 3)
        seeded_velocities(s, 300.0, seed=5)
        with Simulation(s, TersoffProduction(tersoff_si()), workers=2, ranks=2) as sim:
            result = sim.run(3)
            assert sim.timers.comm > 0.0
            assert sim.timers.reduce > 0.0
            td = result.timers.as_dict()
            assert "reduce" in td and td["total"] == pytest.approx(result.timers.total)
            assert "reduce" in result.timers.breakdown()
            summary = sim.workload_summary()
            for key in ("imbalance_measured", "parallel_efficiency", "rank_seconds",
                        "workers", "ranks", "generations"):
                assert key in summary
            assert summary["imbalance_measured"] >= 1.0
            assert len(summary["rank_seconds"]) == 2
            par = sim.last_result.stats["parallel"]
            assert par["workers"] == 2 and par["ranks"] == 2

    def test_serial_simulation_unchanged(self):
        s = diamond_lattice(3, 3, 3)
        sim = Simulation(s, TersoffProduction(tersoff_si()))
        assert sim.engine is None
        assert sim.workload_summary() is None
        sim.close()  # no-op


class TestDecompositionSatellites:
    def test_persistent_lists_reused_across_calls(self):
        system = si_system()
        pot = TersoffProduction(tersoff_si())
        dd = DomainDecomposition(system, 4, halo=pot.cutoff + SKIN)
        dd.compute_forces(pot, skin=SKIN)
        dd.compute_forces(pot, skin=SKIN)
        assert set(dd._lists) == {0, 1, 2, 3}
        assert all(nl.n_builds == 1 for nl in dd._lists.values())


class TestGhostOnlyDataPlane:
    """The engine ships only ghost-region slabs, and the byte and time
    accounting says so."""

    def test_step_carries_measured_comm_record(self):
        system = si_system()
        pot = TersoffProduction(tersoff_si(), cache=True)
        with ParallelEngine(system, pot, workers=2, ranks=2) as eng:
            step = eng.compute(system.x)
            assert step.comm is not None
            assert step.comm.messages == 2  # forward + reverse
            assert step.comm.bytes == step.bytes_forward + step.bytes_reverse
            # one float64 xyz row per owned+ghost atom, each way
            rows = sum(r["n_local"] for r in step.per_rank)
            assert step.bytes_forward == step.bytes_reverse == rows * 24
            assert step.comm.time_s >= 0.0
            assert set(step.comm.by_stage) == {"forward", "reverse"}
            # shared-memory executors have no wire, so no wire bytes
            assert step.bytes_wire is None
            assert eng.comm_total.messages == 2

    def test_retained_comm_state_does_not_grow_with_steps(self):
        """Telemetry is running totals: a long run at one decomposition
        holds no more after 200 steps than after the first."""

        def retained(eng):
            held = [eng, eng.comm_total, *vars(eng).values()]
            return sum(
                len(v)
                for obj in held if hasattr(obj, "__dict__")
                for v in vars(obj).values() if isinstance(v, (list, dict, tuple, set))
            )

        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        pot = TersoffProduction(tersoff_si(), cache=True)
        with ParallelEngine(system, pot, workers=2, ranks=2, executor="serial") as eng:
            eng.compute(system.x)
            after_one = retained(eng)
            for _ in range(200):
                eng.compute(system.x)
            assert eng.generation == 1
            assert retained(eng) == after_one
            assert eng.comm_total.messages == 2 * 201
            assert eng.calibrated_network() is not None
