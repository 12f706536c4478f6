"""Linear scaling in atom count — the premise that lets the harness
measure kernel statistics on a small replica and extrapolate to the
paper's 32k-2M atom workloads.

Wall-clock of the production solver across system sizes, the
modeled-cycle linearity assertion, the decomposed step's measured
strong/weak scaling (Fig. 9 measured, not modeled) and, on the compiled
kernel, the two ways to use a second core for the same atoms: threads
inside the kernel against a two-worker decomposition (ROADMAP 2(e))."""

import pytest

from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.core.tersoff.vectorized import TersoffVectorized
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.neighbor import NeighborList, NeighborSettings

SIZES = {2: 64, 4: 512, 6: 1728, 8: 4096}
#: (cells, workers): weak scaling at 16384 atoms per rank on 1/2/4, strong
#: at 65k atoms on 1/2/4 workers, then 262k and 10^6 atoms on 4
DECOMPOSED = [((16, 16, 8), 1), ((16, 16, 16), 2), ((16, 16, 32), 1), ((16, 16, 32), 2),
              ((16, 16, 32), 4), ((32, 32, 32), 4), ((50, 50, 50), 4)]


def make_workload(cells):
    params = tersoff_si()
    system = perturbed(diamond_lattice(cells, cells, cells), 0.1, seed=cells)
    nl = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    nl.build(system.x, system.box)
    return params, system, nl


@pytest.mark.benchmark(group="scaling-atoms")
@pytest.mark.parametrize("cells", sorted(SIZES), ids=lambda c: f"{SIZES[c]}atoms")
def test_production_scaling_wallclock(benchmark, cells):
    params, system, nl = make_workload(cells)
    pot = TersoffProduction(params)
    res = benchmark(pot.compute, system, nl)
    assert res.stats["pairs_in_cutoff"] >= 4 * system.n  # perturbation adds a few


@pytest.mark.slow
@pytest.mark.benchmark(group="scaling-decomposed")
@pytest.mark.parametrize("cells,workers", DECOMPOSED,
                         ids=[f"{8 * a * b * c}atoms-w{w}" for (a, b, c), w in DECOMPOSED])
def test_decomposed_scaling_wallclock(benchmark, cells, workers):
    from repro.md.lattice import seeded_velocities
    from repro.runtime import RunSpec, build_simulation

    system = perturbed(diamond_lattice(*cells), 0.05, seed=11)
    seeded_velocities(system, 300.0, seed=3)
    sim = build_simulation(RunSpec(workers=workers, ranks=workers), system)
    try:
        sim.compute_forces()
        benchmark.pedantic(sim.run, args=(1,), rounds=1, iterations=1)
        step, net = sim.engine.last_step, sim.engine.calibrated_network()
        fit = ("no fit" if net is None else
               f"alpha {net.latency_s * 1e6:.1f} us, beta {net.bandwidth_Bps / 1e6:.0f} MB/s")
        print(f"\n{system.n} atoms, {workers} workers: {benchmark.stats['mean']:.3f} s/step, "
              f"halo {step.bytes_forward} B forward / {step.bytes_reverse} B reverse, "
              f"comm {sim.engine.comm_total.time_s * 1e3:.1f} ms measured, {fit}")
    finally:
        sim.close()


#: ways to run the same atoms on this host: one process on one or on two
#: kernel threads, or two workers of one rank (and thread) each — under the
#: default process pool (fork + shared memory here), Python threads, or the
#: unix-socket pool (ROADMAP 2(e); EXPERIMENTS.md "Executors on one node")
SECOND_CORE = {"1-thread": {"threads": 1}, "2-threads": {"threads": 2},
               "2-workers": {"workers": 2, "ranks": 2, "executor": "process"},
               "2-workers-thread": {"workers": 2, "ranks": 2, "executor": "thread"},
               "2-workers-unix": {"workers": 2, "ranks": 2, "executor": "unix"}}


@pytest.mark.benchmark(group="scaling-second-core")
@pytest.mark.parametrize("how", sorted(SECOND_CORE))
@pytest.mark.parametrize("cells", [(8, 8, 8), (16, 16, 8)], ids=["4096atoms", "16384atoms"])
def test_threads_vs_decomposition_wallclock(benchmark, cells, how):
    """Whole MD steps, compiled `Opt-D`, 600 K: the kernel's share of the
    step is printed next to the step, so that what threads cannot reach —
    integrate, the skin test, Python glue — is a stated Amdahl fraction
    (EXPERIMENTS.md "Thread scaling")."""
    from repro import backends
    from repro.md.lattice import seeded_velocities
    from repro.host import usable_cores
    from repro.runtime import RunSpec, SolverSpec, build_simulation

    if not backends.is_available("compiled"):
        pytest.skip("compiled backend unavailable (no C toolchain)")
    setup = dict(SECOND_CORE[how])
    threads = setup.pop("threads", None)
    if usable_cores() < 2 and how != "1-thread":
        pytest.skip("one usable core: a second thread or worker would measure contention")
    system = diamond_lattice(*cells)
    seeded_velocities(system, 600.0, seed=3)
    spec = RunSpec(solver=SolverSpec(mode="Opt-D", backend="compiled"), **setup)
    sim = build_simulation(spec, system)
    try:
        if threads is not None:
            sim.potential.kernel.threads = threads
        sim.run(20)  # lists built, helper or workers warm
        steps, rounds, pair_before = 40, 5, sim.timers.pair
        benchmark.pedantic(sim.run, args=(steps,), rounds=rounds, iterations=1)
        step_ms = benchmark.stats["median"] / steps * 1e3
        kernel_ms = (sim.timers.pair - pair_before) / (steps * rounds) * 1e3
        print(f"\n{system.n} atoms, {how}: step {step_ms:.2f} ms, kernel {kernel_ms:.2f} ms "
              f"({kernel_ms / step_ms:.0%} of the step), "
              f"{system.n / step_ms * 1e3:.3g} atom-steps/s")
    finally:
        sim.close()


def test_modeled_cycles_linear():
    per_atom = {}
    for cells in (2, 6):
        params, system, nl = make_workload(cells)
        res = TersoffVectorized(params, isa="imci", scheme="1b").compute(system, nl)
        per_atom[system.n] = res.stats["cycles"] / system.n
    small, large = per_atom[64], per_atom[1728]
    assert large == pytest.approx(small, rel=0.08)


def test_neighbor_build_linear():
    import time

    params = tersoff_si()
    times = {}
    for cells in (6, 12):
        system = diamond_lattice(cells, cells, cells)
        nl = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
        t0 = time.perf_counter()
        for _ in range(3):
            nl.build(system.x, system.box)
        times[system.n] = (time.perf_counter() - t0) / 3
    # 8x the atoms must cost clearly less than O(N^2) would (64x);
    # allow generous slack for constant overheads
    assert times[13824] / times[1728] < 20.0
