"""Honest wall-clock benchmarks on *this* machine.

Separate from the modeled figures: these time the actual Python
implementations — the paper's Ref/Opt narrative retold in real seconds.
The scalar optimizations and the wide production path must deliver
measurable speedups here too (with very different magnitudes than on
SIMD silicon, of course: the production path's advantage is numpy
batching).
"""

import itertools

import numpy as np
import pytest

from conftest import si_workload
from repro.core.tersoff.optimized import TersoffOptimized
from repro.core.tersoff.production import TersoffProduction
from repro.core.tersoff.reference import TersoffReference
from repro.md.neighbor import NeighborList, NeighborSettings

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def workload():
    return si_workload(2)


@pytest.fixture(scope="module")
def big_workload():
    return si_workload(8, seed=2)  # 4096 atoms


def drifting(pot, system, neigh, frames=40):
    """``pot.compute`` as an MD list lives: call k gets a fresh copy of
    `system`, every atom moved along one seeded uniform displacement of up
    to 0.28 A per axis times (k + 1) / `frames` (under half the 1.0 A skin,
    so `neigh` stays valid), cycling.  Each call is then an MD step's, the
    atoms drifting away from where the list (and the kernel's inner list)
    last saw them, on a new position buffer, as every serve request brings
    one.  Calls on one unmoved frame would time the filter's best case
    instead; independent displacements per frame would make every late
    call re-derive the inner list."""
    drift = np.random.default_rng(7).uniform(-1.0, 1.0, system.x.shape) * 0.28
    moved = [system.copy() for _ in range(frames)]
    for k, frame in enumerate(moved):
        frame.x += drift * (k + 1) / frames
    cycle = itertools.cycle(moved)
    return lambda: pot.compute(next(cycle), neigh)


@pytest.mark.benchmark(group="wallclock-64atoms")
def test_reference_wallclock(benchmark, workload):
    params, system, neigh = workload
    pot = TersoffReference(params)
    res = benchmark(pot.compute, system, neigh)
    assert res.energy < 0


@pytest.mark.benchmark(group="wallclock-64atoms")
def test_optimized_scalar_wallclock(benchmark, workload):
    params, system, neigh = workload
    pot = TersoffOptimized(params, kmax=8)
    res = benchmark(pot.compute, system, neigh)
    assert res.energy < 0


@pytest.mark.benchmark(group="wallclock-64atoms")
def test_production_wallclock(benchmark, workload):
    params, system, neigh = workload
    pot = TersoffProduction(params)
    res = benchmark(pot.compute, system, neigh)
    assert res.energy < 0


@pytest.mark.slow
@pytest.mark.benchmark(group="wallclock-4096atoms")
@pytest.mark.parametrize("precision", ["double", "single", "mixed"])
def test_production_precisions_wallclock(benchmark, big_workload, precision):
    params, system, neigh = big_workload
    pot = TersoffProduction(params, precision=precision)
    res = benchmark(pot.compute, system, neigh)
    assert np.isfinite(res.energy)


@pytest.mark.benchmark(group="wallclock-4096atoms")
@pytest.mark.parametrize("precision", ["double", "single", "mixed"])
def test_compiled_precisions_wallclock(benchmark, big_workload, precision):
    """Opt-D / Opt-S / Opt-M on the compiled scheme-1b kernel, one thread
    (EXPERIMENTS.md "Wall-clock on this machine"): each REAL fills the
    build's widest register (8 f64 / 16 f32 lanes with AVX-512), so float
    packs twice the pairs per vector and pays for the conversions to the
    f64 accumulators."""
    from repro import backends

    if not backends.is_available("compiled"):
        pytest.skip("compiled backend unavailable (no C toolchain)")
    params, system, neigh = big_workload
    pot = TersoffProduction(params, precision=precision, backend="compiled")
    pot.kernel.threads = 1
    pot.compute(system, neigh)  # build/load is warmup, not the measurement
    res = benchmark(drifting(pot, system, neigh))
    assert np.isfinite(res.energy)


@pytest.mark.benchmark(group="wallclock-4096atoms")
@pytest.mark.parametrize("threads", [1, 2])
def test_compiled_threads_wallclock(benchmark, big_workload, threads):
    """Opt-D on one and on two threads of the kernel's pool (EXPERIMENTS.md
    "Thread scaling"): the same bits, the I loop claimed in chunks of 64
    rows.  Back-to-back calls keep the helper polling, as an MD run does."""
    from repro import backends
    from repro.host import usable_cores

    if not backends.is_available("compiled"):
        pytest.skip("compiled backend unavailable (no C toolchain)")
    if threads > usable_cores():
        pytest.skip(f"{usable_cores()} usable cores: {threads} threads would measure contention")
    params, system, neigh = big_workload
    pot = TersoffProduction(params, backend="compiled")
    pot.kernel.threads = threads
    pot.compute(system, neigh)
    res = benchmark(drifting(pot, system, neigh))
    assert res.stats["backend"]["threads"] == threads


@pytest.mark.benchmark(group="wallclock-16384atoms")
def test_compiled_gather_wallclock(benchmark):
    """Opt-D on one thread on 16 384 atoms (16x16x8 cells), where sweep 1
    has pushed the partial forces out of L2 before sweep 2 gathers them
    (the call on which the gather's prefetch measured no gain)."""
    from repro import backends
    from repro.core.tersoff.parameters import tersoff_si
    from repro.md.lattice import diamond_lattice, perturbed

    if not backends.is_available("compiled"):
        pytest.skip("compiled backend unavailable (no C toolchain)")
    params = tersoff_si()
    system = perturbed(diamond_lattice(16, 16, 8), 0.1, seed=2)
    neigh = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    neigh.build(system.x, system.box)
    pot = TersoffProduction(params, backend="compiled")
    pot.kernel.threads = 1
    pot.compute(system, neigh)  # build/load is warmup, not the measurement
    res = benchmark(drifting(pot, system, neigh))
    assert res.stats["backend"]["threads"] == 1


@pytest.mark.benchmark(group="wallclock-4096atoms")
@pytest.mark.parametrize("precision", ["double", "single"])
def test_compiled_sw_wallclock(benchmark, big_workload, precision):
    """Stillinger-Weber's f64 and f32 kernels on one thread: the same list
    walker as Tersoff (filter, sweeps, reductions) under a scheme-1a body
    on four lanes, so a walker change shows here in one command."""
    from repro import backends
    from repro.core.sw import StillingerWeberProduction, sw_silicon

    if not backends.is_available("compiled"):
        pytest.skip("compiled backend unavailable (no C toolchain)")
    _, system, _ = big_workload
    params = sw_silicon()
    neigh = NeighborList(NeighborSettings(cutoff=params.cut, skin=1.0))
    neigh.build(system.x, system.box)
    pot = StillingerWeberProduction(params, precision=precision, backend="compiled")
    pot.kernel.threads = 1
    pot.compute(system, neigh)  # build/load is warmup, not the measurement
    res = benchmark(drifting(pot, system, neigh))
    assert np.isfinite(res.energy)


@pytest.mark.benchmark(group="wallclock-substrate")
@pytest.mark.parametrize("cells, skin, threads", [((8, 8, 8), 1.0, None), ((8, 8, 4), 0.5, 1)],
                         ids=["4096-skin1.0", "2048-skin0.5-1thread"])
def test_neighbor_build_wallclock(benchmark, big_workload, cells, skin, threads):
    """The list build: the 4096-atom cell on every usable core, and ROADMAP
    21's acceptance case, a 2048-atom 8x8x4 cell at skin 0.5 on one thread."""
    from repro.md.lattice import diamond_lattice, perturbed

    params, system, _ = big_workload
    if cells != (8, 8, 8):
        system = perturbed(diamond_lattice(*cells), 0.1, seed=2)
    def build():
        nl = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=skin))
        nl.threads = threads
        nl.build(system.x, system.box)
        return nl
    nl = benchmark(build)
    assert nl.n_pairs > 0


@pytest.mark.benchmark(group="wallclock-substrate")
def test_md_step_wallclock(benchmark, big_workload):
    from repro.md.lattice import seeded_velocities
    from repro.md.simulation import Simulation

    params, system, _ = big_workload
    sys2 = system.copy()
    seeded_velocities(sys2, 300.0, seed=3)
    sim = Simulation(sys2, TersoffProduction(params),
                     neighbor=NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    sim.compute_forces()
    benchmark(sim.run, 1)


@pytest.mark.benchmark(group="wallclock-segsum3")
def test_segsum3_wallclock(benchmark):
    """The fused segmented sum (one bincount over ``idx*3+axis``) on a
    triplet-sized input."""
    from repro.core.pipeline import idx3_of, segsum3

    rng = np.random.default_rng(7)
    t, n = 200_000, 4096
    idx = np.sort(rng.integers(0, n, size=t)).astype(np.int64)
    vec = rng.standard_normal((t, 3))
    out = benchmark(segsum3, idx, vec, n, idx3=idx3_of(idx))
    assert out.shape == (n, 3)


def test_production_beats_reference(workload):
    """The headline wall-clock claim: the batched path is dramatically
    faster than the per-atom loop on identical work."""
    import time

    params, system, neigh = workload
    ref = TersoffReference(params)
    prod = TersoffProduction(params)
    t0 = time.perf_counter()
    r_ref = ref.compute(system, neigh)
    t_ref = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(5):
        r_prod = prod.compute(system, neigh)
    t_prod = (time.perf_counter() - t0) / 5
    assert abs(r_ref.energy - r_prod.energy) < 1e-8
    assert t_ref / t_prod > 5.0, f"expected >5x, got {t_ref / t_prod:.1f}x"
