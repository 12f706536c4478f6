"""Honest wall-clock benchmarks on *this* machine.

Separate from the modeled figures: these time the actual Python
implementations — the paper's Ref/Opt narrative retold in real seconds.
The scalar optimizations and the wide production path must deliver
measurable speedups here too (with very different magnitudes than on
SIMD silicon, of course: the production path's advantage is numpy
batching).
"""

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
    """Opt-D / Opt-S / Opt-M on the compiled scheme-1a kernel, one thread
    (EXPERIMENTS.md "Wall-clock on this machine"): both REAL
    instantiations run four lanes, so float buys cheaper divisions and
    pays for the conversions to the f64 accumulators — nothing else."""
    from repro import backends

    if not backends.is_available("compiled"):
        pytest.skip("compiled backend unavailable (no C toolchain)")
    params, system, neigh = big_workload
    pot = TersoffProduction(params, precision=precision, backend="compiled")
    pot.kernel.threads = 1
    pot.compute(system, neigh)  # build/load is warmup, not the measurement
    res = benchmark(pot.compute, system, neigh)
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
    res = benchmark(pot.compute, system, neigh)
    assert res.stats["backend"]["threads"] == threads


@pytest.mark.benchmark(group="wallclock-substrate")
def test_neighbor_build_wallclock(benchmark, big_workload):
    params, system, _ = big_workload
    def build():
        nl = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
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
@pytest.mark.parametrize("variant", ["fused", "loop"])
def test_segsum3_wallclock(benchmark, variant):
    """The fused segmented sum (one bincount over ``idx*3+axis``) against
    the per-axis loop that is its bitwise reference, triplet-sized input."""
    from repro.core.pipeline import idx3_of, segsum3, segsum3_loop

    rng = np.random.default_rng(7)
    t, n = 200_000, 4096
    idx = np.sort(rng.integers(0, n, size=t)).astype(np.int64)
    vec = rng.standard_normal((t, 3))
    if variant == "fused":
        out = benchmark(segsum3, idx, vec, n, idx3=idx3_of(idx))
    else:
        out = benchmark(segsum3_loop, idx, vec, n)
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
