"""Multi-body potential family comparison (the Sec. I motivation).

The paper opens with the observation that multi-body potentials buy
accuracy at evaluation cost, and that their optimization is "largely
unexplored" compared to pair potentials.  This bench quantifies the
family on identical workloads: LJ (pair) vs Stillinger-Weber vs Tersoff
in wall-clock on this machine, plus the lane-level modeled-cycle
comparison of the two three-body kernels on the same ISA.
"""

import numpy as np
import pytest

from repro.core.sw import StillingerWeberProduction, StillingerWeberVectorized, sw_silicon
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.core.tersoff.vectorized import TersoffVectorized
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.pair_lj import LennardJones


@pytest.fixture(scope="module")
def workload():
    system = perturbed(diamond_lattice(6, 6, 6), 0.1, seed=8)  # 1728 atoms
    lists = {}
    for cutoff in (3.0, sw_silicon().cut):
        nl = NeighborList(NeighborSettings(cutoff=cutoff, skin=1.0))
        nl.build(system.x, system.box)
        lists[cutoff] = nl
    return system, lists


@pytest.mark.benchmark(group="family-wallclock")
def test_pair_lj_wallclock(benchmark, workload):
    system, lists = workload
    lj = LennardJones(0.07, 2.0951, cutoff=3.77, shift=True)
    lj.needs_full_list = True
    nl = lists[sw_silicon().cut]
    res = benchmark(lj.compute, system, nl)
    assert np.isfinite(res.energy)


@pytest.mark.benchmark(group="family-wallclock")
def test_stillinger_weber_wallclock(benchmark, workload):
    system, lists = workload
    pot = StillingerWeberProduction(sw_silicon())
    res = benchmark(pot.compute, system, lists[sw_silicon().cut])
    assert res.energy < 0


@pytest.mark.benchmark(group="family-wallclock")
def test_tersoff_wallclock(benchmark, workload):
    system, lists = workload
    pot = TersoffProduction(tersoff_si())
    res = benchmark(pot.compute, system, lists[3.0])
    assert res.energy < 0


@pytest.mark.benchmark(group="family-wallclock")
def test_stillinger_weber_md_step_wallclock(benchmark, workload):
    """One full SW timestep (the Tersoff step is ``test_md_step_wallclock``
    and the e2e ``simulation.step_p50_ms``)."""
    from repro.md.lattice import seeded_velocities
    from repro.md.simulation import Simulation

    system = workload[0].copy()
    seeded_velocities(system, 300.0, seed=3)
    sim = Simulation(system, StillingerWeberProduction(sw_silicon()),
                     neighbor=NeighborSettings(cutoff=sw_silicon().cut, skin=1.0))
    sim.compute_forces()
    benchmark(sim.run, 1)


def test_modeled_multibody_cost(workload):
    """On the lane backend both three-body kernels cost hundreds of
    cycles per atom — an order of magnitude above a pair kernel's
    ~20-40 — which is the paper's premise for vectorizing them.  (Their
    relative cost depends on cutoff-driven pair counts: SW's 3.77 A
    list catches the perturbed second shell, Tersoff's 3.0 A does not.)
    """
    system, lists = workload
    t = TersoffVectorized(tersoff_si(), isa="imci", scheme="1b").compute(system, lists[3.0])
    s = StillingerWeberVectorized(sw_silicon(), isa="imci").compute(system, lists[sw_silicon().cut])
    t_per_pair = t.stats["cycles"] / t.stats["pairs_in_cutoff"]
    s_per_pair = s.stats["cycles"] / s.stats["pairs_in_cutoff"]
    assert t_per_pair > 60 and s_per_pair > 60
    # Tersoff's bond-order coupling makes its per-interaction kernel the
    # pricier one once pair counts are normalized out
    assert t.stats["cycles"] / system.n > 100
    assert s.stats["cycles"] / system.n > 100
