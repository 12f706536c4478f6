"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation switches off one of the paper's optimizations and
measures the modelled-cycle consequence on the lane-faithful backend:

- Sec. IV-A: pre-calculated derivatives (kmax sweep; kmax=1 forces the
  fallback for almost every k);
- Sec. IV-C: fast-forwarding the K loop;
- Sec. IV-D: neighbor-list filtering;
- Sec. IV-B/V-A(3): conflict-detection hardware (AVX-512CD) vs
  serialized conflict writes;
- Sec. V-A(4): adjacent gathers vs scalar gather emulation (via the
  multi-species workload, where parameter gathers actually occur).
"""

import pytest

from conftest import si_workload as _si_workload
from repro.core.tersoff.parameters import tersoff_si, tersoff_sic
from repro.core.tersoff.vectorized import TersoffVectorized
from repro.md.lattice import diamond_lattice, perturbed, zincblende_sic
from repro.md.neighbor import NeighborList, NeighborSettings

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def si_workload():
    return _si_workload(4, seed=4)


def cycles(params, system, neigh, **options):
    pot = TersoffVectorized(params, **options)
    return pot.compute(system, neigh).stats


@pytest.mark.benchmark(group="ablation-fastforward")
@pytest.mark.parametrize("fast_forward", [True, False], ids=["ff-on", "ff-off"])
def test_ablate_fast_forward(benchmark, si_workload, fast_forward):
    params, system, neigh = si_workload
    stats = benchmark.pedantic(
        cycles, args=(params, system, neigh),
        kwargs=dict(isa="imci", precision="single", scheme="1b",
                    fast_forward=fast_forward, filter_neighbors=False),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["modeled_cycles"] = stats["cycles"]
    benchmark.extra_info["utilization"] = stats["utilization"]
    if fast_forward:
        assert stats["utilization"] > 0.9
    else:
        assert stats["utilization"] < 0.7


@pytest.mark.benchmark(group="ablation-filter")
@pytest.mark.parametrize("filter_neighbors", [True, False], ids=["filter-on", "filter-off"])
def test_ablate_neighbor_filter(benchmark, si_workload, filter_neighbors):
    params, system, neigh = si_workload
    stats = benchmark.pedantic(
        cycles, args=(params, system, neigh),
        kwargs=dict(isa="imci", scheme="1b", filter_neighbors=filter_neighbors),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["modeled_cycles"] = stats["cycles"]
    benchmark.extra_info["spin_iterations"] = stats["spin_iterations"]


def test_filter_saves_cycles(si_workload):
    """Sec. IV-D quantified: filtering must cut modelled cycles."""
    params, system, neigh = si_workload
    on = cycles(params, system, neigh, isa="imci", scheme="1b", filter_neighbors=True)
    off = cycles(params, system, neigh, isa="imci", scheme="1b", filter_neighbors=False)
    assert on["cycles"] < off["cycles"]
    assert on["spin_iterations"] < off["spin_iterations"]


@pytest.mark.benchmark(group="ablation-kmax")
@pytest.mark.parametrize("kmax", [1, 2, 4, 16])
def test_ablate_kmax(benchmark, si_workload, kmax):
    params, system, neigh = si_workload
    stats = benchmark.pedantic(
        cycles, args=(params, system, neigh),
        kwargs=dict(isa="imci", scheme="1b", kmax=kmax),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["modeled_cycles"] = stats["cycles"]


def test_kmax_fallback_costs_cycles(si_workload):
    """Undersizing the derivative scratch re-introduces the Algorithm 2
    recomputation for the overflow ks."""
    params, system, neigh = si_workload
    tight = cycles(params, system, neigh, isa="imci", scheme="1b", kmax=1)
    roomy = cycles(params, system, neigh, isa="imci", scheme="1b", kmax=16)
    assert tight["cycles"] > roomy["cycles"] * 1.2


def test_conflict_detection_ablation(si_workload):
    """AVX-512 vs IMCI at identical width: the conflict-detection
    scatters are the main cycle difference in scheme 1b."""
    params, system, neigh = si_workload
    imci = cycles(params, system, neigh, isa="imci", scheme="1b")
    avx512 = cycles(params, system, neigh, isa="avx512", scheme="1b")
    assert avx512["by_category"]["scatter_conflict"] == imci["by_category"]["scatter_conflict"]
    assert avx512["cycles"] < imci["cycles"]


def test_adjacent_gather_ablation():
    """Multi-species SiC makes the kernels gather parameters; on AVX
    (no native gather) those land in the adjacent-gather category."""
    params = tersoff_sic()
    system = perturbed(zincblende_sic(3, 3, 3), 0.08, seed=6)
    neigh = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    neigh.build(system.x, system.box)
    stats_avx = TersoffVectorized(params, isa="avx", scheme="1a").compute(system, neigh).stats
    assert stats_avx["by_category"].get("adjacent_gather", 0) > 0
    stats_avx2 = TersoffVectorized(params, isa="avx2", scheme="1a").compute(system, neigh).stats
    assert stats_avx2["by_category"].get("gather", 0) > 0
    assert stats_avx2["by_category"].get("adjacent_gather", 0) == 0

    # single-species Si hoists all parameter loads out of the loop
    params_si = tersoff_si()
    system_si = perturbed(diamond_lattice(3, 3, 3), 0.08, seed=7)
    neigh_si = NeighborList(NeighborSettings(cutoff=params_si.max_cutoff, skin=1.0))
    neigh_si.build(system_si.x, system_si.box)
    stats_si = TersoffVectorized(params_si, isa="avx", scheme="1a").compute(system_si, neigh_si).stats
    assert stats_si["by_category"].get("adjacent_gather", 0) == 0
