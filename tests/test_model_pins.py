"""Exact pins on the deterministic modeled metrics.

Modeled cycles, lane utilisation, kernel invocations, spin iterations
and predicted ns/day carry no timer noise: any drift is a behavioural
change in the lane simulator or the cost model, so the values are
pinned exactly (integer-valued stats) or to float noise (ratios).
"""

import pytest

from conftest import build_list, needs_compiled
from repro.core.tersoff.production import TersoffProduction
from repro.core.tersoff.vectorized import TersoffVectorized
from repro.harness.experiments import PAPER_ATOMS, kernel_profile
from repro.md.lattice import diamond_lattice, perturbed
from repro.perf.machines import get_machine
from repro.perf.model import PerformanceModel

RTOL = 1e-6


@pytest.fixture(scope="module")
def workload(si_params):
    """216-atom perturbed diamond Si with a full (both-directions) list."""
    system = perturbed(diamond_lattice(3, 3, 3), 0.08, seed=3)
    return si_params, system, build_list(system, si_params.max_cutoff)


@pytest.mark.parametrize("scheme,isa,cycles,invocations,utilization", [
    ("1a", "avx", 332424, 1080, 0.8132387706855791),
    ("1b", "imci", 125388, 432, 1.0),
    ("1c", "cuda", 32970, 112, 0.9705852826021484),
], ids=["1a-avx", "1b-imci", "1c-cuda"])
def test_fig1_scheme_stats(workload, scheme, isa, cycles, invocations, utilization):
    params, system, neigh = workload
    stats = TersoffVectorized(params, isa=isa, scheme=scheme).compute(system, neigh).stats
    assert stats["cycles"] == cycles
    assert stats["kernel_invocations"] == invocations
    assert stats["utilization"] == pytest.approx(utilization, rel=RTOL)


@needs_compiled
def test_scheme_1a_simulation_meets_the_compiled_kernel(workload):
    """The model meets a measurement (ROADMAP 1(d)): the C kernel *is*
    scheme 1a on four double lanes, so the vector bodies it counts
    (K-loop + pair) equal what the lane simulator fires, exactly, and so
    does the share of their lanes doing a pair or a triplet.  Like is
    compared with like: the simulator's pinned `utilization` (0.8132)
    weights each lane by the instructions issued on it — the pair body
    issues more than a K body — while a real kernel can only count
    lanes, so the simulator reports the unweighted figure next to it."""
    params, system, neigh = workload
    sim = TersoffVectorized(params, isa="avx", scheme="1a").compute(system, neigh).stats
    res = TersoffProduction(params, backend="compiled").compute(system, neigh)
    measured = res.stats["backend"]
    pairs, triplets = res.stats["pairs_in_cutoff"], res.stats["triples"]
    assert sim["width"] == 4
    assert measured["kernel_invocations"] == sim["kernel_invocations"] == 1080
    assert measured["lane_occupancy"] == (pairs + triplets) / (4 * 1080) == 0.8
    assert sim["lane_occupancy"] == pytest.approx(measured["lane_occupancy"], rel=RTOL)
    assert sim["lane_occupancy"] < sim["utilization"]  # 0.800 unweighted, 0.813 weighted


@needs_compiled
@pytest.mark.parametrize("threads", [2, 3, 4])
def test_the_compiled_counters_hold_on_any_number_of_threads(workload, monkeypatch, threads):
    """Bodies and active lanes are counted per chunk of rows and added
    up: 216 atoms are four chunks for `threads` threads to claim."""
    from repro.backends import cext

    monkeypatch.setattr(cext, "THREAD_GRAIN", 1)
    params, system, neigh = workload
    pot = TersoffProduction(params, backend="compiled")
    pot.kernel.threads = threads
    measured = pot.compute(system, neigh).stats["backend"]
    assert measured["threads"] == threads
    assert (measured["kernel_invocations"], measured["lane_occupancy"]) == (1080, 0.8)


@pytest.mark.parametrize("fast_forward,filter_neighbors,cycles,spins,utilization", [
    (False, False, 160730, 0, 0.4165142877630777),
    (True, False, 103254, 1758, 1.0),
    (True, True, 75654, 378, 1.0),
], ids=["naive", "fast-forward", "fast-forward+filter"])
def test_fig2_masking_stats(workload, fast_forward, filter_neighbors, cycles, spins,
                            utilization):
    params, system, neigh = workload
    pot = TersoffVectorized(params, isa="imci", precision="single", scheme="1b",
                            fast_forward=fast_forward, filter_neighbors=filter_neighbors)
    stats = pot.compute(system, neigh).stats
    assert stats["cycles"] == cycles
    assert stats["spin_iterations"] == spins
    assert stats["utilization"] == pytest.approx(utilization, rel=RTOL)


@pytest.mark.parametrize("name,mode,ns_per_day", [
    ("WM", "Opt-D", 16.778215384615383),
    ("HW", "Opt-M", 68.49071560690864),
    ("KNL", "Opt-M", 118.82874322326266),
], ids=["WM-Opt-D", "HW-Opt-M", "KNL-Opt-M"])
def test_predicted_ns_per_day(name, mode, ns_per_day):
    machine = get_machine(name)
    step = PerformanceModel(machine).step_time(
        kernel_profile(mode, machine.isa), PAPER_ATOMS["fig4"], cores=machine.cores)
    assert step.ns_per_day() == pytest.approx(ns_per_day, rel=RTOL)
