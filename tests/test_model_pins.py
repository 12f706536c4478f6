"""Exact pins on the deterministic modeled metrics.

Modeled cycles, lane utilisation, kernel invocations, spin iterations
and predicted ns/day carry no timer noise: any drift is a behavioural
change in the lane simulator or the cost model, so the values are
pinned exactly (integer-valued stats) or to float noise (ratios).
"""

import pytest

from conftest import build_list, needs_compiled
from repro.backends import cext
from repro.core.tersoff.parameters import tersoff_si
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


def _meet_the_simulator(workload, threads=1):
    """The C kernel's bodies, lane occupancy and spins against the lane
    simulator of scheme 1b at the width that ran, in double and mixed, on
    `workload` and on the committed a-Si fixture of test_invariants.py."""
    from test_invariants import cell

    lanes = cext.build_info()["kernels"]["tersoff"]["lanes"]
    isa = {2: "sse4.2", 4: "avx2", 8: "avx512"}[lanes["f64"]]
    si, a_si = tersoff_si(), cell("Si")
    for params, system, neigh in (workload, (si, a_si, build_list(a_si, si.max_cutoff))):
        for precision, suffix in (("double", "f64"), ("mixed", "f32")):
            sim = TersoffVectorized(params, isa=isa, precision=precision, scheme="1b",
                                    fast_forward=True, filter_neighbors=True)
            sim = sim.compute(system, neigh).stats
            pot = TersoffProduction(params, precision=precision, backend="compiled")
            pot.kernel.threads = threads
            res = pot.compute(system, neigh)
            measured = res.stats["backend"]
            assert measured["threads"] == threads and sim["width"] == lanes[suffix]
            assert res.stats["pairs_in_cutoff"] == sim["pairs_in_cutoff"]
            for key in ("kernel_invocations", "spin_iterations"):
                assert measured[key] == sim[key], key
            assert measured["lane_occupancy"] == pytest.approx(sim["lane_occupancy"], rel=RTOL)


@needs_compiled
def test_scheme_1b_simulation_meets_the_compiled_kernel(workload):
    """The model meets a measurement (ROADMAP 1(b)): the C kernel *is*
    scheme 1b at the width of its build — a chunk's pairs across the
    lanes, each lane on its own K list — so the vector bodies it counts
    (K step + pair), the share of their lanes doing a pair or a triplet
    and the fast-forward spins its staging stands for equal what the lane
    simulator fires, exactly, on the 216-atom crystal and on the a-Si
    fixture, whose rows carry 3-6 pairs and so pack across rows."""
    _meet_the_simulator(workload)


@needs_compiled
@pytest.mark.parametrize("threads", [2, 3, 4])
def test_the_compiled_counters_hold_on_any_number_of_threads(workload, monkeypatch, threads):
    """Bodies, active lanes and spins are counted per chunk of rows and
    added up: 216 atoms are four chunks for `threads` threads to claim."""
    monkeypatch.setattr(cext, "THREAD_GRAIN", 1)
    _meet_the_simulator(workload, threads)


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
