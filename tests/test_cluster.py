"""Modeled cluster runs (the Fig. 8/9 machinery)."""

import pytest

from repro.parallel.cluster import ClusterSpec, DistributedRun
from repro.perf.machines import get_machine
from repro.perf.model import KernelProfile


def profile(mode="Opt-D", cycles=1500.0, width=4, isa="avx"):
    return KernelProfile(mode=mode, isa=isa, scheme="1a",
                         cycles_per_atom=cycles, utilization=1.0, width=width)


def dev_profile(cycles=600.0):
    return KernelProfile(mode="Opt-D", isa="imci", scheme="1b",
                         cycles_per_atom=cycles, utilization=1.0, width=8)


class TestClusterSpec:
    def test_rank_count(self):
        spec = ClusterSpec(get_machine("IV+2KNC"), n_nodes=4)
        assert spec.ranks == 4 * 16

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            ClusterSpec(get_machine("SB"), n_nodes=0)

    def test_rejects_too_many_accelerators(self):
        with pytest.raises(ValueError, match="accelerators"):
            ClusterSpec(get_machine("SB+KNC"), accelerators_per_node=2)


class TestCommTime:
    def test_single_node_no_interconnect_latency(self):
        spec1 = ClusterSpec(get_machine("SB"), n_nodes=1)
        run1 = DistributedRun(spec1)
        t1 = run1.comm_time(512_000)
        assert t1 > 0

    def test_multi_node_costs_more_per_rank_atom(self):
        m = get_machine("IV+2KNC")
        single = DistributedRun(ClusterSpec(m, n_nodes=1)).comm_time(256_000)
        multi = DistributedRun(ClusterSpec(m, n_nodes=2)).comm_time(512_000)
        # same atoms per rank, but some faces cross the IB fabric
        assert multi > single * 0.9

    def test_comm_grows_sublinearly_with_rank_atoms(self):
        run = DistributedRun(ClusterSpec(get_machine("SB"), n_nodes=1))
        t1 = run.comm_time(100_000)
        t8 = run.comm_time(800_000)
        assert t1 < t8 < 8 * t1  # surface scaling


class TestStepTime:
    def test_cpu_only(self):
        run = DistributedRun(ClusterSpec(get_machine("SB"), n_nodes=1))
        st = run.step_time(profile(), 512_000)
        assert st.total > 0 and st.comm > 0
        assert st.breakdown["nodes"] == 1

    def test_hybrid_beats_cpu_only(self):
        m = get_machine("IV+2KNC")
        cpu = DistributedRun(ClusterSpec(m, n_nodes=1))
        acc = DistributedRun(ClusterSpec(m, n_nodes=1, accelerators_per_node=2))
        t_cpu = cpu.step_time(profile(), 512_000).total
        t_acc = acc.step_time(profile(), 512_000, profile_device=dev_profile()).total
        assert t_acc < t_cpu

    def test_device_fraction_reported(self):
        m = get_machine("IV+2KNC")
        run = DistributedRun(ClusterSpec(m, n_nodes=1, accelerators_per_node=2))
        st = run.step_time(profile(), 512_000, profile_device=dev_profile())
        assert 0.0 < st.breakdown["device_fraction"] < 1.0
        assert st.offload > 0

    def test_strong_scaling_monotone(self):
        m = get_machine("IV+2KNC")
        rates = [DistributedRun(ClusterSpec(m, n_nodes=nodes)).ns_per_day(profile(), 2_000_000)
                 for nodes in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_scaling_efficiency_below_one(self):
        """Parallel efficiency must degrade (comm does not shrink
        linearly), but stay reasonable for 2M atoms."""
        m = get_machine("IV+2KNC")
        r1 = DistributedRun(ClusterSpec(m, n_nodes=1)).ns_per_day(profile(), 2_000_000)
        r8 = DistributedRun(ClusterSpec(m, n_nodes=8)).ns_per_day(profile(), 2_000_000)
        eff = r8 / (8 * r1)
        assert 0.5 < eff < 1.0

    def test_imbalance_slows_force(self):
        m = get_machine("SB")
        flat = DistributedRun(ClusterSpec(m, n_nodes=1, imbalance=1.0))
        skew = DistributedRun(ClusterSpec(m, n_nodes=1, imbalance=1.3))
        assert skew.step_time(profile(), 100_000).force > flat.step_time(profile(), 100_000).force
