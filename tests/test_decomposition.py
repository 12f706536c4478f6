"""Domain decomposition: the distributed computation must reproduce the
single-domain result, ghosts must be complete, traffic must be counted."""

import numpy as np
import pytest

from conftest import build_list
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.pair_lj import LennardJones
from repro.parallel.comm import INTRA_NODE
from repro.parallel.decomposition import DomainDecomposition, _grid_for
from repro.perf.model import halo_atoms_estimate


@pytest.fixture(scope="module")
def system():
    return perturbed(diamond_lattice(4, 4, 4), 0.12, seed=13)  # 512 atoms


@pytest.fixture(scope="module")
def serial_result(system):
    params = tersoff_si()
    pot = TersoffProduction(params)
    nl = build_list(system, params.max_cutoff)
    return pot.compute(system, nl)


class TestGrid:
    def test_near_cubic(self):
        assert sorted(_grid_for(8)) == [2, 2, 2]
        assert sorted(_grid_for(4)) == [1, 2, 2]
        assert _grid_for(1) == (1, 1, 1)
        assert sorted(_grid_for(12)) == [2, 2, 3]

    def test_grid_must_match_ranks(self, system):
        with pytest.raises(ValueError, match="does not have"):
            DomainDecomposition(system, 4, halo=4.0, grid=(1, 1, 3))

    def test_rejects_bad_args(self, system):
        with pytest.raises(ValueError):
            DomainDecomposition(system, 0, halo=4.0)
        with pytest.raises(ValueError):
            DomainDecomposition(system, 2, halo=-1.0)


class TestPartition:
    def test_owned_atoms_partition_exactly(self, system):
        dd = DomainDecomposition(system, 8, halo=4.0)
        all_owned = np.concatenate([d.owned_idx for d in dd.domains])
        assert np.array_equal(np.sort(all_owned), np.arange(system.n))

    def test_ghosts_disjoint_from_owned(self, system):
        dd = DomainDecomposition(system, 8, halo=4.0)
        for d in dd.domains:
            assert not set(d.owned_idx.tolist()) & set(d.ghost_idx.tolist())

    def test_ghost_completeness(self, system):
        """Every atom within `halo` of an owned atom is locally present."""
        halo = 4.0
        dd = DomainDecomposition(system, 8, halo=halo)
        for d in dd.domains:
            local = set(d.owned_idx.tolist()) | set(d.ghost_idx.tolist())
            for i in d.owned_idx[:8]:  # spot check
                dist = system.box.distance(system.x[i][None, :], system.x)
                needed = np.nonzero(dist <= halo - 1e-9)[0]
                missing = set(needed.tolist()) - local
                assert not missing, f"rank {d.rank} misses neighbors of atom {i}"

    def test_single_rank_has_no_ghosts(self, system):
        dd = DomainDecomposition(system, 1, halo=4.0)
        assert dd.domains[0].n_ghost == 0
        assert dd.domains[0].n_owned == system.n

    def test_workload_summary(self, system):
        dd = DomainDecomposition(system, 8, halo=4.0)
        ws = dd.workload_summary()
        assert ws["owned_mean"] == pytest.approx(system.n / 8)
        assert ws["imbalance"] >= 1.0
        assert ws["ghost_mean"] > 0


class TestDistributedForces:
    @pytest.mark.parametrize("n_ranks", [2, 4, 8])
    def test_tersoff_matches_serial(self, system, serial_result, n_ranks):
        params = tersoff_si()
        pot = TersoffProduction(params)
        dd = DomainDecomposition(system, n_ranks, halo=params.max_cutoff + 1.0)
        energy, forces, _ = dd.compute_forces(pot, skin=1.0)
        assert energy == pytest.approx(serial_result.energy, rel=1e-10)
        assert np.max(np.abs(forces - serial_result.forces)) < 1e-9

    def test_lj_matches_serial(self, system):
        lj = LennardJones(0.01, 2.2, cutoff=4.0, shift=True)
        lj.needs_full_list = True
        nl = build_list(system, 4.0)
        serial = lj.compute(system, nl)
        dd = DomainDecomposition(system, 4, halo=5.0)
        energy, forces, _ = dd.compute_forces(lj, skin=1.0)
        assert energy == pytest.approx(serial.energy, rel=1e-10)
        assert np.max(np.abs(forces - serial.forces)) < 1e-10

    def test_per_rank_results_returned(self, system):
        params = tersoff_si()
        dd = DomainDecomposition(system, 4, halo=4.0)
        _, _, results = dd.compute_forces(TersoffProduction(params))
        assert len(results) == 4
        assert all(r.stats["pairs_in_cutoff"] > 0 for r in results)


class TestTraffic:
    def test_forward_and_reverse_recorded(self, system):
        dd = DomainDecomposition(system, 8, halo=4.0)
        fwd = dd.forward_comm(INTRA_NODE)
        rev = dd.reverse_comm(INTRA_NODE)
        assert all(r.messages > 0 for r in fwd)
        assert all(r.time_s > 0 for r in fwd)
        # forward messages carry more bytes per atom than reverse
        assert sum(r.bytes for r in fwd) > sum(r.bytes for r in rev)

    def test_halo_estimate_matches_measured(self):
        """The analytic ghost-count estimator used by the performance
        model must agree with the real decomposition within ~25%."""
        system = diamond_lattice(6, 6, 6)  # 1728 atoms
        halo = 4.0
        dd = DomainDecomposition(system, 8, halo=halo)
        measured = np.mean([d.n_ghost for d in dd.domains])
        estimate = halo_atoms_estimate(system.n / 8, halo)
        assert estimate == pytest.approx(measured, rel=0.25)
