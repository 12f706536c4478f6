"""Domain decomposition: the distributed computation must reproduce the
single-domain result, ghosts must be complete, traffic must be counted."""

import numpy as np
import pytest

from conftest import build_list, needs_compiled
from repro.backends import cext
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.pair_lj import LennardJones
from repro.parallel.comm import INTRA_NODE
from repro.parallel.decomposition import DomainDecomposition, _grid_for
from repro.parallel.engine import ParallelEngine
from repro.perf.model import halo_atoms_estimate
from repro.vector.backend import scatter_add_rows


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


def counting_cext(monkeypatch) -> list[str]:
    """Names of the extension's entry points called from now on."""
    calls: list[str] = []
    fns = cext.load()
    monkeypatch.setattr(cext, "load", lambda: {
        name: (lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        for name, fn in fns.items()})
    return calls


class TestReduceRows:
    """``md_reduce_rows`` (``_step.c``) behind `reduce_forces` is
    ``scatter_add_rows`` in C: the same sums in the same order, compared
    with ``tobytes()`` so that a signed zero counts."""

    @staticmethod
    def scatter_reduce(dd, blocks):
        out = np.zeros((dd.system.n, 3))
        for dom, block in zip(dd.domains, blocks):
            scatter_add_rows(out, dom.local_idx, block[: dom.local_idx.shape[0]])
        return out

    @staticmethod
    def blocks_for(dd, seed):
        """Rows of mixed magnitude (so that the order of the adds shows in
        the last bits), a fifth of them -0.0, one rank's block all -0.0,
        and spare rows past each rank's local count."""
        rng = np.random.default_rng(seed)
        blocks = []
        for dom in dd.domains:
            m = dom.local_idx.shape[0] + 5
            block = rng.standard_normal((m, 3)) * 10.0 ** rng.integers(-9, 9, size=(m, 3))
            block[rng.random((m, 3)) < 0.2] = -0.0
            blocks.append(block)
        blocks[-1][...] = -0.0
        return blocks

    @needs_compiled
    @pytest.mark.parametrize("n_ranks, grid", [
        (1, None), (2, None), (3, None), (4, None),
        (4, (4, 1, 1)),  # 5.43 A subdomains under a 6.0 A halo
    ])
    def test_bitwise_equal_to_scatter_add_rows(self, system, monkeypatch, n_ranks, grid):
        halo = 6.0 if grid else 4.2
        dd = DomainDecomposition(system, n_ranks, halo=halo, grid=grid)
        if grid:
            assert dd.sub_lengths[0] < halo
            assert all(dom.n_ghost > dom.n_owned for dom in dd.domains)
        blocks = self.blocks_for(dd, seed=n_ranks)
        calls = counting_cext(monkeypatch)
        out = np.full((system.n, 3), np.nan)
        got = dd.reduce_forces(blocks, out=out)
        assert got is out and calls == ["md_reduce_rows"]
        ref = self.scatter_reduce(dd, blocks)
        assert got.tobytes() == ref.tobytes()
        # an atom only -0.0 rows reach sums to +0.0, as np.add.at's does
        assert np.signbit(ref[ref == 0.0]).sum() == 0
        # the memoised arguments serve the next call on the same arrays
        for block in blocks:
            block *= -1.0
        assert dd.reduce_forces(blocks, out=out).tobytes() == self.scatter_reduce(
            dd, blocks).tobytes()

    @needs_compiled
    def test_workspace_and_refused_layouts(self, system, monkeypatch):
        """Without ``out=`` the workspace view, and a strided block or an
        out-of-range index takes the numpy body: the same bits or its error."""
        dd = DomainDecomposition(system, 2, halo=4.2)
        blocks = self.blocks_for(dd, seed=9)
        ref = self.scatter_reduce(dd, blocks)
        assert dd.reduce_forces(blocks).tobytes() == ref.tobytes()
        strided = [np.repeat(b, 2, axis=1)[:, ::2] for b in blocks]
        calls = counting_cext(monkeypatch)
        assert dd.reduce_forces(strided).tobytes() == ref.tobytes()
        assert calls == []
        dd.domains[1].local_idx[-1] = system.n
        with pytest.raises(IndexError):
            dd.reduce_forces(blocks)
        assert calls == ["md_reduce_rows"]


class TestSkinTestDecisions:
    @needs_compiled
    def test_c_and_numpy_redecompose_alike(self, monkeypatch):
        """The engine's redecomposition decisions from ``md_max_disp2``
        and from its numpy body agree on a trajectory that lands exactly on
        skin/2 (no rebuild), one ulp past it, diagonally and across the
        periodic boundary."""
        half = np.nextafter(0.5, 1.0)
        length = diamond_lattice(4, 4, 4).box.lengths[0]
        moves = [(0.0, 0.0, 0.0), (0.25, 0.0, 0.0), (0.5, 0.0, 0.0), (half, 0.0, 0.0),
                 (half, 0.3, 0.4), (half, -0.1, 0.0), (length - 0.5, 0.0, 0.0),
                 (-0.5, 0.0, 0.0), (np.nextafter(-0.5, -1.0), 0.0, 0.0), (0.3, 0.4, 0.0)]

        def decisions(numpy: bool) -> tuple[list[bool], list[str]]:
            with monkeypatch.context() as mp:
                calls = counting_cext(mp)
                if numpy:
                    mp.setattr(cext, "entry", lambda name: None)
                system = diamond_lattice(4, 4, 4)
                pot = TersoffProduction(tersoff_si(), backend="numpy")
                out = []
                with ParallelEngine(system, pot, workers=1, ranks=2, executor="serial") as eng:
                    for move in moves:
                        x = system.x.copy()
                        x[0] = move
                        out.append(eng.compute(x).redecomposed)
                return out, calls

        c, c_calls = decisions(numpy=False)
        ref, ref_calls = decisions(numpy=True)
        assert c == ref
        assert c[1:4] == [False, False, True]
        assert "md_max_disp2" in c_calls and "md_max_disp2" not in ref_calls
