"""Staged-pipeline equivalence against the frozen pre-refactor code.

Tersoff and SW run on :mod:`repro.core.pipeline`; the vectorized LJ is
a plain lane simulator again.  The contract is *bitwise* preservation:
for every precision, cold or cached, across neighbor-list rebuilds and
cutoff-mask drift, they must reproduce the frozen seed implementations
(:mod:`legacy_frozen`) exactly — energy, forces, virial, virial tensor
and per-atom energy.
"""

import copy
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import needs_compiled
from legacy_frozen import (
    LegacyLennardJonesVectorized,
    LegacyStillingerWeberProduction,
    LegacyTersoffProduction,
)
from repro.core.pipeline import Workspace
from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si, tersoff_sic
from repro.core.tersoff.production import TersoffProduction
from repro.md.lattice import diamond_lattice, perturbed, zincblende_sic
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.pair_lj_vectorized import LennardJonesVectorized

PRECISIONS = ["double", "single", "mixed"]


def _run_sequence(pot, make_workload):
    """Run `pot` over the canonical drift sequence, rebuilding the list
    at the same steps, and return the per-step ForceResults."""
    system, cutoff, skin = make_workload()
    neigh = NeighborList(NeighborSettings(cutoff=cutoff, skin=skin))
    neigh.build(system.x, system.box)
    rng = np.random.default_rng(5)
    results = []
    rebuilds = 0
    for step in range(12):
        system.x += rng.normal(scale=0.01, size=system.x.shape)
        if step in (3, 7, 10):
            system.x[7] += 0.9
            neigh.build(system.x, system.box)
            rebuilds += 1
        results.append(pot.compute(system, neigh))
    assert rebuilds == 3
    return results


def _si_workload():
    params = tersoff_si()
    return perturbed(diamond_lattice(3, 3, 3), 0.08, seed=11), params.max_cutoff, 0.6


def _sic_workload():
    params = tersoff_sic()
    return perturbed(zincblende_sic(2, 2, 2), 0.08, seed=13), params.max_cutoff, 0.6


def _sw_workload():
    params = sw_silicon()
    return perturbed(diamond_lattice(3, 3, 3), 0.08, seed=11), params.cut, 0.6


def _lj_workload():
    return perturbed(diamond_lattice(3, 3, 3), 0.1, seed=44), 4.2, 0.8


def _assert_bitwise(new, old, *, tensor=True, per_atom=True):
    assert len(new) == len(old)
    for res_new, res_old in zip(new, old):
        assert res_new.energy == res_old.energy
        assert np.array_equal(res_new.forces, res_old.forces)
        assert res_new.virial == res_old.virial
        if tensor:
            assert np.array_equal(
                res_new.stats["virial_tensor"], res_old.stats["virial_tensor"]
            )
        if per_atom:
            assert np.array_equal(
                res_new.stats["per_atom_energy"], res_old.stats["per_atom_energy"]
            )


class TestTersoffFrozen:
    """Tersoff through the pipeline vs the frozen seed production path,
    which is the numpy kernel: the oracle is named, not defaulted."""

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("cache", [True, False])
    def test_si_bitwise(self, precision, cache):
        params = tersoff_si()
        new = _run_sequence(
            TersoffProduction(params, precision=precision, cache=cache, backend="numpy"),
            _si_workload,
        )
        old = _run_sequence(
            LegacyTersoffProduction(params, precision=precision, cache=cache),
            _si_workload,
        )
        _assert_bitwise(new, old)

    def test_sic_multispecies_bitwise(self):
        params = tersoff_sic()
        new = _run_sequence(TersoffProduction(params, precision="mixed", backend="numpy"),
                            _sic_workload)
        old = _run_sequence(
            LegacyTersoffProduction(params, precision="mixed"), _sic_workload
        )
        _assert_bitwise(new, old)

    def test_cache_exercised(self):
        """The sequence must actually hit, miss and invalidate — a
        battery that only ever staged cold would prove nothing."""
        pot = TersoffProduction(tersoff_si(), cache=True, backend="numpy")
        _run_sequence(pot, _si_workload)
        stats = pot.cache_stats
        assert stats.hits > 0
        assert stats.invalidations >= 3
        assert stats.calls == 12


class TestSWFrozen:
    """SW through the pipeline vs the frozen seed implementation."""

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("cache", [True, False])
    def test_bitwise(self, precision, cache):
        params = sw_silicon()
        new = _run_sequence(
            StillingerWeberProduction(params, precision=precision, cache=cache, backend="numpy"),
            _sw_workload,
        )
        old = _run_sequence(
            LegacyStillingerWeberProduction(params, precision=precision), _sw_workload
        )
        # the legacy SW predates the stats contract: no tensor/per-atom
        _assert_bitwise(new, old, tensor=False, per_atom=False)
        for res_new, res_old in zip(new, old):
            assert res_new.stats["pairs_in_cutoff"] == res_old.stats["pairs_in_cutoff"]
            assert res_new.stats["triples"] == res_old.stats["triples"]

    def test_cache_on_off_bitwise(self):
        params = sw_silicon()
        on = _run_sequence(StillingerWeberProduction(params, cache=True, backend="numpy"),
                           _sw_workload)
        off = _run_sequence(StillingerWeberProduction(params, cache=False, backend="numpy"),
                            _sw_workload)
        _assert_bitwise(on, off)


class TestLJFrozen:
    """The vectorized LJ lane simulator vs the frozen seed code."""

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("isa", ["avx2", "imci"])
    @pytest.mark.parametrize("reuse", [True, False])
    def test_bitwise(self, precision, isa, reuse):
        """`reuse`: one instance over the whole sequence, or a fresh one
        per step — a lane simulator carries nothing between calls."""

        def make():
            return LennardJonesVectorized(0.07, 2.0951, 4.2, isa=isa, precision=precision)

        pot = make() if reuse else SimpleNamespace(compute=lambda s, n: make().compute(s, n))
        new = _run_sequence(pot, _lj_workload)
        old = _run_sequence(
            LegacyLennardJonesVectorized(0.07, 2.0951, 4.2, isa=isa, precision=precision),
            _lj_workload,
        )
        _assert_bitwise(new, old, tensor=False, per_atom=False)
        for res_new, res_old in zip(new, old):
            # the modeled-cost statistics are part of the contrast
            # experiment; the refactor must not perturb them either
            assert res_new.stats["cycles"] == res_old.stats["cycles"]
            assert res_new.stats["pairs_in_cutoff"] == res_old.stats["pairs_in_cutoff"]


class TestWorkspaceTravelsEmpty:
    """Scratch is overwritten before it is read, so a copy of its owner
    — pickled to a spawn/socket worker, deep-copied per engine rank —
    starts with an empty arena, like `InteractionCache`."""

    def test_pickle_and_deepcopy_start_a_fresh_arena(self):
        ws = Workspace()
        ws.buf("partial", (1000, 3), np.float64)
        assert (ws.nbytes, ws.grow_events) == (24000, 1)
        for clone in (pickle.loads(pickle.dumps(ws)), copy.deepcopy(ws)):
            assert (clone.nbytes, clone.grow_events) == (0, 0)
            assert clone.buf("partial", 4, np.float64).shape == (4,)
        assert (ws.nbytes, ws.grow_events) == (24000, 1)  # the original keeps its own

    @needs_compiled
    def test_warmed_compiled_potential_travels_as_light_as_a_cold_one(self):
        params = tersoff_si()
        system, cutoff, skin = _si_workload()
        neigh = NeighborList(NeighborSettings(cutoff=cutoff, skin=skin))
        neigh.build(system.x, system.box)
        pot = TersoffProduction(params, backend="compiled")
        cold = len(pickle.dumps(pot))
        ref = pot.compute(system, neigh)
        assert pot.kernel._inner[4].nbytes == 24 * pot.kernel._inner[1].size  # a partial per entry
        assert len(pickle.dumps(pot)) < cold + 64
        for clone in (pickle.loads(pickle.dumps(pot)), copy.deepcopy(pot)):
            assert clone.kernel._ws.nbytes == 0 and clone.kernel._inner is None
            res = clone.compute(system, neigh)
            assert res.energy == ref.energy and np.array_equal(res.forces, ref.forces)
