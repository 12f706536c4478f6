"""Interaction cache: bit-for-bit equivalence to the cold path across
neighbor rebuilds, workspace reuse, fused segmented sums, and the
observability counters.

The central property (and the reason the cache is safe to ship on by
default): for any trajectory — including ones that cross ≥3 neighbor
rebuild boundaries and drift pairs across cutoff masks — the cached
path must produce *identical bits* to staging from scratch, in every
precision mode.  Every kernel is handed the cached L1/L2 list and
filters it itself; the staging and invalidation tests name the numpy
backend, whose filter runs from fresh masks in numpy, and the compiled
kernel (the default where it loads) is held to the same property by
:class:`TestListKernelStaging`.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import build_list, make_cluster, needs_compiled
from repro.core.pipeline import (
    CacheStats,
    Workspace,
    idx3_of,
    segsum3,
    segsum3_loop,
)
from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si, tersoff_sic
from repro.core.tersoff.production import TersoffProduction
from repro.md.lattice import diamond_lattice, perturbed, zincblende_sic
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.simulation import Simulation


def _drift(system, nl, n_steps, *, seed, kick_every=6):
    """Yield the system after deterministic per-step displacements.

    Small Gaussian drifts keep the list valid (cache hits); every
    `kick_every` steps one atom is shoved past skin/2 to force a
    rebuild (cache invalidation).
    """
    rng = np.random.default_rng(seed)
    for step in range(n_steps):
        system.x += rng.normal(scale=0.015, size=system.x.shape)
        if step and step % kick_every == 0:
            system.x[step % system.n] += 0.45 * (nl.settings.skin + 0.4)
        nl.ensure(system.x, system.box)
        yield step


class TestBitForBitEquivalence:
    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    def test_equal_across_rebuilds(self, precision):
        """Cached forces/energy/virial are bitwise equal to the cold
        path over a trajectory crossing >= 3 rebuild boundaries."""
        params = tersoff_si()
        system = perturbed(diamond_lattice(2, 2, 2), 0.12, seed=11)
        nl = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=0.6))
        nl.build(system.x, system.box)
        cached = TersoffProduction(params, precision=precision, cache=True, backend="numpy")
        cold = TersoffProduction(params, precision=precision, cache=False, backend="numpy")

        builds0 = nl.n_builds
        for _ in _drift(system, nl, 22, seed=13):
            rc = cached.compute(system, nl)
            rf = cold.compute(system, nl)
            assert rc.energy == rf.energy
            assert np.array_equal(rc.forces, rf.forces)
            assert rc.virial == rf.virial
            assert np.array_equal(
                rc.stats["per_atom_energy"], rf.stats["per_atom_energy"]
            )
        rebuilds = nl.n_builds - builds0
        stats = cached.cache_stats
        assert rebuilds >= 3, "trajectory must cross >= 3 rebuild boundaries"
        assert stats.invalidations >= rebuilds
        assert stats.hits >= 1, "trajectory must exercise the hit path"
        assert stats.calls == 22

    def test_equal_multi_species(self):
        """Two-species SiC: pair_flat / triplet parameter gathers differ
        per entry, so cache reuse must respect the type staging."""
        params = tersoff_sic()
        system = perturbed(zincblende_sic(2, 2, 2), 0.10, seed=17)
        nl = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=0.6))
        nl.build(system.x, system.box)
        cached = TersoffProduction(params, cache=True, backend="numpy")
        cold = TersoffProduction(params, cache=False, backend="numpy")
        for _ in _drift(system, nl, 10, seed=19, kick_every=4):
            rc = cached.compute(system, nl)
            rf = cold.compute(system, nl)
            assert rc.energy == rf.energy
            assert np.array_equal(rc.forces, rf.forces)

    def test_mask_drift_restages_not_stale(self):
        """Moving one atom across the cutoff boundary *without* a list
        rebuild re-stages the filtered pairs from the fresh masks (the
        list and types are still an L1/L2 hit), never stale topology."""
        params = tersoff_si()
        system = make_cluster(8, seed=23, spread=2.3)
        nl = build_list(system, params.max_cutoff, skin=4.5, brute=True)
        cached = TersoffProduction(params, cache=True, backend="numpy")
        cold = TersoffProduction(params, cache=False, backend="numpy")
        cached.compute(system, nl)  # cold start: invalidation

        # push an atom out beyond the cutoff but within cutoff+skin
        # (list still valid -> same version; pair mask changes)
        system.x[0] += np.array([2.0, 0.0, 0.0])
        assert not nl.needs_rebuild(system.x)
        rc = cached.compute(system, nl)
        rf = cold.compute(system, nl)
        assert rc.energy == rf.energy
        assert np.array_equal(rc.forces, rf.forces)
        assert rc.stats["pairs_in_cutoff"] == rf.stats["pairs_in_cutoff"]
        assert cached.cache_stats.last_event == "hit"

    def test_empty_pair_set_cached(self):
        """No pair in range runs the general path: exact zeros, the full
        stats contract and no RuntimeWarning (an error under pytest)."""
        s = make_cluster(2, seed=31, spread=8.0, min_sep=6.0)
        for potential, params in ((TersoffProduction, tersoff_si()),
                                  (StillingerWeberProduction, sw_silicon())):
            nl = build_list(s, params.max_cutoff, brute=True)
            pot = potential(params, cache=True, backend="numpy")
            for _ in range(2):
                res = pot.compute(s, nl)
                assert res.energy == 0.0 and res.virial == 0.0
                assert np.all(res.forces == 0.0)
                assert not res.stats["virial_tensor"].any()
                assert not res.stats["per_atom_energy"].any()
                assert res.stats["pairs_in_cutoff"] == res.stats["triples"] == 0
                assert res.stats["list_entries"] == nl.n_pairs
            assert pot.cache_stats.hits == 1


class TestInvalidation:
    def test_version_bump_invalidates(self, si_params, si_lattice_222):
        nl = build_list(si_lattice_222, si_params.max_cutoff)
        pot = TersoffProduction(si_params, cache=True, backend="numpy")
        pot.compute(si_lattice_222, nl)
        pot.compute(si_lattice_222, nl)
        assert pot.cache_stats.as_dict()["hits"] == 1
        nl.build(si_lattice_222.x, si_lattice_222.box)  # version += 1
        pot.compute(si_lattice_222, nl)
        assert pot.cache_stats.invalidations == 2
        assert pot.cache_stats.last_event == "invalidated"

    def test_different_list_object_invalidates(self, si_params, si_lattice_222):
        nl1 = build_list(si_lattice_222, si_params.max_cutoff)
        nl2 = build_list(si_lattice_222, si_params.max_cutoff)
        pot = TersoffProduction(si_params, cache=True, backend="numpy")
        pot.compute(si_lattice_222, nl1)
        pot.compute(si_lattice_222, nl2)
        assert pot.cache_stats.invalidations == 2

    def test_type_change_invalidates(self):
        params = tersoff_sic()
        system = perturbed(zincblende_sic(2, 2, 2), 0.08, seed=29)
        nl = build_list(system, params.max_cutoff)
        pot = TersoffProduction(params, cache=True, backend="numpy")
        r1 = pot.compute(system, nl)
        system.type = system.type[::-1].copy()  # same list, new species map
        r2 = pot.compute(system, nl)
        cold = TersoffProduction(params, cache=False, backend="numpy").compute(system, nl)
        assert r2.energy == cold.energy
        assert np.array_equal(r2.forces, cold.forces)
        assert r2.energy != r1.energy
        assert pot.cache_stats.invalidations == 2

    def test_neighbor_version_monotonic(self, si_params, si_lattice_222):
        nl = NeighborList(NeighborSettings(cutoff=si_params.max_cutoff))
        assert nl.version == 0
        nl.build(si_lattice_222.x, si_lattice_222.box)
        assert nl.version == 1
        nl.build(si_lattice_222.x, si_lattice_222.box)
        assert nl.version == 2


@needs_compiled
class TestListKernelStaging:
    """The compiled kernel's cache keeps the list (L1) and the type column
    (L2) only; reusing them must be as exact as numpy's full staging."""

    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    def test_equal_across_rebuilds(self, precision):
        params = tersoff_si()
        system = perturbed(diamond_lattice(2, 2, 2), 0.12, seed=11)
        nl = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=0.6))
        nl.build(system.x, system.box)
        cached = TersoffProduction(params, precision=precision, cache=True, backend="compiled")
        cold = TersoffProduction(params, precision=precision, cache=False, backend="compiled")

        builds0 = nl.n_builds
        for _ in _drift(system, nl, 22, seed=13):
            rc = cached.compute(system, nl)
            rf = cold.compute(system, nl)
            assert rc.energy == rf.energy
            assert np.array_equal(rc.forces, rf.forces)
            assert rc.virial == rf.virial
        rebuilds = nl.n_builds - builds0
        stats = cached.cache_stats
        assert rebuilds >= 3
        assert stats.invalidations == rebuilds + 1  # + the cold start
        assert stats.hits == 22 - stats.invalidations

    def test_type_change_invalidates(self):
        params = tersoff_sic()
        system = perturbed(zincblende_sic(2, 2, 2), 0.08, seed=29)
        nl = build_list(system, params.max_cutoff)
        pot = TersoffProduction(params, cache=True, backend="compiled")
        r1 = pot.compute(system, nl)
        system.type = system.type[::-1].copy()  # same list, new species map
        r2 = pot.compute(system, nl)
        cold = TersoffProduction(params, cache=False, backend="compiled").compute(system, nl)
        assert r2.energy == cold.energy
        assert np.array_equal(r2.forces, cold.forces)
        assert r2.energy != r1.energy
        assert pot.cache_stats.invalidations == 2


class TestSegsum3:
    def test_fused_equals_loop_bitwise(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 97, size=4000)
        vec = rng.normal(size=(4000, 3)) * 10.0 ** rng.integers(-3, 4, size=(4000, 1))
        fused = segsum3(idx, vec, 97)
        loop = segsum3_loop(idx, vec, 97)
        assert np.array_equal(fused, loop)

    def test_empty(self):
        out = segsum3(np.empty(0, dtype=np.int64), np.empty((0, 3)), 5)
        assert out.shape == (5, 3)
        assert np.all(out == 0.0)

    def test_precomputed_idx3_identical(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 31, size=500)
        vec = rng.normal(size=(500, 3))
        direct = segsum3(idx, vec, 31)
        pre = segsum3(idx, vec, 31, idx3=idx3_of(idx))
        assert np.array_equal(direct, pre)

    def test_float32_input(self):
        idx = np.array([0, 1, 0])
        vec = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.float32)
        out = segsum3(idx, vec, 2)
        assert out.dtype == np.float64
        assert np.array_equal(out, [[8.0, 10.0, 12.0], [4.0, 5.0, 6.0]])


class TestWorkspace:
    def test_reuse_without_realloc(self):
        ws = Workspace()
        a = ws.buf("a", (10, 3), np.float64)
        g = ws.grow_events
        b = ws.buf("a", (10, 3), np.float64)
        assert b.base is a.base or b is a
        assert ws.grow_events == g

    def test_shrink_reuses_capacity(self):
        ws = Workspace()
        ws.buf("a", 100, np.float64)
        g = ws.grow_events
        small = ws.buf("a", 40, np.float64)
        assert small.shape == (40,)
        assert ws.grow_events == g

    def test_growth_at_least_doubles(self):
        ws = Workspace()
        ws.buf("a", 100, np.float64)
        ws.buf("a", 101, np.float64)
        assert ws._bufs["a"].size >= 200
        ws.buf("a", 150, np.float64)  # fits in doubled capacity
        assert ws.grow_events == 2

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        ws.buf("a", 10, np.float64)
        b = ws.buf("a", 10, np.float32)
        assert b.dtype == np.float32
        assert ws.grow_events == 2

    def test_nbytes(self):
        ws = Workspace()
        ws.buf("a", 10, np.float64)
        assert ws.nbytes == 80

    def test_steady_state_no_allocation(self, si_params, si_lattice_222):
        """After warmup, repeated force calls must not grow the arena."""
        nl = build_list(si_lattice_222, si_params.max_cutoff)
        pot = TersoffProduction(si_params, cache=True, backend="numpy")
        pot.compute(si_lattice_222, nl)
        grown = pot.kernel._ws.grow_events
        assert grown  # the filter's geometry lives in the kernel's arena
        for _ in range(3):
            pot.compute(si_lattice_222, nl)
        assert pot.kernel._ws.grow_events == grown


class TestObservability:
    def test_stats_exposed_in_result(self, si_params, si_lattice_222):
        nl = build_list(si_lattice_222, si_params.max_cutoff)
        pot = TersoffProduction(si_params, cache=True)
        res = pot.compute(si_lattice_222, nl)
        cache = res.stats["cache"]
        assert cache["enabled"] is True
        assert cache["list_version"] == nl.version
        assert cache["invalidations"] == 1
        assert cache["last_event"] == "invalidated"
        timing = res.stats["timing"]
        assert timing["staging_s"] >= 0.0
        assert timing["kernel_s"] >= 0.0

    def test_cache_off_reports_disabled(self, si_params, si_lattice_222):
        nl = build_list(si_lattice_222, si_params.max_cutoff)
        pot = TersoffProduction(si_params, cache=False)
        res = pot.compute(si_lattice_222, nl)
        assert res.stats["cache"] == {"enabled": False}
        assert pot.cache_stats is None

    def test_stats_calls_property(self):
        s = CacheStats(hits=3, misses=2, invalidations=1)
        assert s.calls == 6

    def test_simulation_prepare_timer(self, si_params, si_lattice_222):
        sim = Simulation(
            si_lattice_222.copy(),
            TersoffProduction(si_params),
            neighbor=NeighborSettings(cutoff=si_params.max_cutoff, skin=1.0),
        )
        sim.run(3)
        assert sim.timers.prepare > 0.0
        d = sim.timers.as_dict()
        assert d["prepare"] + d["pair"] > 0.0
        assert d["total"] == pytest.approx(sum(v for k, v in d.items() if k != "total"))

    def test_cache_default_on(self, si_params):
        assert TersoffProduction(si_params).cache_enabled is True
        assert TersoffProduction(si_params, cache=False).cache_enabled is False
