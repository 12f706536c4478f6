"""Neighbor lists: binned vs brute-force equivalence, skin semantics,
rebuild triggering (atoms that moved, a box that changed), the CSR
layout; property-based completeness; the C cell-list build against the
numpy build, bit for bit."""

import numpy as np
import pytest
from conftest import needs_compiled
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import cext
from repro.md import neighbor as neighbor_module
from repro.md.box import Box
from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities
from repro.md.neighbor import (NeighborList, NeighborSettings, _brute_force_pairs, _expand_ranges,
                               _numpy_csr, inner_list)


def pairset(nl):
    i, j = nl.pairs()
    return set(zip(i.tolist(), j.tolist()))


class TestSettings:
    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            NeighborSettings(cutoff=0.0)

    def test_rejects_negative_skin(self):
        with pytest.raises(ValueError):
            NeighborSettings(cutoff=1.0, skin=-0.1)

    def test_list_cutoff(self):
        assert NeighborSettings(cutoff=3.0, skin=1.0).list_cutoff == 4.0

    @pytest.mark.parametrize("cutoff, skin", [
        (3.0, float("nan")), (3.0, float("inf")), (float("nan"), 1.0), (float("inf"), 1.0),
    ])
    def test_rejects_non_finite_radii(self, cutoff, skin):
        """NaN passes every `< 0` test and would list no atoms at all:
        an empty list, zero energy and no error."""
        with pytest.raises(ValueError, match="must be finite"):
            NeighborSettings(cutoff=cutoff, skin=skin)


class TestExpandRanges:
    def test_basic(self):
        rows, vals = _expand_ranges(np.array([5, 10]), np.array([7, 13]))
        assert rows.tolist() == [0, 0, 1, 1, 1]
        assert vals.tolist() == [5, 6, 10, 11, 12]

    def test_empty(self):
        rows, vals = _expand_ranges(np.array([3]), np.array([3]))
        assert rows.size == 0 and vals.size == 0


class TestBinnedVsBrute:
    def test_lattice_periodic(self):
        s = perturbed(diamond_lattice(3, 3, 3), 0.2, seed=1)
        a = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        a.build(s.x, s.box)
        b = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        b.build(s.x, s.box, brute_force=True)
        assert pairset(a) == pairset(b)

    def test_small_box_falls_back(self):
        # 2 bins per axis -> binning invalid -> automatic brute force
        s = diamond_lattice(2, 2, 2)
        a = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        a.build(s.x, s.box)
        b = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        b.build(s.x, s.box, brute_force=True)
        assert pairset(a) == pairset(b)

    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
        periodic=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_points_match_brute_force(self, n, seed, periodic):
        rng = np.random.default_rng(seed)
        box = Box.cubic(20.0, periodic=periodic)
        x = rng.uniform(0, 20, size=(n, 3))
        a = NeighborList(NeighborSettings(cutoff=3.5, skin=1.5))
        a.build(x, box)
        b = NeighborList(NeighborSettings(cutoff=3.5, skin=1.5))
        b.build(x, box, brute_force=True)
        assert pairset(a) == pairset(b)


class TestSemantics:
    def test_full_list_symmetric(self):
        s = perturbed(diamond_lattice(3, 3, 3), 0.1, seed=2)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0, full=True))
        nl.build(s.x, s.box)
        ps = pairset(nl)
        assert all((j, i) in ps for i, j in ps)

    def test_half_list_is_half(self):
        s = perturbed(diamond_lattice(3, 3, 3), 0.1, seed=2)
        full = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0, full=True))
        full.build(s.x, s.box)
        half = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0, full=False))
        half.build(s.x, s.box)
        assert half.n_pairs * 2 == full.n_pairs
        assert all(i < j for i, j in pairset(half))

    def test_no_self_pairs(self):
        s = diamond_lattice(3, 3, 3)
        nl = NeighborList(NeighborSettings(cutoff=4.0, skin=0.5))
        nl.build(s.x, s.box)
        i, j = nl.pairs()
        assert np.all(i != j)

    def test_distances_within_list_cutoff(self):
        s = perturbed(diamond_lattice(3, 3, 3), 0.2, seed=3)
        nl = NeighborList(NeighborSettings(cutoff=2.5, skin=0.7))
        nl.build(s.x, s.box)
        i, j = nl.pairs()
        d = s.box.distance(s.x[i], s.x[j])
        assert np.all(d <= 3.2 + 1e-12)

    def test_skin_atoms_present(self):
        """The list *must* contain atoms beyond the force cutoff — the
        skin atoms whose exclusion the paper's Sec. IV is about."""
        s = diamond_lattice(3, 3, 3)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        nl.build(s.x, s.box)
        i, j = nl.pairs()
        d = s.box.distance(s.x[i], s.x[j])
        assert np.any(d > 3.0), "expected skin atoms beyond the force cutoff"


class TestRebuild:
    def test_needs_rebuild_initially(self):
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        assert nl.needs_rebuild(np.zeros((2, 3)))

    def test_half_skin_trigger(self):
        s = diamond_lattice(3, 3, 3)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        nl.build(s.x, s.box)
        x = s.x.copy()
        x[0, 0] += 0.49
        assert not nl.needs_rebuild(x)
        x[0, 0] += 0.02  # total 0.51 > skin/2
        assert nl.needs_rebuild(x)

    def test_ensure_counts_builds(self):
        s = diamond_lattice(3, 3, 3)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        assert nl.ensure(s.x, s.box) is True
        assert nl.ensure(s.x, s.box) is False
        assert nl.n_builds == 1

    def test_zero_skin_always_rebuilds(self):
        s = diamond_lattice(3, 3, 3)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=0.0))
        nl.build(s.x, s.box)
        assert nl.needs_rebuild(s.x)

    @pytest.mark.parametrize("builder", ["default", "numpy"])
    def test_a_changed_box_rebuilds(self, monkeypatch, builder):
        """Atoms that did not move in a box that did: the list of the old
        box is not the list of the new one, so `ensure` rebuilds — on
        other bounds (same lengths included: the bins move) or another
        periodicity — and keeps the list for an equal box."""
        if builder == "numpy":
            monkeypatch.setenv("REPRO_NO_CEXT", "1")
        s = perturbed(diamond_lattice(4, 4, 4), 0.1, seed=4)
        lo, hi = s.box.lo, s.box.hi
        slab = Box(lo, hi, (True, True, False))
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        assert nl.ensure(s.x, slab)
        assert not nl.ensure(s.x, Box(lo.copy(), hi.copy(), (True, True, False)))
        for box in (s.box, Box(lo - 0.5, hi + 0.25), Box(lo + 0.3, hi + 0.3), slab):
            assert nl.ensure(s.x, box)
            fresh = NeighborList(nl.settings)
            fresh.build(s.x, box)
            assert np.array_equal(nl.offsets, fresh.offsets)
            assert np.array_equal(nl.neighbors, fresh.neighbors)
        assert nl.n_builds == 5


class TestLayouts:
    def test_neighbors_of_matches_pairs(self):
        s = perturbed(diamond_lattice(3, 3, 3), 0.1, seed=5)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        nl.build(s.x, s.box)
        ps = pairset(nl)
        rebuilt = {(i, int(j)) for i in range(s.n) for j in nl.neighbors_of(i)}
        assert rebuilt == ps


class TestBruteForceGuard:
    """Satellite: a 10^5-atom lattice must never silently hit the
    O(n^2) fallback — at that size it means tens of GB and a hang."""

    def _thin_box_system(self, n=25_000):
        # a box with < 3 bins along every periodic axis at rlist=4.0,
        # holding more atoms than BRUTE_FORCE_MAX_ATOMS.  The guard
        # fires before any distance block is allocated, so this is cheap.
        rng = np.random.default_rng(0)
        box = Box(lo=np.zeros(3), hi=np.full(3, 8.0))
        return rng.uniform(0.0, 8.0, size=(n, 3)), box

    def test_large_fallback_raises_typed_error(self):
        from repro.md.neighbor import BRUTE_FORCE_MAX_ATOMS, BruteForceFallbackError

        x, box = self._thin_box_system()
        assert x.shape[0] > BRUTE_FORCE_MAX_ATOMS
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        with pytest.raises(BruteForceFallbackError, match="brute_force=True"):
            nl.build(x, box)
        # and the typed error is still a ValueError for old callers
        assert issubclass(BruteForceFallbackError, ValueError)

    def test_explicit_brute_force_stays_allowed(self):
        # opting in bypasses the guard (small n here so it terminates)
        rng = np.random.default_rng(1)
        box = Box(lo=np.zeros(3), hi=np.full(3, 8.0))
        x = rng.uniform(0.0, 8.0, size=(200, 3))
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        nl.build(x, box, brute_force=True)
        assert nl.n_builds == 1

    def test_small_fallback_still_silent(self):
        # below the limit the brute-force fallback keeps working as the
        # reference path for tiny boxes
        rng = np.random.default_rng(2)
        box = Box(lo=np.zeros(3), hi=np.full(3, 8.0))
        x = rng.uniform(0.0, 8.0, size=(64, 3))
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        nl.build(x, box)
        assert nl.n_builds == 1

    def test_binned_build_memory_stays_linear(self):
        import tracemalloc

        # 10^5 atoms in a properly sized box: the binned path must not
        # materialize O(n^2) distance blocks.  A quadratic build would
        # need > 80 GB; bound the peak at a few hundred MB.
        s = diamond_lattice(24, 24, 24)  # 110,592 atoms
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        tracemalloc.start()
        try:
            nl.build(s.x, s.box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nl.n_builds == 1
        assert peak < 1.5e9, f"neighbor build peaked at {peak/1e9:.2f} GB"


def assert_same_as_numpy(x, box, *, cutoff=3.0, skin=0.5, full=True):
    """`NeighborList.build` (the C pass where it applies) writes the
    arrays of the numpy build: same values, same order, same dtypes."""
    settings_ = NeighborSettings(cutoff=cutoff, skin=skin, full=full)
    nl = NeighborList(settings_)
    nl.build(x, box)
    offsets, neighbors = _numpy_csr(
        np.ascontiguousarray(x, dtype=np.float64), box, settings_.list_cutoff, full, False)
    assert nl.offsets.dtype == offsets.dtype == np.int64
    assert nl.neighbors.dtype == neighbors.dtype == np.int32
    assert np.array_equal(nl.offsets, offsets)
    assert np.array_equal(nl.neighbors, neighbors)
    assert_inner(nl, x, box)
    return nl


def assert_inner(nl, x, box):
    """The inner list at `x` is the entries with ``pair_geometry``'s r² ≤ (cutoff + skin/2)², in
    list order, with their row offsets, longest row and transposed index (a stable sort by column)."""
    if cext.probe() is None:
        (i, j), x, reach2 = nl.pairs(), np.ascontiguousarray(x), (nl.settings.cutoff + 0.5 * nl.settings.skin) ** 2
        offsets, inner, in_off, in_ent, most = inner_list(nl.offsets, nl.neighbors, x, box, reach2)
        d = box.minimum_image(x[j] - x[i])
        keep = np.einsum("ij,ij->i", d, d) <= reach2
        assert np.array_equal(offsets, np.cumsum([0, *np.bincount(i[keep], minlength=len(x))]))
        assert np.array_equal(inner, nl.neighbors[keep]) and most == np.diff(offsets).max(initial=0)
        assert np.array_equal(in_off, np.cumsum([0, *np.bincount(inner, minlength=len(x))]))
        assert np.array_equal(in_ent, np.argsort(inner, kind="stable"))


@pytest.fixture
def numpy_build_forbidden(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the numpy builder ran")

    monkeypatch.setattr(neighbor_module, "_numpy_csr", forbidden)


@needs_compiled
class TestCompiledBuild:
    """The C cell-list pass behind `NeighborList.build`: the numpy
    build is its oracle, entry for entry."""

    def test_runs_where_the_box_bins(self, numpy_build_forbidden):
        s = diamond_lattice(3, 3, 3)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        nl.build(s.x, s.box)
        assert nl.n_pairs == 16 * s.n

    def test_thin_box_and_brute_force_stay_on_numpy(self, numpy_build_forbidden):
        s = diamond_lattice(2, 2, 2)  # 2 bins per axis
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        with pytest.raises(AssertionError, match="numpy builder ran"):
            nl.build(s.x, s.box)
        s = diamond_lattice(3, 3, 3)
        with pytest.raises(AssertionError, match="numpy builder ran"):
            nl.build(s.x, s.box, brute_force=True)

    @pytest.mark.parametrize("full", [True, False])
    @pytest.mark.parametrize("skin", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("amplitude", [0.0, 0.1, 0.3, 0.8])
    @pytest.mark.parametrize("cells", [(3, 3, 3), (4, 4, 4), (8, 8, 4)])
    def test_lattices(self, cells, amplitude, skin, full):
        s = perturbed(diamond_lattice(*cells), amplitude, seed=11)
        assert_same_as_numpy(s.x, s.box, skin=skin, full=full)

    @pytest.mark.parametrize("full", [True, False])
    @pytest.mark.parametrize("periodic", [  # a fourth entry: the height of an open z slab
        (True, True, False), (False, False, False), (True, False, True),
        (True, True, False, 5.0), (False, True, False, 10.0)])  # 1 and 2 bins: a z-run stops there
    def test_open_boxes_ghosts_and_bin_edges(self, periodic, full):
        rng = np.random.default_rng(5)
        box = Box(np.array([-2.0, 1.0, 0.0]), np.array([19, 25.5, (*periodic, 16)[3]]), periodic[:3])
        rlist = 4.0
        # ghosts up to 1.5 A outside [lo, hi) on every axis
        x = rng.uniform(box.lo - 1.5, box.hi + 1.5, size=(900, 3))
        binsize = box.lengths / (box.lengths // rlist)
        x[:60] = box.lo + binsize * rng.integers(0, 4, size=(60, 3))  # exactly on bin edges
        x[60:80, 0] = box.hi[0]  # on the hi face
        x[80:100] = box.hi
        x[100:110] = x[:10]  # coincident atoms are listed like any other pair
        assert assert_same_as_numpy(x, box, cutoff=3.0, skin=1.0, full=full).n_pairs > 0

    def test_radius_on_a_pair_distance(self):
        """`r^2 <= rlist^2` is decided on the oracle's own r^2: a list
        radius that sits exactly on (or one ulp beside) a pair distance
        lists the same pairs on both builders."""
        s = perturbed(diamond_lattice(3, 3, 3), 0.2, seed=3)
        i_idx, j_idx = _brute_force_pairs(s.x, s.box, 4.2)
        d = s.box.minimum_image(s.x[j_idx] - s.x[i_idx])
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        rng = np.random.default_rng(0)
        for r_pair in rng.choice(r[r > 3.2], size=40, replace=False):
            for rlist in (np.nextafter(r_pair, 0.0), r_pair, np.nextafter(r_pair, 10.0)):
                assert_same_as_numpy(s.x, s.box, cutoff=float(rlist), skin=0.0)

    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
        periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        full=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_points_match_brute_force(self, n, seed, periodic, full):
        rng = np.random.default_rng(seed)
        box = Box(lo=np.zeros(3), hi=np.array([20.0, 16.0, 24.0]), periodic=periodic)
        x = rng.uniform(box.lo, box.hi, size=(n, 3))
        nl = assert_same_as_numpy(x, box, cutoff=3.5, skin=1.5, full=full)
        i_idx, j_idx = _brute_force_pairs(x, box, 5.0)
        if not full:
            keep = i_idx < j_idx
            i_idx, j_idx = i_idx[keep], j_idx[keep]
        assert pairset(nl) == set(zip(i_idx.tolist(), j_idx.tolist()))

    def test_short_buffer_is_retried(self):
        # everything in one corner of a large box: far above the mean
        # density the output buffer is sized from
        rng = np.random.default_rng(9)
        box = Box.cubic(60.0)
        x = rng.uniform(0.0, 6.0, size=(300, 3))
        nl = assert_same_as_numpy(x, box, cutoff=3.0, skin=1.0)
        assert nl.n_pairs > 1.5 * 300 * 300 * (4.0 / 3.0 * np.pi * 4.0**3) / box.volume + 64

    @staticmethod
    def _battery_build(monkeypatch, x, box, cutoff, full, threads, short=False):
        """The C build at `threads` threads against the numpy build.  With
        `short`, each call is first made into a buffer one entry short of
        the list: it must ask for at least the list's length and write
        nothing past the end of the buffer."""
        fns, asked = cext.load(), []
        offsets, neighbors = _numpy_csr(x, box, cutoff + 1.0, full, False)
        total = neighbors.shape[0]

        def one_short(*args):
            guarded = np.full(total + 15, -7, dtype=np.int32)
            # cap, offsets, neighbors: the buffer, one short, then a guard
            asked.append(fns["neighbor_build"](*args[:10], total - 1, args[11],
                                               guarded.ctypes.data, *args[13:]))
            assert np.all(guarded[total - 1:] == -7)
            return fns["neighbor_build"](*args)

        monkeypatch.setattr(cext, "THREAD_GRAIN", 1)
        if short:
            monkeypatch.setattr(cext, "load", lambda: {**fns, "neighbor_build": one_short})
        nl = NeighborList(NeighborSettings(cutoff=cutoff, skin=1.0, full=full))
        nl.threads = threads
        nl.build(x, box)
        assert np.array_equal(nl.offsets, offsets)
        assert np.array_equal(nl.neighbors, neighbors)
        assert_inner(nl, x, box)
        assert all(cap >= total for cap in asked)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("full", [True, False])
    @pytest.mark.parametrize("cutoff", [3.0, 3.77])  # rlist 4.0 (Tersoff), 4.77 (SW)
    @pytest.mark.parametrize("cells", [(4, 4, 4), (6, 6, 6)])
    def test_serve_mixed_shapes(self, monkeypatch, cells, cutoff, full, threads):
        s = perturbed(diamond_lattice(*cells), 0.3, seed=2016)
        self._battery_build(monkeypatch, s.x, s.box, cutoff, full, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("full", [True, False])
    @pytest.mark.parametrize("periodic", [(True, True, True), (True, False, True)])
    def test_three_bins_and_atoms_half_a_bin_outside(self, monkeypatch, periodic, full, threads):
        """Exactly 3 bins per periodic axis (each neighbor cell met once,
        the own cell the only place j can be i), atoms up to half a bin
        outside [lo, hi) clamped into the edge bins."""
        box = Box(lo=np.array([-1.0, 0.0, 2.0]), hi=np.array([11.5, 12.9, 14.0]), periodic=periodic)
        assert np.array_equal(box.lengths // 4.0, [3, 3, 3])
        half_bin = 0.5 * box.lengths / 3
        x = np.random.default_rng(3).uniform(box.lo - half_bin, box.hi + half_bin, size=(400, 3))
        self._battery_build(monkeypatch, x, box, 3.0, full, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("full", [True, False])
    def test_a_buffer_one_entry_short(self, monkeypatch, full, threads):
        s = perturbed(diamond_lattice(6, 6, 6), 0.3, seed=7919)
        self._battery_build(monkeypatch, s.x, s.box, 3.77, full, threads, short=True)

    def test_melt_run_identical_without_the_extension(self, monkeypatch):
        from repro.runtime import RunSpec, SolverSpec, build_simulation

        def melt():
            system = diamond_lattice(4, 4, 4)
            seeded_velocities(system, 6000.0, seed=2016)
            spec = SolverSpec(mode="Opt-D", backend="numpy")  # the kernel both runs share
            sim = build_simulation(RunSpec(solver=spec, skin=0.5), system)
            sim.run(200)
            return system.x.copy(), sim.neigh.n_builds

        x_c, builds_c = melt()
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        x_np, builds_np = melt()
        assert builds_c == builds_np > 10
        assert np.array_equal(x_c, x_np)

    def test_state_round_trip_then_rebuild(self):
        s = perturbed(diamond_lattice(3, 3, 3), 0.1, seed=6)
        a = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        a.build(s.x, s.box)
        b = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        b.set_state(a.get_state(), s.box)
        assert np.array_equal(b.offsets, a.offsets) and np.array_equal(b.neighbors, a.neighbors)
        moved = perturbed(s, 0.6, seed=8)
        assert a.ensure(moved.x, moved.box) and b.ensure(moved.x, moved.box)
        assert (b.n_builds, b.version) == (a.n_builds, a.version) == (2, 2)
        assert np.array_equal(b.offsets, a.offsets) and np.array_equal(b.neighbors, a.neighbors)
        assert_same_as_numpy(moved.x, moved.box, skin=1.0)

    def test_first_build_reports_the_load_as_warmup(self, monkeypatch):
        """The process's first C build loads the extension: that time
        goes to `StageTimers.warmup`, not `neighbor`."""
        from repro.md.simulation import Simulation
        from repro.md.pair_lj import LennardJones

        s = perturbed(diamond_lattice(3, 3, 3), 0.05, seed=1)
        sim = Simulation(s, LennardJones(epsilon=0.01, sigma=2.0, cutoff=3.0))
        monkeypatch.setattr(cext, "loaded", lambda: False)
        sim.compute_forces()
        load = sim.neigh.warmup_s
        assert load > 0.0
        assert sim.timers.warmup == load
        monkeypatch.undo()
        sim.neigh.build(s.x, s.box)
        assert sim.neigh.warmup_s == 0.0

    def test_engine_worker_reports_the_load_as_warmup(self, monkeypatch, si_params):
        from repro.core.tersoff.production import TersoffProduction
        from repro.md.simulation import Simulation

        s = perturbed(diamond_lattice(4, 4, 4), 0.05, seed=1)
        monkeypatch.setattr(cext, "loaded", lambda: False)
        sim = Simulation(s, TersoffProduction(si_params), workers=1, ranks=2, executor="serial")
        try:
            sim.compute_forces()
            per_rank = sim.engine.last_step.per_rank
        finally:
            sim.close()
        assert all(r["warmup_s"] > 0.0 and r["neighbor_s"] > 0.0 for r in per_rank)
        assert sim.timers.warmup == sum(r["warmup_s"] for r in per_rank)

    def test_failed_build_falls_back_and_is_remembered(self, monkeypatch):
        def broken(force=False):
            raise cext.CextBuildError("cc: fatal error: math.h: No such file")

        monkeypatch.setattr(cext, "_lib", None)
        monkeypatch.setattr(cext, "_build_error", None)
        monkeypatch.setattr(cext, "build", broken)
        s = diamond_lattice(3, 3, 3)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        with pytest.warns(RuntimeWarning, match="using the numpy builder"):
            nl.build(s.x, s.box)
        assert nl.n_pairs == 16 * s.n
        assert "math.h" in cext.probe()
        nl.build(s.x, s.box)  # probes first now: no second compile, no second warning
        assert nl.n_builds == 2


@needs_compiled
class TestIncomingIndex:
    """The transposed index the compiled kernel gathers forces through:
    per atom the list entries that name it, in list order.  It comes with
    the inner list; at an infinite reach that is the list itself."""

    @staticmethod
    def check(neighbors, n):
        rows, valid = np.array([0] + [len(neighbors)] * n), np.nonzero((neighbors >= 0) & (neighbors < n))[0]
        inner, offsets, entries = inner_list(rows, neighbors, np.zeros((n, 3)), Box.cubic(9.0), np.inf)[1:4]
        assert inner is neighbors and (offsets.dtype, entries.dtype) == (np.int64, np.int32)
        assert np.array_equal(offsets, np.cumsum([0, *np.bincount(neighbors[valid], minlength=n)]))
        assert np.array_equal(entries[:len(valid)], valid[np.argsort(neighbors[valid], kind="stable")])

    @pytest.mark.parametrize("full", [True, False])
    def test_built_lists(self, full):
        s = perturbed(diamond_lattice(3, 3, 3), 0.2, seed=2)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0, full=full))
        nl.build(s.x, s.box)
        self.check(nl.neighbors, s.n)

    def test_blanked_ghost_rows_leave_an_asymmetric_list(self):
        from repro.parallel.decomposition import blank_ghost_rows

        s = perturbed(diamond_lattice(3, 3, 3), 0.2, seed=2)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        nl.build(s.x, s.box)
        blank_ghost_rows(nl, 150)
        self.check(nl.neighbors, s.n)
        assert np.bincount(nl.neighbors, minlength=s.n)[150:].any()  # atoms without a row are still named

    def test_columns_out_of_range_are_left_for_the_kernel_to_report(self):
        neighbors = np.array([2, 9, 0, -1, 2, 1, 0], dtype=np.int32)
        self.check(neighbors, 3)
        self.check(np.empty(0, dtype=np.int32), 4)
        self.check(np.empty(0, dtype=np.int32), 0)


class TestNonFinitePositions:
    """A NaN/inf position bins nowhere; the atom used to vanish from
    the list and the energy stayed finite.  Both builders refuse."""

    @pytest.mark.parametrize("builder", ["default", "numpy", "brute"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_before_any_state_changes(self, monkeypatch, builder, bad):
        if builder == "numpy":
            monkeypatch.setenv("REPRO_NO_CEXT", "1")
        s = perturbed(diamond_lattice(4, 4, 4), 0.1, seed=4)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=0.5))
        nl.build(s.x, s.box)
        before = nl.get_state()
        x = s.x.copy()
        x[5, 1] = bad
        x[9, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite position of atom 5"):
            nl.build(x, s.box, brute_force=builder == "brute")
        after = nl.get_state()
        assert (after["n_builds"], after["version"]) == (1, 1)
        for key in ("offsets", "neighbors", "x_ref"):
            assert np.array_equal(after[key], before[key])
        assert not nl.needs_rebuild(s.x)

    @pytest.mark.parametrize("builder", ["default", "numpy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_the_skin_test_hands_it_to_the_build(self, monkeypatch, builder, bad):
        """NaN compares false: the skin test used to keep the list, and
        the kernel then blamed the NaN atom's neighbor.  A non-finite
        displacement is a rebuild, and the build names the atom."""
        if builder == "numpy":
            monkeypatch.setenv("REPRO_NO_CEXT", "1")
        s = perturbed(diamond_lattice(4, 4, 4), 0.1, seed=4)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=0.5))
        nl.build(s.x, s.box)
        x = s.x.copy()
        x[5, 1] = bad
        assert nl.needs_rebuild(x)
        with pytest.raises(ValueError, match="non-finite position of atom 5"):
            nl.ensure(x, s.box)

    def test_far_outside_the_box_is_defined(self):
        # finite but beyond int64 when divided by the bin size: an edge
        # bin, no cast warning, and (non-periodic) no neighbors
        box = Box.cubic(20.0, periodic=False)
        x = np.random.default_rng(3).uniform(0.0, 20.0, size=(50, 3))
        x[7] = [1e300, -1e300, 5.0]
        nl = assert_same_as_numpy(x, box, cutoff=3.5, skin=0.5)
        assert nl.neighbors_of(7).size == 0
