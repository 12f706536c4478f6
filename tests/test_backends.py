"""The compute-backend registry and the compiled/numpy equivalence contract.

The contract under test (DESIGN.md §12): the ``compiled`` Tersoff
kernel (and SW's, on the same list walker) is one fused C pass over
positions and the CSR neighbor list —
it owns the minimum image, both cutoff filters and every accumulation,
runs the pairs of an atom in four vector lanes (scheme 1a) and its own
exp/log/sin/cos — and must agree with the numpy kernel, its oracle, to
documented per-field bounds: energy to a couple of ULPs, per-atom
energies and the scalar virial to small ULP counts, forces and the
virial tensor to tight *relative* bounds (elementwise ULP is meaningless
there: near-cancelling force components legitimately differ by many ULPs
at ~1e-11 relative error).  Its answer may depend on nothing but ``(x,
list)`` — not on history, not on the ISA its lanes were lowered to and
not on how many threads its rows were split over.
The registry must fall back to numpy gracefully (one warning per
process for a requested backend, none for the default), the default
must be compiled exactly where the extension loads, and numpy where it
does not, bitwise the explicit `backend="numpy"`.
"""

import ctypes
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_list, needs_compiled
from repro import backends
from repro.backends.base import BackendUnavailableError, ComputeBackend, UnknownBackendError
from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si, tersoff_sic
from repro.core.tersoff.production import TersoffKernel, TersoffProduction
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.lattice import diamond_lattice, perturbed, zincblende_sic

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---- documented equivalence bounds (DESIGN.md §12, measured with margin;
# "measured" is the worst case of this file's workloads, the 10-seed matrix
# of §12 in brackets) ----
ENERGY_ULP = 4          # measured 2 [2]
PERATOM_ULP = 64        # measured 10 [36]
VIRIAL_ULP = 32         # measured 7 [two open-box seeds read 44 and 47, the other 178
                        # configurations <= 28: the trace nearly cancels and the
                        # sums no longer replay the oracle's order]
TENSOR_MAXREL = 1e-13   # measured 2.2e-15 [4.4e-15]
FORCES_MAXREL = 1e-10   # measured 1.9e-15 [6.9e-15] (relative to the max force magnitude)
# float32 compute (single/mixed) reorders rounding: relative bounds only
REDUCED_ENERGY_REL = 1e-5      # measured 2.4e-7 (the 10-seed matrix)
REDUCED_FORCES_MAXREL = 1e-3   # measured 1.6e-5


def ulp_diff(a, b):
    """Elementwise ULP distance between two float64 arrays.

    Uses the monotone int64 mapping of IEEE-754 doubles: adjacent
    representable values differ by exactly 1.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    ia = a.view(np.int64).copy()
    ib = b.view(np.int64).copy()
    ia[ia < 0] = np.int64(-(2**63)) - ia[ia < 0] - 1
    ib[ib < 0] = np.int64(-(2**63)) - ib[ib < 0] - 1
    return np.abs(ia - ib)


def maxrel(a, b):
    """Max elementwise deviation relative to the largest magnitude in `b`."""
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a - b)) / scale)


def si_workload(cells=2, seed=5):
    params = tersoff_si()
    system = perturbed(diamond_lattice(cells, cells, cells), 0.12, seed=seed)
    return params, system, build_list(system, params.max_cutoff)


def sic_workload(cells=2, seed=9):
    params = tersoff_sic()
    system = perturbed(zincblende_sic(cells, cells, cells), 0.10, seed=seed)
    return params, system, build_list(system, params.max_cutoff)


def sw_workload(cells=3, seed=5):
    params = sw_silicon()
    system = perturbed(diamond_lattice(cells, cells, cells), 0.12, seed=seed)
    return params, system, build_list(system, params.cut)


def with_periodicity(system, periodic):
    """The same atoms in a box with the given per-axis periodicity."""
    return AtomSystem(box=Box(system.box.lo, system.box.hi, periodic), x=system.x.copy(),
                      type=system.type.copy(), mass=system.mass.copy(), species=system.species)


def assert_same_counts(res_c, res_n):
    """The filter counters are counted in C; they must equal numpy's."""
    for key in ("pairs_in_cutoff", "triples", "list_entries", "filter_efficiency"):
        assert res_c.stats[key] == res_n.stats[key], key


def assert_tracks(res_c, res_n, precision="double"):
    """The bounds that apply in the given precision mode."""
    assert_same_counts(res_c, res_n)
    if precision == "double":
        assert_equivalent(res_c, res_n)
    else:
        assert abs(res_c.energy - res_n.energy) / abs(res_n.energy) < REDUCED_ENERGY_REL
        assert maxrel(res_c.forces, res_n.forces) < REDUCED_FORCES_MAXREL


def assert_bitwise(res_a, res_b):
    assert res_a.energy == res_b.energy
    assert res_a.virial == res_b.virial
    assert np.array_equal(res_a.forces, res_b.forces)
    assert np.array_equal(res_a.stats["virial_tensor"], res_b.stats["virial_tensor"])
    assert np.array_equal(res_a.stats["per_atom_energy"], res_b.stats["per_atom_energy"])


def kernel_sums(pot):
    """The pair, j and k virial sums of the kernel's last call."""
    return pot.kernel._ws.buf("stress", (3, 3, 3), np.float64).copy()


def assert_equivalent(res_c, res_n):
    """The documented compiled-vs-numpy bounds, field by field."""
    assert int(ulp_diff(res_c.energy, res_n.energy)[0]) <= ENERGY_ULP
    assert int(np.max(ulp_diff(res_c.stats["per_atom_energy"],
                               res_n.stats["per_atom_energy"]))) <= PERATOM_ULP
    assert int(ulp_diff(res_c.virial, res_n.virial)[0]) <= VIRIAL_ULP
    assert maxrel(res_c.stats["virial_tensor"], res_n.stats["virial_tensor"]) <= TENSOR_MAXREL
    assert maxrel(res_c.forces, res_n.forces) <= FORCES_MAXREL


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_builtin_names(self):
        assert "numpy" in backends.names()
        assert "compiled" in backends.names()

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError, match="unknown backend"):
            backends.get("fortran")
        with pytest.raises(UnknownBackendError):
            backends.resolve("fortran")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            backends.register(backends.get("numpy"))

    def test_default_is_numpy(self, monkeypatch):
        """... where the extension does not load, and chosen without a
        warning: a default is not a request."""
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backends.get_default() == "numpy"
            assert backends.resolve(None).name == "numpy"

    @needs_compiled
    def test_default_is_compiled_where_it_loads(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backends.get_default() == "compiled"
            assert backends.resolve(None).name == "compiled"
            assert TersoffProduction(tersoff_si()).backend_name == "compiled"

    def test_available_probes_every_backend(self):
        avail = backends.available()
        assert set(avail) == set(backends.names())
        assert avail["numpy"] is None  # always usable

    def test_fallback_warns_once_then_stays_quiet(self):
        broken = ComputeBackend(
            name="test-broken",
            description="always unavailable (test)",
            probe=lambda: "no hardware",
            make_kernel=lambda family, p, pr: None,
        )
        backends.register(broken)
        try:
            with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
                assert backends.resolve("test-broken").name == "numpy"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert backends.resolve("test-broken").name == "numpy"
        finally:
            backends._REGISTRY.pop("test-broken", None)
            backends._FALLBACK_WARNED.discard("test-broken")

    def test_strict_resolution_raises_instead(self):
        broken = ComputeBackend(
            name="test-strict",
            description="always unavailable (test)",
            probe=lambda: "no hardware",
            make_kernel=lambda family, p, pr: None,
        )
        backends.register(broken)
        try:
            with pytest.raises(BackendUnavailableError, match="no hardware"):
                backends.resolve("test-strict", fallback=False)
        finally:
            backends._REGISTRY.pop("test-strict", None)

    def test_compiled_unavailable_env_gate(self):
        """REPRO_NO_CEXT must leave compiled probed-unavailable and
        --backend compiled degrading to numpy with a warning (fresh
        process: the cext module caches its probe result)."""
        code = (
            "import warnings, repro.backends as b\n"
            "from repro.core.tersoff.parameters import tersoff_si\n"
            "from repro.core.tersoff.production import TersoffProduction\n"
            "from repro.backends.compiled import pick_strategy\n"
            "assert b.available()['compiled'] is not None\n"
            "try:\n"
            "    pick_strategy()\n"
            "    raise SystemExit('pick_strategy must raise without a toolchain')\n"
            "except b.BackendUnavailableError:\n"
            "    pass\n"
            "with warnings.catch_warnings(record=True) as w:\n"
            "    warnings.simplefilter('always')\n"
            "    pot = TersoffProduction(tersoff_si(), backend='compiled')\n"
            "assert pot.backend_name == 'numpy', pot.backend_name\n"
            "assert any('falling back' in str(x.message) for x in w)\n"
            "print('OK')\n"
        )
        env = {**os.environ, "REPRO_NO_CEXT": "1", "PYTHONPATH": str(REPO_ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "OK"

    @pytest.mark.parametrize("flags", [[], ["--backend", "compiled"]], ids=["default", "compiled"])
    def test_a_compiler_that_cannot_build_falls_back(self, flags, tmp_path):
        """A compiler on PATH is not a working one: resolution loads the
        extension, so a failed build picks numpy — silently for the
        default, with the one-time warning for an explicit request —
        instead of raising from the first force call."""
        env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_CEXT"}
        env.update(CC="false", REPRO_CEXT_CACHE=str(tmp_path), PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run([sys.executable, "-m", "repro", "run", "--atoms", "64", "--steps", "2",
                              *flags], env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert "backend numpy" in out.stdout.splitlines()[0]
        assert ("falling back to 'numpy'" in out.stderr) == bool(flags), out.stderr


class TestDefaultPathUnchanged:
    """Without the extension the default is the numpy kernel, bit for bit."""

    def test_default_backend_is_numpy_kernel(self, si_params, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        pot = TersoffProduction(si_params)
        assert pot.backend_name == "numpy"
        assert type(pot.kernel) is TersoffKernel

    def test_explicit_numpy_is_bitwise_default(self, si_params, si_lattice_222, si_neigh_222,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        r0 = TersoffProduction(si_params).compute(si_lattice_222, si_neigh_222)
        r1 = TersoffProduction(si_params, backend="numpy").compute(si_lattice_222, si_neigh_222)
        assert r0.energy == r1.energy
        assert np.array_equal(r0.forces, r1.forces)
        assert r0.virial == r1.virial


# ------------------------------------------------------------- equivalence


@needs_compiled
class TestCompiledEquivalence:
    @pytest.mark.parametrize("cache", [True, False])
    def test_si_double(self, cache):
        params, system, neigh = si_workload()
        rn = TersoffProduction(params, cache=cache, backend="numpy").compute(system, neigh)
        rc = TersoffProduction(params, cache=cache, backend="compiled").compute(system, neigh)
        assert rc.stats["backend"]["name"] == "compiled"
        assert_equivalent(rc, rn)

    @pytest.mark.parametrize("cache", [True, False])
    def test_sic_multispecies(self, cache):
        params, system, neigh = sic_workload()
        rn = TersoffProduction(params, cache=cache, backend="numpy").compute(system, neigh)
        rc = TersoffProduction(params, cache=cache, backend="compiled").compute(system, neigh)
        assert_equivalent(rc, rn)

    def test_across_rebuild_boundaries(self):
        """Bounds must hold on cache hits AND on restaged topologies."""
        params, system, neigh = si_workload()
        pn = TersoffProduction(params, cache=True, backend="numpy")
        pc = TersoffProduction(params, cache=True, backend="compiled")
        rng = np.random.default_rng(17)
        for step in range(4):
            assert_equivalent(pc.compute(system, neigh), pn.compute(system, neigh))
            if step % 2 == 0:
                system.x += 0.02 * rng.standard_normal(system.x.shape)  # cache hit
            else:
                system.x += 0.6 * rng.standard_normal(system.x.shape)   # forces rebuild
            neigh.ensure(system.x, system.box)
        assert pc.cache_stats.hits > 0
        assert pc.cache_stats.invalidations >= 1

    @pytest.mark.parametrize("precision", ["single", "mixed"])
    def test_reduced_precision_tracks_numpy(self, precision):
        """float32 compute paths reorder rounding; bounds are relative."""
        params, system, neigh = si_workload()
        rn = TersoffProduction(params, precision=precision, backend="numpy").compute(system, neigh)
        rc = TersoffProduction(params, precision=precision,
                               backend="compiled").compute(system, neigh)
        assert abs(rc.energy - rn.energy) / abs(rn.energy) < 1e-5
        assert maxrel(rc.forces, rn.forces) < 1e-3

    @pytest.mark.parametrize("periodic", ["ppp", "ppf", "fff"])
    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    def test_sw_tracks_numpy(self, precision, periodic):
        """SW's body on the same walker, held to the same bounds; its short
        list is strict, so the counters equal the numpy filter's."""
        params, system, _ = sw_workload()
        system = with_periodicity(system, PERIODICITIES[periodic])
        neigh = build_list(system, params.cut)
        rn = StillingerWeberProduction(params, precision=precision,
                                       backend="numpy").compute(system, neigh)
        rc = StillingerWeberProduction(params, precision=precision,
                                       backend="compiled").compute(system, neigh)
        assert rc.stats["backend"]["name"] == "compiled"
        assert_tracks(rc, rn, precision)

    def test_sw_is_type_blind(self):
        """SW has one species: a type column the numpy kernel ignores is
        ignored by the compiled one too, bit for bit."""
        params, system, neigh = sw_workload(cells=2)
        typed = AtomSystem(box=system.box, x=system.x, type=np.arange(system.n) % 2,
                           mass=np.ones(2), species=("Si", "Ge"))
        pot = StillingerWeberProduction(params, backend="compiled")
        assert_bitwise(pot.compute(typed, neigh), pot.compute(system, neigh))

    def test_stats_contract_parity(self):
        params, system, neigh = si_workload()
        rn = TersoffProduction(params, backend="numpy").compute(system, neigh)
        rc = TersoffProduction(params, backend="compiled").compute(system, neigh)
        assert rc.stats["pairs_in_cutoff"] == rn.stats["pairs_in_cutoff"]
        assert rc.stats["triples"] == rn.stats["triples"]
        assert rc.stats["cache"]["enabled"] == rn.stats["cache"]["enabled"]

    def test_warmup_reported_once(self):
        params, system, neigh = si_workload()
        pot = TersoffProduction(params, backend="compiled")
        first = pot.compute(system, neigh)
        assert first.stats["timing"].get("warmup_s", 0.0) >= 0.0
        assert "warmup_s" in first.stats["timing"]
        again = pot.compute(system, neigh)
        assert "warmup_s" not in again.stats["timing"]


PERIODICITIES = {"ppp": (True, True, True), "ppf": (True, True, False),
                 "fff": (False, False, False)}


@needs_compiled
class TestBoundsMatrix:
    """§12 over everything the fused kernel now decides by itself:
    species × precision × cache × box periodicity, each across a cache
    hit and a list rebuild."""

    @pytest.mark.parametrize("periodic", list(PERIODICITIES))
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    @pytest.mark.parametrize("workload", [si_workload, sic_workload], ids=["si", "sic"])
    def test_bounds(self, workload, precision, cache, periodic):
        params, system, _ = workload()
        system = with_periodicity(system, PERIODICITIES[periodic])
        # a thin skin, so that a physical displacement forces the rebuild:
        # ULP bounds mean nothing on a configuration distorted until its
        # energy cancels to ~0
        neigh = build_list(system, params.max_cutoff, skin=0.4)
        pn = TersoffProduction(params, precision=precision, cache=cache, backend="numpy")
        pc = TersoffProduction(params, precision=precision, cache=cache, backend="compiled")
        rng = np.random.default_rng(23)
        for move in (0.02, 0.12, 0.0):  # then: a cache hit, a rebuild
            assert_tracks(pc.compute(system, neigh), pn.compute(system, neigh), precision)
            system.x += move * rng.standard_normal(system.x.shape)
            system.wrap()
            neigh.ensure(system.x, system.box)
        assert neigh.n_builds == 2

    @pytest.mark.parametrize("precision", ["double", "mixed"])
    def test_decomposed_rank_with_blanked_ghost_rows(self, precision):
        """A rank-local system: owned atoms first, ghost rows emptied,
        a box that is not periodic along the cut axis."""
        from repro.md.neighbor import NeighborSettings
        from repro.parallel.decomposition import DomainDecomposition

        params, system, _ = si_workload(cells=3)
        dd = DomainDecomposition(system, 2, halo=params.max_cutoff + 1.0)
        settings = NeighborSettings(cutoff=params.max_cutoff, skin=1.0, full=True)
        pn = TersoffProduction(params, precision=precision, backend="numpy")
        pc = TersoffProduction(params, precision=precision, backend="compiled")
        for dom in dd.domains:
            neigh, _ = dd.ensure_local_list(dom.rank, settings)
            assert dom.n_ghost > 0
            assert np.all(neigh.counts()[dom.n_owned:] == 0)
            assert_tracks(pc.compute(dom.local_system, neigh),
                          pn.compute(dom.local_system, neigh), precision)


@needs_compiled
class TestHistoryIndependence:
    """The answer is a function of ``(x, list)`` only — what `serve`'s
    answers-vs-direct check and bitwise restarts rely on."""

    @pytest.mark.parametrize("precision", ["double", "mixed"])
    def test_cold_hit_and_rebuild_return_are_bitwise_equal(self, precision):
        params, system, neigh = sic_workload()
        x0 = system.x.copy()
        pot = TersoffProduction(params, precision=precision, backend="compiled")
        cold = pot.compute(system, neigh)

        system.x += 0.01
        pot.compute(system, neigh)
        system.x[:] = x0
        after_hit = pot.compute(system, neigh)
        assert pot.cache_stats.last_event == "hit"
        assert_bitwise(after_hit, cold)

        system.x[:] = perturbed(system, 0.6, seed=3).x
        neigh.build(system.x, system.box)
        pot.compute(system, neigh)
        system.x[:] = x0
        neigh.build(system.x, system.box)  # the original list again
        after_rebuild = pot.compute(system, neigh)
        assert pot.cache_stats.last_event == "invalidated"
        assert_bitwise(after_rebuild, cold)

        fresh = TersoffProduction(params, precision=precision, cache=False, backend="compiled")
        assert_bitwise(fresh.compute(system, neigh), cold)

    def test_results_are_owned_by_the_caller(self):
        """A later call must not write into an earlier result."""
        params, system, neigh = si_workload()
        pot = TersoffProduction(params, backend="compiled")
        first = pot.compute(system, neigh)
        forces, per_atom = first.forces.copy(), first.stats["per_atom_energy"].copy()
        system.x += 0.05
        pot.compute(system, neigh)
        assert np.array_equal(first.forces, forces)
        assert np.array_equal(first.stats["per_atom_energy"], per_atom)


class TestListStaging:
    """One staging contract for every kernel: the list (L1) and the type
    column (L2); the filter is the kernel's own."""

    def test_prepare_stages_the_list_and_nothing_else(self, monkeypatch):
        from repro.core.pipeline import InteractionCache, ListData, topology

        def no_geometry(*args, **kwargs):
            raise AssertionError("prepare must not compute pair geometry")

        params, system, neigh = sic_workload()
        for backend in ("numpy", "compiled") if backends.is_available("compiled") else ("numpy",):
            kernel = TersoffProduction(params, backend=backend).kernel
            cache = InteractionCache()
            with monkeypatch.context() as patch:
                patch.setattr(topology, "pair_geometry", no_geometry)
                st = cache.prepare(system, neigh, kernel)
                assert cache.stats.last_event == "invalidated"
                assert cache.prepare(system, neigh, kernel) is st
                assert cache.stats.last_event == "hit"
            assert isinstance(st.pairs, ListData) and st.tri is None
            assert st.pairs.offsets is neigh.offsets and st.pairs.neighbors is neigh.neighbors
            assert st.pairs.max_row == int(neigh.counts().max())
            assert st.pairs.n_pairs == st.pairs.n_list_entries == neigh.n_pairs

    @pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_compiled)])
    @pytest.mark.parametrize("potential", ["tersoff", "sw"])
    def test_only_the_compiled_kernel_builds_the_transposed_index(self, backend, potential):
        """The list's ``incoming`` index is made by the extension: the
        numpy oracle must run without ever reading it."""
        if potential == "sw":
            params, system, neigh = sw_workload(cells=2)
            pot = StillingerWeberProduction(params, backend=backend)
        else:
            params, system, neigh = sic_workload()
            pot = TersoffProduction(params, backend=backend)
        pot.compute(system, neigh)
        assert (pot._cache._staging.pairs._incoming is not None) == (backend == "compiled")

    @needs_compiled
    def test_type_change_invalidates_by_value(self):
        params, system, neigh = sic_workload()
        pn = TersoffProduction(params, backend="numpy")
        pc = TersoffProduction(params, backend="compiled")
        pc.compute(system, neigh)
        system.type = system.type[::-1].copy()
        assert_equivalent(pc.compute(system, neigh), pn.compute(system, neigh))
        assert pc.cache_stats.invalidations == 2
        pc.compute(system, neigh)
        assert pc.cache_stats.hits == 1

    @needs_compiled
    def test_inconsistent_input_is_rejected_not_dereferenced(self):
        """C indexes the list unchecked by numpy: every index it reads
        is validated, by the cache (shapes) or the kernel (values)."""
        params, system, neigh = sic_workload()
        pot = TersoffProduction(params, backend="compiled")
        pot.compute(system, neigh)
        keep = int(neigh.neighbors[3])
        neigh.neighbors[3] = system.n + 7
        with pytest.raises(ValueError, match="out of range at atom 0"):
            pot.compute(system, neigh)
        neigh.neighbors[3] = keep
        system.type[5] = 9
        with pytest.raises(ValueError, match="out of range at atom 5"):
            pot.compute(system, neigh)
        system.type[5] = 0
        # a longest-row figure smaller than a row would overrun the scratch
        from repro.core.pipeline import InteractionCache

        st = InteractionCache().prepare(system, neigh, pot.kernel)
        st.pairs.max_row = 3
        with pytest.raises(ValueError, match="out of range at atom 0"):
            pot.kernel.evaluate(st, system.n)
        smaller = system.select(np.arange(system.n) < system.n - 1)
        for _ in range(2):  # a retry is validated again, not served from the key
            with pytest.raises(ValueError, match="do not match the system"):
                pot.compute(smaller, neigh)

    @needs_compiled
    def test_empty_and_isolated_systems(self):
        """No neighbors at all: zero energy and forces, counters intact."""
        params = tersoff_si()
        x = np.array([[2.0, 2.0, 2.0], [12.0, 12.0, 12.0]])
        system = AtomSystem(box=Box.cubic(30.0, periodic=False), x=x)
        neigh = build_list(system, params.max_cutoff, brute=True)
        res = TersoffProduction(params, backend="compiled").compute(system, neigh)
        assert res.energy == 0.0 and not res.forces.any()
        assert res.stats["pairs_in_cutoff"] == 0 and res.stats["filter_efficiency"] == 1.0


class TestCutoffConvention:
    """Each family's filter boundary, the same on both backends: a dimer
    at exactly ``r == cut`` (``d = cut - 0`` and ``sqrt(cut**2) == cut``
    are exact)."""

    @staticmethod
    def dimer(cut):
        x = np.array([[0.0, 0.0, 0.0], [cut, 0.0, 0.0]])
        system = AtomSystem(box=Box.cubic(30.0, periodic=False), x=x)
        return system, build_list(system, cut, brute=True)

    @pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_compiled)])
    def test_sw_is_strict(self, backend):
        """The SW tail diverges at ``r == cut``: the pair is filtered out."""
        params = sw_silicon()
        system, neigh = self.dimer(params.cut)
        res = StillingerWeberProduction(params, backend=backend).compute(system, neigh)
        assert neigh.n_pairs == 2 and res.stats["list_entries"] == 2
        assert res.stats["pairs_in_cutoff"] == 0
        assert res.energy == 0.0 and not res.forces.any()

    @pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_compiled)])
    def test_tersoff_is_inclusive(self, backend):
        """Tersoff keeps ``r == R + D``, where its cutoff function reaches 0."""
        params = tersoff_si()
        system, neigh = self.dimer(params.max_cutoff)
        res = TersoffProduction(params, backend=backend).compute(system, neigh)
        assert neigh.n_pairs == 2 and res.stats["pairs_in_cutoff"] == 2
        assert np.isfinite(res.forces).all()


@needs_compiled
class TestStressAccumulation:
    @pytest.mark.parametrize("workload", [si_workload, sic_workload], ids=["si", "sic"])
    def test_virial_sums_match_numpy_reduction(self, workload):
        """The kernel adds the three virial outer-product sums in the
        oracle's pair/triplet row order, so the tensor differs from
        numpy's einsum reduction only by the rounding of the force
        terms themselves; trace and symmetry are exact on both."""
        params, system, neigh = workload()
        rn = TersoffProduction(params, backend="numpy").compute(system, neigh)
        rc = TersoffProduction(params, backend="compiled").compute(system, neigh)
        tensor = rc.stats["virial_tensor"]
        assert maxrel(tensor, rn.stats["virial_tensor"]) <= TENSOR_MAXREL
        assert np.array_equal(tensor, tensor.T)
        assert np.trace(tensor) == rc.virial
        assert int(ulp_diff(rc.virial, rn.virial)[0]) <= VIRIAL_ULP


@needs_compiled
class TestNumpyOracle:
    def test_fused_kernel_matches_numpy_kernel_on_the_pipeline(self):
        """Both kernels plug into the same seam: `PipelinePotential`
        needs nothing but the kernel's staging contract."""
        params, system, neigh = sic_workload()
        compiled = TersoffProduction(params, backend="compiled")
        assert compiled.backend_name == "compiled"
        rc = compiled.compute(system, neigh)
        rn = TersoffProduction(params, backend="numpy").compute(system, neigh)
        assert_tracks(rc, rn)


# ------------------------------------------- the build: key, flags, lowering


def _variant(tmp_path, name, isa_flags):
    """Entry points of the extension built with `isa_flags` into a
    throw-away file: the private, test-only way to a second lowering."""
    from repro.backends import cext

    out = tmp_path / f"{name}.so"
    _, err = cext._compile(cext.find_compiler(), isa_flags, str(out))
    assert err is None, err
    return cext._entry_points(ctypes.CDLL(str(out)))


@needs_compiled
class TestCextBuild:
    def test_isa_tag_is_part_of_the_object_name(self, monkeypatch, tmp_path):
        """A cache directory shared between machines must not hand one
        host's -march=native object to another."""
        from repro.backends import cext

        monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
        cc = cext.find_compiler()
        here = cext._build_key(cc)
        assert here == cext._build_key(cc)  # stable, and no build needed to name it
        monkeypatch.setattr(cext, "_isa_tag", lambda: "x86_64-0badcafe")
        assert cext._build_key(cc) != here

    def test_a_compiler_wrapper_keeps_compilers_apart(self, tmp_path):
        """ccache puts `gcc` and `clang` symlinks to itself first on PATH:
        both resolve to one binary, and must still name different objects."""
        from repro.backends import cext

        wrapper = tmp_path / "ccache"
        wrapper.write_bytes(b"\x7fELF")
        for name in ("gcc", "clang"):
            (tmp_path / name).symlink_to(wrapper)
        assert cext._build_key(str(tmp_path / "gcc")) != cext._build_key(str(tmp_path / "clang"))

    def test_isa_tag_names_the_machine(self):
        import platform

        from repro.backends import cext

        assert cext._isa_tag().startswith(platform.machine())

    def test_rejected_host_flag_still_builds_and_agrees(self, monkeypatch, tmp_path):
        """A compiler that does not take the host-ISA flag gets the
        generic lowering, which is the same kernel."""
        from repro.backends import cext

        monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
        monkeypatch.setattr(cext, "_HOST_ISA_FLAGS", ("-march=no-such-cpu",))
        so_path = cext.build()
        assert so_path.parent == tmp_path and so_path.exists()
        fns = cext._entry_points(ctypes.CDLL(str(so_path)))
        monkeypatch.setattr(cext, "load", lambda: fns)
        params, system, neigh = sic_workload()
        rn = TersoffProduction(params, backend="numpy").compute(system, neigh)
        rc = TersoffProduction(params, backend="compiled").compute(system, neigh)
        assert_tracks(rc, rn)

    def test_build_failure_reports_the_compiler_output(self, monkeypatch, tmp_path):
        from repro.backends import cext

        monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
        monkeypatch.setattr(cext, "_CFLAGS", cext._CFLAGS + ("-fno-such-option",))
        with pytest.raises(cext.CextBuildError, match="no-such-option"):
            cext.build()
        assert list(tmp_path.iterdir()) == []  # no half-written object left behind

    def test_build_info_names_scheme_lanes_and_isa(self):
        from repro.backends import cext

        info = cext.build_info()
        assert info["scheme"] == "1a" and info["lanes"] == 4
        assert info["isa"] and info["isa"].isascii()


@needs_compiled
class TestIsaIndependence:
    """Lanes are the algorithm, the ISA is only speed: the baseline
    lowering of the four lanes and the host's return the same bits.
    What lets bitwise restarts and `serve`'s answers-vs-direct check
    survive a move to another host."""

    @pytest.fixture(scope="class")
    def lowerings(self, tmp_path_factory):
        from repro.backends import cext

        tmp = tmp_path_factory.mktemp("lowerings")
        try:
            host = _variant(tmp, "host", cext._HOST_ISA_FLAGS)
        except AssertionError:
            pytest.skip("compiler rejects the host-ISA flag: one lowering only")
        return _variant(tmp, "baseline", ()), host

    @pytest.mark.parametrize("periodic", ["ppp", "fff"])
    @pytest.mark.parametrize("precision", ["double", "mixed"])
    @pytest.mark.parametrize("workload", [si_workload, sic_workload], ids=["si", "sic"])
    def test_baseline_and_host_lowering_are_bitwise_equal(self, lowerings, monkeypatch,
                                                          workload, precision, periodic):
        from repro.backends import cext

        params, system, _ = workload()
        system = with_periodicity(system, PERIODICITIES[periodic])
        neigh = build_list(system, params.max_cutoff)
        results = []
        for fns in lowerings:
            monkeypatch.setattr(cext, "load", lambda fns=fns: fns)
            pot = TersoffProduction(params, precision=precision, backend="compiled")
            res = pot.compute(system, neigh)
            results.append((res, kernel_sums(pot)))
        (base, base_sums), (host, host_sums) = results
        assert_bitwise(host, base)
        assert np.array_equal(host_sums, base_sums)  # pair, j and k virial sums
        assert_same_counts(host, base)
        assert host.stats["backend"] == base.stats["backend"]

    @pytest.mark.parametrize("periodic", ["ppp", "fff"])
    @pytest.mark.parametrize("precision", ["double", "mixed"])
    def test_sw_baseline_and_host_lowering_are_bitwise_equal(self, lowerings, monkeypatch,
                                                             precision, periodic):
        from repro.backends import cext

        params, system, _ = sw_workload()
        system = with_periodicity(system, PERIODICITIES[periodic])
        neigh = build_list(system, params.cut)
        results = []
        for fns in lowerings:
            monkeypatch.setattr(cext, "load", lambda fns=fns: fns)
            pot = StillingerWeberProduction(params, precision=precision, backend="compiled")
            results.append((pot.compute(system, neigh), kernel_sums(pot)))
        (base, base_sums), (host, host_sums) = results
        assert_bitwise(host, base)
        assert np.array_equal(host_sums, base_sums)
        assert host.stats["backend"] == base.stats["backend"]


# ------------------------------------------ atoms I on threads: no bit moves


def assert_same_call(res, sums, ref, ref_sums):
    """Everything a call returns but the thread count itself."""
    assert_bitwise(res, ref)
    assert np.array_equal(sums, ref_sums)
    assert_same_counts(res, ref)
    for key in ("kernel_invocations", "lane_occupancy"):
        assert res.stats["backend"][key] == ref.stats["backend"][key], key


@pytest.fixture
def every_call_threads(monkeypatch):
    """The grain keeps systems of this file's size on one thread; without
    it 216 atoms are four chunks of rows — 64, 64, 64 and a partial 24 —
    for up to four threads to claim."""
    from repro.backends import cext

    monkeypatch.setattr(cext, "THREAD_GRAIN", 1)


@needs_compiled
@pytest.mark.usefixtures("every_call_threads")
class TestThreadInvariance:
    """Threads never define physics: the rows are claimed in fixed
    chunks, every chunk's sums are reduced in chunk order and every force
    is gathered in list order, so one, two, three and four threads — more
    than this host may have cores — and any assignment of chunks to them
    return the same bits."""

    @staticmethod
    def run(params, system, neigh, threads, precision="double"):
        pot = TersoffProduction(params, precision=precision, backend="compiled")
        pot.kernel.threads = threads
        res = pot.compute(system, neigh)
        # the job was opened for that many threads (never more than chunks)
        assert res.stats["backend"]["threads"] == min(threads, -(-system.n // 64))
        return res, kernel_sums(pot)

    @pytest.mark.parametrize("periodic", list(PERIODICITIES))
    @pytest.mark.parametrize("precision", ["double", "mixed"])
    @pytest.mark.parametrize("workload", [si_workload, sic_workload], ids=["si", "sic"])
    def test_bitwise_for_one_to_four_threads(self, workload, precision, periodic):
        params, system, _ = workload(cells=3)
        system = with_periodicity(system, PERIODICITIES[periodic])
        neigh = build_list(system, params.max_cutoff)
        assert system.n % 64  # the last chunk is partial
        ref, ref_sums = self.run(params, system, neigh, 1, precision)
        for threads in (2, 3, 4):
            for _ in range(3):  # who claims which chunk differs run to run
                res, sums = self.run(params, system, neigh, threads, precision)
                assert_same_call(res, sums, ref, ref_sums)

    @pytest.mark.parametrize("periodic", list(PERIODICITIES))
    @pytest.mark.parametrize("precision", ["double", "mixed"])
    def test_sw_bitwise_for_one_to_four_threads(self, precision, periodic):
        """SW runs on the same walker: the same chunks, reductions and
        gather, so the same invariance."""
        params, system, _ = sw_workload()
        system = with_periodicity(system, PERIODICITIES[periodic])
        neigh = build_list(system, params.cut)

        def run(threads):
            pot = StillingerWeberProduction(params, precision=precision, backend="compiled")
            pot.kernel.threads = threads
            res = pot.compute(system, neigh)
            assert res.stats["backend"]["threads"] == min(threads, -(-system.n // 64))
            return res, kernel_sums(pot)

        ref, ref_sums = run(1)
        for threads in (2, 3, 4):
            for _ in range(3):
                assert_same_call(*run(threads), ref, ref_sums)

    @pytest.mark.parametrize("precision", ["double", "mixed"])
    def test_decomposed_rank_with_blanked_ghost_rows(self, precision):
        """An asymmetric list: ghosts are named by rows and have none."""
        from repro.md.neighbor import NeighborSettings
        from repro.parallel.decomposition import DomainDecomposition

        params, system, _ = si_workload(cells=3)
        dd = DomainDecomposition(system, 2, halo=params.max_cutoff + 1.0)
        settings = NeighborSettings(cutoff=params.max_cutoff, skin=1.0, full=True)
        for dom in dd.domains:
            neigh, _ = dd.ensure_local_list(dom.rank, settings)
            assert dom.n_ghost > 0 and np.all(neigh.counts()[dom.n_owned:] == 0)
            ref, ref_sums = self.run(params, dom.local_system, neigh, 1, precision)
            assert ref.forces[dom.n_owned:].any()  # gathered onto atoms without a row
            for threads in (2, 3, 4):
                res, sums = self.run(params, dom.local_system, neigh, threads, precision)
                assert_same_call(res, sums, ref, ref_sums)

    @pytest.mark.parametrize("brute", [False, True], ids=["binned", "brute-force"])
    def test_restored_list(self, brute):
        """A list that came back through `set_state` — C-built, or the
        numpy O(n^2) build with its rows in another order — is transposed
        from what the kernel sees, like any other."""
        from repro.md.neighbor import NeighborList

        params, system, _ = sic_workload(cells=3)
        built = build_list(system, params.max_cutoff, brute=brute)
        restored = NeighborList(built.settings)
        restored.set_state(built.get_state(), system.box)
        ref, ref_sums = self.run(params, system, built, 1)
        for threads in (1, 2, 3, 4):
            res, sums = self.run(params, system, restored, threads)
            assert_same_call(res, sums, ref, ref_sums)

    @pytest.mark.parametrize("full", [True, False], ids=["full", "half"])
    @pytest.mark.parametrize("case", ["lattice", "open-box", "crowded"])
    def test_neighbor_build_for_one_to_four_threads(self, monkeypatch, case, full):
        """The C list build fills its rows in chunks of 64, each chunk into
        its own slice of the output, and moves the slices together in row
        order: one, two, three and four threads write the numpy build's
        arrays.  A crowded corner leaves every slice short and is built
        again with room, threads and all."""
        from repro.backends import cext
        from repro.md.neighbor import NeighborList, NeighborSettings, _numpy_csr

        fns, opened = cext.load(), []

        def spy(*args):  # the threads each call was opened for, from info[0]
            total = fns["neighbor_build"](*args)
            opened.append(ctypes.c_int64.from_address(args[-1]).value)
            return total

        monkeypatch.setattr(cext, "load", lambda: {**fns, "neighbor_build": spy})
        rng = np.random.default_rng(7)
        if case == "lattice":
            s = perturbed(diamond_lattice(4, 4, 4), 0.3, seed=3)
            x, box = s.x, s.box
        elif case == "open-box":
            box = Box(np.array([-2.0, 1.0, 0.0]), np.array([19.0, 25.5, 16.0]), (True, False, True))
            x = rng.uniform(box.lo - 1.5, box.hi + 1.5, size=(900, 3))
        else:
            box = Box.cubic(60.0)
            x = rng.uniform(0.0, 6.0, size=(300, 3))
        settings_ = NeighborSettings(cutoff=3.0, skin=1.0, full=full)
        offsets, neighbors = _numpy_csr(x, box, settings_.list_cutoff, full, False)
        for threads in (1, 2, 3, 4):
            for _ in range(3):  # who fills which chunk differs run to run
                opened.clear()
                nl = NeighborList(settings_)
                nl.threads = threads
                nl.build(x, box)
                assert np.array_equal(nl.offsets, offsets)
                assert np.array_equal(nl.neighbors, neighbors)
                assert set(opened) == {min(threads, -(-x.shape[0] // 64))}
                assert len(opened) == (2 if case == "crowded" else 1)

    def test_first_error_is_the_lowest_atoms(self):
        """Two faults in different chunks: whoever gets to its chunk
        first, the error of the lower rows is the one reported."""
        params, system, neigh = si_workload(cells=3)
        rows = np.repeat(np.arange(system.n), neigh.counts())
        high = next(e for e in range(neigh.n_pairs)
                    if rows[e] >= 192 and neigh.neighbors[e] >= 192)
        a, b = int(rows[high]), int(neigh.neighbors[high])
        system.x[a] = system.x[b]  # a coincident pair in the last chunk

        def failure(threads):
            pot = TersoffProduction(params, backend="compiled")
            pot.kernel.threads = threads
            with pytest.raises(ValueError) as caught:
                pot.compute(system, neigh)
            return type(caught.value), str(caught.value)

        from repro.core.pipeline import DegenerateGeometryError

        alone = failure(1)
        assert alone == (DegenerateGeometryError,
                         str(DegenerateGeometryError(min(a, b), max(a, b))))
        system.x[10] = np.nan  # and a non-finite atom in the first
        first = failure(1)
        assert first[0] is ValueError and "non-finite" in first[1]
        for threads in (2, 3, 4):
            for _ in range(5):
                assert failure(threads) == first


#: what every lifecycle script starts with: threads on small systems, one
#: evaluation, and an engine whose ranks keep the template's thread count
#: (the engine itself would give each of two workers half the host)
LIFECYCLE_PRELUDE = textwrap.dedent("""
    import copy
    import numpy as np
    from test_backends import si_workload, sic_workload
    from repro.backends import cext
    from repro.core.tersoff.production import TersoffProduction
    from repro.parallel.engine import ParallelEngine, WorkerHost
    from repro.parallel.executor import ProcessExecutor

    cext.THREAD_GRAIN = 1
    WorkerHost._rank_potential = lambda self: copy.deepcopy(self.potential)

    def evaluate(workload, threads):
        params, system, neigh = workload
        pot = TersoffProduction(params, backend="compiled")
        pot.kernel.threads = threads
        res = pot.compute(system, neigh)
        return res.energy, res.forces, res.stats["backend"]["threads"]

    def engine_steps(cells, executor, threads, steps=1):
        params, system, _ = si_workload(cells=cells)
        pot = TersoffProduction(params, backend="compiled")
        pot.kernel.threads = threads
        rng, out = np.random.default_rng(31), []
        with ParallelEngine(system.copy(), pot, workers=2, ranks=2, executor=executor) as eng:
            x = system.x.copy()
            for _ in range(steps):
                step = eng.compute(x)
                out.append((step.energy, step.forces.copy()))
                x = x + 0.01 * rng.standard_normal(x.shape)
        return out

    def same(a, b):
        return a[0] == b[0] and np.array_equal(a[1], b[1])
""")


def run_isolated(code, *, timeout=180):
    """The prelude and `code` in a fresh interpreter that must finish: a
    hung pool is a failed test, not a hung suite (no pytest-timeout here)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"),
                                                       str(REPO_ROOT / "tests")])}
    proc = subprocess.run([sys.executable, "-c", LIFECYCLE_PRELUDE + textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "OK"


@needs_compiled
class TestPoolLifecycle:
    """The pool outlives calls, is shared by every kernel of the process
    and knows nothing of Python: what happens around it — fork, spawn,
    concurrent callers, resizing, a restricted CPU set, exit — is tested
    from outside, each in its own interpreter with a timeout."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_engine_workers_after_a_threaded_call_in_the_parent(self, start_method):
        """A forked child inherits "helpers started" and no helper; its
        ranks thread all the same (the prelude's patch travels with the
        fork) and start their own."""
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method")
        run_isolated(f"""
            if __name__ == "__main__":
                assert evaluate(si_workload(cells=3), 3)[2] == 3  # helpers are up
                pooled = engine_steps(3, ProcessExecutor(2, start_method={start_method!r}), 3)
                assert same(pooled[0], engine_steps(3, "serial", 1)[0])
                assert evaluate(si_workload(cells=3), 3)[2] == 3  # and still are
                print("OK")
            """)

    @pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"),
                        reason="needs fork and /proc")
    def test_forked_child_starts_its_own_helpers(self):
        """Not merely "does not hang": the child's calls are threaded
        again, on helpers of its own."""
        run_isolated("""
            import os, signal

            before = len(os.listdir("/proc/self/task"))  # numpy may have its own
            workload = si_workload(cells=3)  # its list build may start helpers too
            ref = evaluate(workload, 4)
            assert len(os.listdir("/proc/self/task")) == before + 3
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)  # a child that hangs must not outlive the test
                alone = len(os.listdir("/proc/self/task"))
                res = evaluate(workload, 4)
                grown = len(os.listdir("/proc/self/task"))
                os._exit(0 if same(res, ref) and res[2] == 4 and (alone, grown) == (1, 4) else 1)
            assert os.waitpid(pid, 0)[1] == 0
            assert same(evaluate(workload, 4), ref)
            print("OK")
            """)

    def test_concurrent_callers_never_wait_for_each_other(self):
        """Two `ThreadExecutor` ranks that may each use three threads:
        whoever finds the pool taken runs its chunks alone — same bits."""
        run_isolated("""
            import sys

            sys.setswitchinterval(1e-5)
            threaded, serial = engine_steps(4, "thread", 3, 40), engine_steps(4, "serial", 1, 40)
            assert all(same(a, b) for a, b in zip(threaded, serial))
            print("OK")
            """)

    def test_resizing_and_regrowing_neither_hangs_nor_leaks(self):
        """500 calls over thread counts 1..4 and two sizes: the pool
        grows to three helpers and stays there, the scratch regrows."""
        run_isolated("""
            import os

            def tasks():
                return len(os.listdir("/proc/self/task"))

            workloads = si_workload(cells=3), si_workload(cells=4)
            pot = TersoffProduction(workloads[0][0], backend="compiled")
            refs = [evaluate(w, 1) for w in workloads]
            before = tasks()
            for call in range(500):
                which = (call // 3) % 2
                pot.kernel.threads = 1 + call % 4
                res = pot.compute(*workloads[which][1:])
                assert same((res.energy, res.forces), refs[which]), call
            assert pot.kernel._ws.grow_events > 4
            assert tasks() <= before + 3, (before, tasks())
            print("OK")
            """)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
    def test_one_allowed_cpu(self):
        """`taskset -c 0`: the share resolves to one thread; an explicit
        four still runs (helpers have nowhere else to go) and agrees."""
        run_isolated("""
            import os

            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            workload = sic_workload(cells=3)
            auto, one, four = (evaluate(workload, t) for t in (None, 1, 4))
            assert (auto[2], one[2], four[2]) == (1, 1, 4)
            assert same(auto, one) and same(four, one)
            print("OK")
            """)

    @pytest.mark.parametrize("nap", [0.0, 0.05], ids=["spinning", "asleep"])
    def test_exit_with_parked_helpers_is_clean(self, nap):
        """Helpers poll, then sleep; neither state delays or dirties the
        interpreter's exit."""
        run_isolated(f"""
            import time

            assert evaluate(si_workload(cells=3), 4)[2] == 4
            time.sleep({nap})  # the spin budget is 2 ms
            print("OK")
            """, timeout=60)


# ------------------------------------------------------- in-kernel exp/log/...

VM_KINDS = {"exp": 0, "log": 1, "pow": 2, "sin": 3, "cos": 4}
VM_DTYPES = {"f64": np.float64, "f32": np.float32}
#: exp domain: down to the last normal result, up to the zeta-exponent clamp
VM_EXP_RANGE = {"f64": (-708.0, 69.0), "f32": (-87.0, 69.0)}
# measured worst case over 4e6 points per function (error in units of the
# result's spacing, against numpy in the next precision up), pinned with margin
VM_EXP_ULP = 2        # measured 1.06 (f32; f64 1.00)
VM_LOG_ULP = 2        # measured 0.82
VM_SIN_ULP = 4        # measured 2.0
VM_COS_EPS = 2        # |err| / eps(1) on [-pi/2, pi/2], measured 1.1: cos is
                      # absolute-accurate (Taylor), it vanishes at the edge
#: pow = exp(y log x): its error grows with |y log x|.  Over everything
#: b_ij can feed it — tmp in [c4, c1] (1e-22 .. 1e20), y in {n, -n, n-1},
#: and (1 + tmp^n)^(-1/2n) — measured 33 (f64) / 57 (f32); 112 at the
#: 1e-300 floor; where a solid's beta*zeta lives tmp^n reads 19 and the
#: bond order (1 + tmp^n)^(-1/2n) 0.5
VM_POW_ULP = {"f64": 64, "f32": 96}
VM_POW_FLOOR_ULP = 192


def vmath(kind, x, y=None, prec="f64"):
    """`kind` of x (and y) through the kernel's vector lanes."""
    from repro.backends import cext

    dtype = VM_DTYPES[prec]
    x = np.ascontiguousarray(x, dtype=dtype)
    y = x if y is None else np.ascontiguousarray(np.broadcast_to(y, x.shape), dtype=dtype)
    out = np.empty_like(x)
    code = cext.load()[f"vmath_{prec}"](VM_KINDS[kind], x.size, x.ctypes.data, y.ctypes.data,
                                        out.ctypes.data)
    assert code == 0
    return out


def spacing_err(got, exact):
    """|got - exact| in units of the spacing of got's dtype at `exact`;
    `exact` is in the next precision up."""
    ref = exact.astype(got.dtype)
    return np.max(np.abs(got.astype(exact.dtype) - exact) / np.spacing(np.abs(ref)))


def bij_pow_cases(params, prec):
    """(base, exponent) over everything `ters_bij_both` raises to a power
    for one parameter set, branch edges included."""
    dtype = VM_DTYPES[prec]
    rng = np.random.default_rng(11)
    flat = params.flat()
    rows = sorted(set(zip(*(getattr(flat, f).tolist() for f in ("n", "c1", "c2", "c3", "c4")))))
    for n, c1, c2, c3, c4 in rows:
        edges = np.array([c1, c2, c3, c4], dtype=dtype)
        tmp = np.concatenate([np.exp(rng.uniform(np.log(c4), np.log(c1), 20000)).astype(dtype),
                              edges, np.nextafter(edges, dtype(0)), np.nextafter(edges, dtype(np.inf))])
        for y in (n, -n, n - 1.0):
            yield tmp, dtype(y)
        inner = tmp[(tmp >= c3) & (tmp <= c2)]
        yield dtype(1.0) + vmath("pow", inner, dtype(n), prec), dtype(-1.0 / (2.0 * n))


@needs_compiled
@pytest.mark.parametrize("prec", ["f64", "f32"])
class TestVectorMath:
    """The polynomial kernels of `_vmath.h` against numpy one precision
    up (longdouble for the double lanes, double for the float lanes)."""

    @staticmethod
    def wide(x):
        return x.astype(np.longdouble if x.dtype == np.float64 else np.float64)

    def check(self, kind, x, prec, bound, y=None):
        x = np.asarray(x, dtype=VM_DTYPES[prec])
        got = vmath(kind, x, y, prec)
        fn = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos}.get(kind)
        exact = fn(self.wide(x)) if fn else np.power(self.wide(x), self.wide(np.asarray(y)))
        if kind == "cos":
            err = np.max(np.abs(self.wide(got) - exact)) / np.finfo(got.dtype).eps
        else:
            err = spacing_err(got, exact)
        assert err <= bound, (kind, prec, float(err))

    def test_worst_case_over_dense_samples(self, prec):
        dtype, rng, n = VM_DTYPES[prec], np.random.default_rng(5), 200_000
        lo, hi = VM_EXP_RANGE[prec]
        self.check("exp", np.concatenate([rng.uniform(lo, hi, n), rng.uniform(-12.0, 0.0, n),
                                          [lo, hi, 0.0, -0.0, 1e-30, -1e-30]]), prec, VM_EXP_ULP)
        tiny, huge = np.finfo(dtype).tiny, np.finfo(dtype).max
        self.check("log", np.concatenate([np.exp(rng.uniform(np.log(tiny), np.log(huge), n)),
                                          rng.uniform(0.5, 2.0, n), 1.0 + rng.uniform(0, 1e-3, n),
                                          [tiny, 1.0, 2.0, 0.5]]), prec, VM_LOG_ULP)
        angle = np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, n), rng.uniform(-1e-3, 1e-3, n),
                                [-np.pi / 2, np.pi / 2, 0.0, 1e-10, -1e-10]])
        self.check("sin", angle, prec, VM_SIN_ULP)
        self.check("cos", angle, prec, VM_COS_EPS)

    @pytest.mark.parametrize("params", [tersoff_si, tersoff_sic], ids=["si", "sic"])
    def test_pow_over_what_the_bond_order_feeds_it(self, prec, params):
        for base, y in bij_pow_cases(params(), prec):
            self.check("pow", base, prec, VM_POW_ULP[prec], y=y)

    def test_pow_at_the_zeta_floor(self, prec):
        """tmp_safe = max(beta*zeta, 1e-300): a normal double, zero in float."""
        if prec == "f32":
            assert np.float32(1.0e-300) == 0.0  # never fed: tmp < c4 takes the unit branch
            return
        for y in (0.78734, -0.78734, 0.78734 - 1.0):
            self.check("pow", np.full(4, 1.0e-300), prec, VM_POW_FLOOR_ULP, y=y)
        # n = 22.956 (Si(B)): under- and overflow saturate instead of trapping
        assert np.array_equal(vmath("pow", np.full(4, 1.0e-300), 22.956), np.zeros(4))
        assert np.array_equal(vmath("pow", np.full(4, 1.0e-300), -22.956), np.full(4, np.inf))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_input_in_range_meets_the_bounds(self, prec, data):
        width = 64 if prec == "f64" else 32
        lo, hi = VM_EXP_RANGE[prec]

        def draw(a, b, **kw):
            return data.draw(st.lists(st.floats(a, b, width=width, **kw), min_size=1, max_size=9))

        self.check("exp", draw(lo, hi), prec, VM_EXP_ULP)
        tiny = float(np.finfo(VM_DTYPES[prec]).tiny)
        self.check("log", draw(tiny, float(np.finfo(VM_DTYPES[prec]).max)), prec, VM_LOG_ULP)
        half_pi = float(np.nextafter(VM_DTYPES[prec](np.pi / 2), VM_DTYPES[prec](0)))
        angle = draw(-half_pi, half_pi)
        self.check("sin", angle, prec, VM_SIN_ULP)
        self.check("cos", angle, prec, VM_COS_EPS)

    @settings(max_examples=40, deadline=None)
    @given(poison=st.lists(st.integers(0, 31), min_size=1, max_size=16, unique=True),
           value=st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0, 1e30]),
           kind=st.sampled_from(sorted(VM_KINDS)), n=st.integers(29, 32))
    def test_a_poisoned_lane_never_leaks(self, prec, poison, value, kind, n):
        """Whatever a masked-off or padded lane holds, every other lane's
        result is bitwise unchanged; a ragged tail is padded, not read."""
        dtype = VM_DTYPES[prec]
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 1.5, 32).astype(dtype)
        y = rng.uniform(-2.0, 2.0, 32).astype(dtype)
        clean = vmath(kind, x, y, prec)
        bad_x, bad_y = x.copy(), y.copy()
        bad_x[poison] = value
        bad_y[poison] = value
        got = vmath(kind, bad_x[:n], bad_y[:n], prec)
        keep = np.setdiff1d(np.arange(n), poison)
        assert np.array_equal(got[keep], clean[keep])


# ------------------------------------------------- engine × compiled backend


@needs_compiled
class TestEngineWithCompiledBackend:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_across_worker_counts(self, workers):
        """Physics depends only on ranks; compiled workers must agree
        bitwise with compiled workers=1 for the same decomposition."""
        from repro.parallel.engine import ParallelEngine

        params, system, _ = si_workload(cells=3)

        def run(w):
            pot = TersoffProduction(params, backend="compiled")
            with ParallelEngine(system.copy(), pot, workers=w, ranks=4) as eng:
                step = eng.compute(system.x)
                return step.energy, step.forces.copy()

        e1, f1 = run(1)
        ew, fw = run(workers)
        assert e1 == ew
        assert np.array_equal(f1, fw)

    @pytest.mark.parametrize("workers,share", [(1, 8), (2, 4), (3, 2), (16, 1)])
    def test_a_rank_threads_over_its_workers_share_of_the_host(self, monkeypatch, workers,
                                                               share):
        """Workers run side by side, so each rank's kernel gets the usable
        cores divided by them — `--workers 2` on two cores is one thread
        per rank — and the caller's template is left alone."""
        from repro.md.neighbor import NeighborSettings
        from repro.parallel import engine

        monkeypatch.setattr(engine, "usable_cores", lambda: 8)
        params, system, _ = si_workload()
        for backend in ("compiled", "numpy"):  # a kernel without threads is left alone
            pot = TersoffProduction(params, backend=backend)
            host = engine.WorkerHost(
                arrays={}, box=system.box, mass=system.mass, species=system.species,
                potential=pot, settings=NeighborSettings(cutoff=params.max_cutoff),
                workers=workers)
            host.handle("ranks", [{"rank": 0, "n_owned": system.n, "types": system.type}])
            kernel = host.states[0].potential.kernel
            assert kernel is not pot.kernel
            if backend == "compiled":
                assert (kernel.threads, pot.kernel.threads) == (share, None)
            else:
                assert not hasattr(kernel, "threads")

    def test_serial_executor_matches_process(self):
        from repro.parallel.engine import ParallelEngine

        params, system, _ = si_workload(cells=3)

        def run(executor):
            pot = TersoffProduction(params, backend="compiled")
            with ParallelEngine(system.copy(), pot, workers=2, ranks=2,
                                executor=executor) as eng:
                step = eng.compute(system.x)
                return step.energy, step.forces.copy()

        es, fs = run("serial")
        ep, fp = run(None)
        assert es == ep
        assert np.array_equal(fs, fp)

    def test_thread_executor_matches_serial(self):
        """ctypes drops the GIL, so two ranks really run the C kernel at
        once: scratch must be per kernel instance, never per module."""
        from repro.parallel.engine import ParallelEngine

        params, system, _ = si_workload(cells=4)
        rng = np.random.default_rng(31)

        def run(executor):
            pot = TersoffProduction(params, backend="compiled")
            out = []
            with ParallelEngine(system.copy(), pot, workers=2, ranks=2,
                                executor=executor) as eng:
                x = system.x.copy()
                for _ in range(5):
                    step = eng.compute(x)
                    out.append((step.energy, step.forces.copy()))
                    x = x + 0.01 * rng.standard_normal(x.shape)
            return out

        rng = np.random.default_rng(31)
        serial = run("serial")
        rng = np.random.default_rng(31)
        threaded = run("thread")
        for (es, fs), (et, ft) in zip(serial, threaded):
            assert es == et
            assert np.array_equal(fs, ft)


# ------------------------------------------------------------------- hygiene


class TestLintClean:
    def test_new_modules_lint_clean(self):
        """KA001–KA005 over the backends package and the executor: new
        hot-path code starts clean."""
        from repro.analysis.engine import run_lint

        res = run_lint(
            [
                REPO_ROOT / "src" / "repro" / "backends",
                REPO_ROOT / "src" / "repro" / "parallel" / "executor.py",
            ],
            root=REPO_ROOT,
        )
        assert res.errors == []
        assert res.findings == [], [f"{f.path}:{f.line} {f.rule} {f.message}" for f in res.findings]
