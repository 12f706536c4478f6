"""Failure injection: the library must fail loudly, not wrongly.

The classic silent-corruption modes of MD codes — undersized neighbor
lists, half lists fed to many-body potentials, NaN positions, halos
narrower than the interaction range — must either raise or be
detectable."""

import numpy as np
import pytest

from conftest import build_list, needs_compiled
from repro.core.pipeline import DegenerateGeometryError
from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.core.tersoff.reference import TersoffReference
from repro.core.tersoff.vectorized import TersoffVectorized
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.pair_lj import LennardJones
from repro.md.pair_lj_vectorized import LennardJonesVectorized
from repro.parallel.decomposition import DomainDecomposition


@pytest.fixture(scope="module")
def system():
    return perturbed(diamond_lattice(3, 3, 3), 0.1, seed=71)


class TestUndersizedList:
    """A list built with a too-small cutoff would silently miss pairs."""

    @pytest.mark.parametrize("make_pot", [
        lambda p: TersoffReference(p),
        lambda p: TersoffProduction(p),
        lambda p: TersoffVectorized(p, isa="imci", scheme="1b"),
    ], ids=["reference", "production", "vectorized"])
    def test_rejected(self, system, make_pot):
        pot = make_pot(tersoff_si())
        small = build_list(system, 2.0)  # below the 3.0 Tersoff cutoff
        with pytest.raises(ValueError, match="below the"):
            pot.compute(system, small)

    def test_sw_rejected(self, system):
        pot = StillingerWeberProduction(sw_silicon())
        small = build_list(system, 2.0)
        with pytest.raises(ValueError, match="below the"):
            pot.compute(system, small)

    def test_exact_cutoff_accepted(self, system):
        params = tersoff_si()
        pot = TersoffProduction(params)
        nl = build_list(system, params.max_cutoff, skin=0.0)
        pot.compute(system, nl)  # no raise


class TestHalfList:
    def test_many_body_rejects_half_list(self, system):
        params = tersoff_si()
        pot = TersoffProduction(params)
        half = build_list(system, params.max_cutoff, full=False)
        with pytest.raises(ValueError, match="full neighbor list"):
            pot.compute(system, half)


class TestBadGeometry:
    def test_nan_positions_rejected(self):
        """NaN positions make the cutoff filter silently *drop* pairs
        (NaN compares False) — the filter must raise instead."""
        params = tersoff_si()
        s = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=72)
        nl = build_list(s, params.max_cutoff)
        s.x[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            TersoffProduction(params).compute(s, nl)

    @needs_compiled
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_nan_positions_rejected_compiled(self, bad, periodic):
        """The fused C kernel owns geometry and filter, so it owns this
        guard too (with and without the minimum-image branch)."""
        params = tersoff_si()
        s = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=72)
        if not periodic:
            s = AtomSystem(box=Box(s.box.lo, s.box.hi, (False,) * 3), x=s.x)
        nl = build_list(s, params.max_cutoff)
        s.x[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            TersoffProduction(params, backend="compiled").compute(s, nl)

    def test_nan_positions_rejected_sw(self):
        sw = sw_silicon()
        s = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=72)
        nl = build_list(s, sw.cut)
        s.x[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            StillingerWeberProduction(sw).compute(s, nl)

    def test_coincident_atoms_finite_or_nan_not_wrong(self):
        """Two atoms at the same site: every 1/r term is undefined, so
        the answer is one typed error naming the pair — never a
        silently-wrong finite energy, nor a RuntimeWarning and NaN forces."""
        self.check_coincident_atoms_rejected(TersoffProduction(tersoff_si(), backend="numpy"))

    @needs_compiled
    def test_coincident_atoms_rejected_compiled(self):
        """The same contract from the C kernel's error return."""
        self.check_coincident_atoms_rejected(TersoffProduction(tersoff_si(), backend="compiled"))

    @pytest.mark.parametrize("make_pot", [
        lambda: LennardJones(0.07, 2.0951, 4.2),
        lambda: LennardJonesVectorized(0.07, 2.0951, 4.2),
    ], ids=["lj", "lj_vectorized"])
    def test_coincident_atoms_rejected_lj(self, make_pot):
        """The pair baselines keep the contract too: the vectorized one
        works in r², the legacy one divides by it."""
        self.check_coincident_atoms_rejected(make_pot())

    @staticmethod
    def check_coincident_atoms_rejected(pot):
        import warnings

        x = np.array([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0], [7.4, 5.0, 5.0]])
        s = AtomSystem(box=Box.cubic(20.0, periodic=False), x=x)
        nl = NeighborList(NeighborSettings(cutoff=pot.cutoff, skin=0.5,
                                           full=pot.needs_full_list))
        nl.build(s.x, s.box, brute_force=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGeometryError, match="atoms 0 and 1 coincide") as exc:
                pot.compute(s, nl)
        assert exc.value.pair == (0, 1)
        assert isinstance(exc.value, ValueError)


class TestDecompositionGuards:
    def test_insufficient_halo_detectable(self):
        """A halo narrower than the list cutoff loses interactions; the
        result then *differs* from the serial one (the invariant the
        integration tests rely on) — verify the discrepancy is visible."""
        params = tersoff_si()
        system = perturbed(diamond_lattice(4, 4, 4), 0.1, seed=73)
        pot = TersoffProduction(params)
        nl = build_list(system, params.max_cutoff)
        serial = pot.compute(system, nl)
        dd_bad = DomainDecomposition(system, 8, halo=1.5)  # < cutoff+skin
        energy, _, _ = dd_bad.compute_forces(pot, skin=1.0)
        assert abs(energy - serial.energy) > 1e-6

    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError):
            DomainDecomposition(diamond_lattice(2, 2, 2), 0, halo=4.0)


class TestEngineNonFinite:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_refused_on_the_host_and_the_pool_survives(self, executor):
        """A NaN or inf position never reaches a worker (whose list build
        would raise there and take the pool down as a WorkerCrash): the
        host refuses it with the serial path's ValueError and the global
        index, on the first step and on a later one, and the next finite
        step is a fresh engine's, bit for bit."""
        from repro.parallel.engine import ParallelEngine

        s = perturbed(diamond_lattice(4, 4, 4), 0.05, seed=74)
        pot = TersoffProduction(tersoff_si())
        nan, inf = s.x.copy(), s.x.copy()
        nan[37, 2] = np.nan
        inf[300, 0] = -np.inf
        with ParallelEngine(s, pot, workers=2, ranks=2, executor=executor) as eng:
            with pytest.raises(ValueError, match="non-finite position of atom 37"):
                eng.compute(nan)
            eng.compute(s.x)
            for bad, atom in ((inf, 300), (nan, 37)):
                with pytest.raises(ValueError, match=f"non-finite position of atom {atom}"):
                    eng.compute(bad)
            assert not eng.closed
            step = eng.compute(s.x)
            got = (step.energy, step.virial, step.forces.copy(), step.generation)
        with ParallelEngine(s, pot, workers=2, ranks=2, executor=executor) as fresh:
            ref = fresh.compute(s.x)
        assert got[:2] == (ref.energy, ref.virial)
        assert got[2].tobytes() == ref.forces.tobytes()
        assert got[3] == 1


class TestSimulationGuards:
    def test_box_too_small_for_cutoff(self):
        from repro.md.simulation import Simulation

        params = tersoff_si()
        s = diamond_lattice(1, 1, 1)  # 5.43 A box < 2 * (3+1)
        pot = TersoffProduction(params)
        sim = Simulation(s, pot)
        with pytest.raises(ValueError, match="minimum image"):
            sim.compute_forces()
