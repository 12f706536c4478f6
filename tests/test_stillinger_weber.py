"""Stillinger-Weber: FD validation, reference/production equality,
physics sanity, and the shared-machinery claim."""

import numpy as np
import pytest

from conftest import build_list, make_cluster
from repro.core.sw import StillingerWeberProduction, StillingerWeberReference, sw_silicon
from repro.core.sw.functional import phi2, phi3
from repro.core.sw.parameters import SWParams
from repro.core.sw.vectorized import StillingerWeberVectorized
from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities
from repro.md.neighbor import NeighborSettings
from repro.md.potential import finite_difference_forces
from repro.md.simulation import Simulation


@pytest.fixture(scope="module")
def sw():
    return sw_silicon()


@pytest.fixture(scope="module")
def lattice(sw):
    return perturbed(diamond_lattice(2, 2, 2), 0.12, seed=17)


@pytest.fixture(scope="module")
def lattice_list(sw, lattice):
    return build_list(lattice, sw.cut)


@pytest.fixture(scope="module")
def reference_result(sw, lattice, lattice_list):
    return StillingerWeberReference(sw).compute(lattice, lattice_list)


class TestParameters:
    def test_silicon_values(self, sw):
        assert sw.epsilon == pytest.approx(2.1683)
        assert sw.cut == pytest.approx(1.80 * 2.0951)
        assert sw.cos_theta0 == pytest.approx(-1.0 / 3.0)

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            SWParams(epsilon=-1, sigma=2, a=1.8, lam=21, gamma=1.2,
                     cos_theta0=-1 / 3, A=7, B=0.6, p=4, q=0)


class TestFunctional:
    def test_phi2_zero_beyond_cutoff(self, sw):
        e, de = phi2(np.array([sw.cut, sw.cut + 0.5]), sw)
        assert np.all(e == 0.0) and np.all(de == 0.0)

    def test_phi2_smooth_at_cutoff(self, sw):
        """The exponential tail kills value AND slope at a*sigma."""
        r = sw.cut - 1e-4
        e, de = phi2(r, sw)
        assert abs(float(e)) < 1e-10
        assert abs(float(de)) < 1e-4

    def test_phi2_derivative_fd(self, sw):
        for r in (2.0, 2.35, 3.0, 3.5):
            e_p, _ = phi2(r + 1e-6, sw)
            e_m, _ = phi2(r - 1e-6, sw)
            _, de = phi2(r, sw)
            assert float(de) == pytest.approx((float(e_p) - float(e_m)) / 2e-6, rel=1e-4)

    def test_phi3_zero_at_ideal_angle(self, sw):
        """cos(theta) = -1/3 (tetrahedral) zeroes the angular penalty."""
        e, *_ = phi3(2.35, 2.35, -1.0 / 3.0, sw)
        assert float(e) == 0.0

    def test_phi3_positive_off_angle(self, sw):
        e, *_ = phi3(2.35, 2.35, 0.2, sw)
        assert float(e) > 0.0

    def test_phi3_partials_fd(self, sw):
        rij, rik, cos_t = 2.4, 2.6, -0.1
        e0, de_drij, de_drik, de_dcos = phi3(rij, rik, cos_t, sw)
        h = 1e-6
        fd_rij = (float(phi3(rij + h, rik, cos_t, sw)[0]) - float(phi3(rij - h, rik, cos_t, sw)[0])) / (2 * h)
        fd_rik = (float(phi3(rij, rik + h, cos_t, sw)[0]) - float(phi3(rij, rik - h, cos_t, sw)[0])) / (2 * h)
        fd_cos = (float(phi3(rij, rik, cos_t + h, sw)[0]) - float(phi3(rij, rik, cos_t - h, sw)[0])) / (2 * h)
        assert float(de_drij) == pytest.approx(fd_rij, rel=1e-4)
        assert float(de_drik) == pytest.approx(fd_rik, rel=1e-4)
        assert float(de_dcos) == pytest.approx(fd_cos, rel=1e-4)

    def test_float32_preserved(self, sw):
        e, de = phi2(np.linspace(2, 3, 8, dtype=np.float32), sw)
        assert e.dtype == np.float32 and de.dtype == np.float32


class TestReference:
    def test_finite_difference(self, sw):
        pot = StillingerWeberReference(sw)
        s = make_cluster(6, seed=60)
        nl = build_list(s, sw.cut, brute=True)
        res = pot.compute(s, nl)
        fd = finite_difference_forces(pot, s, nl, h=1e-6)
        scale = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(res.forces - fd)) / scale < 1e-5

    def test_momentum_conserved(self, reference_result):
        assert np.allclose(reference_result.forces.sum(axis=0), 0.0, atol=1e-10)

    def test_cohesive_energy(self, sw):
        """SW silicon is fit to -4.3363 eV/atom at a0 = 5.431."""
        s = diamond_lattice(2, 2, 2)
        nl = build_list(s, sw.cut)
        res = StillingerWeberReference(sw).compute(s, nl)
        assert res.energy / s.n == pytest.approx(-4.3363, abs=0.01)

    def test_perfect_lattice_zero_force(self, sw):
        s = diamond_lattice(2, 2, 2)
        nl = build_list(s, sw.cut)
        res = StillingerWeberReference(sw).compute(s, nl)
        assert np.max(np.abs(res.forces)) < 1e-10
        # tetrahedral angles: the three-body term vanishes identically
        # only at the ideal angle; second-shell triples contribute 0
        # because they are beyond the cutoff


class TestProduction:
    def test_matches_reference(self, sw, lattice, lattice_list, reference_result):
        res = StillingerWeberProduction(sw).compute(lattice, lattice_list)
        assert res.energy == pytest.approx(reference_result.energy, rel=1e-12)
        assert np.max(np.abs(res.forces - reference_result.forces)) < 1e-11
        assert res.virial == pytest.approx(reference_result.virial, rel=1e-10)

    def test_matches_reference_cluster(self, sw):
        s = make_cluster(11, seed=61)
        nl = build_list(s, sw.cut, brute=True)
        a = StillingerWeberReference(sw).compute(s, nl)
        b = StillingerWeberProduction(sw).compute(s, nl)
        assert b.energy == pytest.approx(a.energy, rel=1e-12, abs=1e-12)
        assert np.max(np.abs(a.forces - b.forces)) < 1e-11

    def test_single_precision_close(self, sw, lattice, lattice_list, reference_result):
        res = StillingerWeberProduction(sw, precision="single").compute(lattice, lattice_list)
        assert abs(res.energy - reference_result.energy) / abs(reference_result.energy) < 1e-5

    def test_triplet_counts(self, sw):
        """On the pristine lattice (2nd shell at 3.84 A > cut 3.77 A):
        4 bonded neighbors -> C(4,2) = 6 unordered triples per atom."""
        s = diamond_lattice(2, 2, 2)
        nl = build_list(s, sw.cut)
        res = StillingerWeberProduction(sw).compute(s, nl)
        assert res.stats["triples"] == 6 * s.n
        assert res.stats["pairs_in_cutoff"] == 4 * s.n

    def test_empty(self, sw):
        s = make_cluster(2, seed=62, spread=8.0, min_sep=6.0)
        nl = build_list(s, sw.cut, brute=True)
        res = StillingerWeberProduction(sw).compute(s, nl)
        assert res.energy == 0.0


class TestDynamics:
    def test_nve_conservation(self, sw):
        system = diamond_lattice(2, 2, 2)
        seeded_velocities(system, 600.0, seed=5)
        sim = Simulation(system, StillingerWeberProduction(sw),
                         neighbor=NeighborSettings(cutoff=sw.cut, skin=1.0))
        res = sim.run(150, thermo_every=10)
        e = np.array([t.e_total for t in res.thermo])
        assert (e.max() - e.min()) / abs(e[0]) < 5e-5

    def test_sw_stiffer_than_tersoff_triples(self, sw):
        """Same substrate, different physics: on the same disturbed
        lattice both potentials restore the crystal (negative energy,
        finite forces) — the machinery is potential-agnostic."""
        from repro.core.tersoff.parameters import tersoff_si
        from repro.core.tersoff.production import TersoffProduction

        s = perturbed(diamond_lattice(2, 2, 2), 0.1, seed=18)
        nl_sw = build_list(s, sw.cut)
        nl_t = build_list(s, 3.0)
        r_sw = StillingerWeberProduction(sw).compute(s, nl_sw)
        r_t = TersoffProduction(tersoff_si()).compute(s, nl_t)
        assert r_sw.energy < 0 and r_t.energy < 0
        assert np.isfinite(r_sw.forces).all() and np.isfinite(r_t.forces).all()


class TestVectorized:
    """The lane-level generality claim: scheme (1b) machinery reused."""

    @pytest.fixture(scope="class")
    def vec_inputs(self, sw):
        s = perturbed(diamond_lattice(2, 2, 2), 0.12, seed=17)
        nl = build_list(s, sw.cut)
        ref = StillingerWeberReference(sw).compute(s, nl)
        return s, nl, ref

    @pytest.mark.parametrize("isa", ["avx", "avx2", "imci", "avx512", "cuda"])
    def test_matches_reference(self, isa, sw, vec_inputs):
        s, nl, ref = vec_inputs
        res = StillingerWeberVectorized(sw, isa=isa).compute(s, nl)
        assert res.energy == pytest.approx(ref.energy, rel=1e-11)
        assert np.max(np.abs(res.forces - ref.forces)) < 1e-10
        assert res.virial == pytest.approx(ref.virial, rel=1e-9)

    def test_fast_forward_off_identical(self, sw, vec_inputs):
        s, nl, ref = vec_inputs
        res = StillingerWeberVectorized(sw, isa="imci", fast_forward=False).compute(s, nl)
        assert res.energy == pytest.approx(ref.energy, rel=1e-11)

    def test_irregular_cluster(self, sw):
        from conftest import make_cluster

        s = make_cluster(12, seed=63)
        nl = build_list(s, sw.cut, brute=True)
        ref = StillingerWeberReference(sw).compute(s, nl)
        res = StillingerWeberVectorized(sw, isa="imci").compute(s, nl)
        assert res.energy == pytest.approx(ref.energy, rel=1e-10, abs=1e-12)
        assert np.max(np.abs(res.forces - ref.forces)) < 1e-10

    def test_single_precision_close(self, sw, vec_inputs):
        s, nl, ref = vec_inputs
        res = StillingerWeberVectorized(sw, isa="imci", precision="single").compute(s, nl)
        assert abs(res.energy - ref.energy) / abs(ref.energy) < 1e-5

    def test_counts_instructions(self, sw, vec_inputs):
        s, nl, _ = vec_inputs
        res = StillingerWeberVectorized(sw, isa="imci").compute(s, nl)
        st = res.stats
        assert st["cycles"] > 0 and st["kernel_invocations"] > 0
        assert 0.0 < st["utilization"] <= 1.0
