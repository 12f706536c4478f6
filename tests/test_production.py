"""Production wide path: reference equality, precision modes, FD,
filter statistics, and scaling behaviour.

These checks gate the numpy kernel, the oracle: the compiled kernel (the
default where it loads) is held to it by ``tests/test_backends.py`` and to
the physics by ``tests/test_invariants.py``."""

import numpy as np
import pytest

from conftest import build_list, make_cluster
from repro.core.tersoff.production import TersoffProduction
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.reference import TersoffReference
from repro.md.lattice import diamond_lattice
from repro.md.potential import finite_difference_forces
from repro.vector.precision import Precision


def production(params, **kwargs):
    return TersoffProduction(params, backend="numpy", **kwargs)


class TestEquality:
    def test_matches_reference(self, si_params, si_lattice_222, si_neigh_222, si_reference_222):
        res = production(si_params).compute(si_lattice_222, si_neigh_222)
        assert res.energy == pytest.approx(si_reference_222.energy, rel=1e-12)
        assert np.max(np.abs(res.forces - si_reference_222.forces)) < 1e-11
        assert res.virial == pytest.approx(si_reference_222.virial, rel=1e-10)

    def test_matches_reference_sic(self, sic_params, sic_lattice, sic_neigh, sic_reference):
        res = production(sic_params).compute(sic_lattice, sic_neigh)
        assert res.energy == pytest.approx(sic_reference.energy, rel=1e-12)
        assert np.max(np.abs(res.forces - sic_reference.forces)) < 1e-11

    def test_matches_on_open_cluster(self):
        params = tersoff_si()
        s = make_cluster(10, seed=30)
        nl = build_list(s, params.max_cutoff, brute=True)
        r_ref = TersoffReference(params).compute(s, nl)
        r = production(params).compute(s, nl)
        assert r.energy == pytest.approx(r_ref.energy, rel=1e-12)
        assert np.max(np.abs(r.forces - r_ref.forces)) < 1e-11

    def test_finite_difference_direct(self, si_params, si_lattice_222, si_neigh_222):
        pot = production(si_params)
        res = pot.compute(si_lattice_222, si_neigh_222)
        fd = finite_difference_forces(pot, si_lattice_222, si_neigh_222, atoms=np.arange(5), h=1e-6)
        assert np.max(np.abs(res.forces[:5] - fd)) < 2e-6

    def test_empty_pair_set(self, si_params):
        s = make_cluster(2, seed=31, spread=8.0, min_sep=6.0)
        nl = build_list(s, si_params.max_cutoff, brute=True)
        res = production(si_params).compute(s, nl)
        assert res.energy == 0.0
        assert np.all(res.forces == 0.0)


class TestPrecision:
    def test_single_close_to_double(self, si_params, si_lattice_222, si_neigh_222):
        rd = production(si_params, precision="double").compute(si_lattice_222, si_neigh_222)
        rs = production(si_params, precision="single").compute(si_lattice_222, si_neigh_222)
        assert abs(rs.energy - rd.energy) / abs(rd.energy) < 1e-5
        assert np.max(np.abs(rs.forces - rd.forces)) < 1e-2

    def test_mixed_between(self, si_params, si_lattice_222, si_neigh_222):
        rd = production(si_params, precision="double").compute(si_lattice_222, si_neigh_222)
        rm = production(si_params, precision=Precision.MIXED).compute(si_lattice_222, si_neigh_222)
        assert abs(rm.energy - rd.energy) / abs(rd.energy) < 1e-5

    def test_single_actually_rounds(self, si_params, si_lattice_222, si_neigh_222):
        """Opt-S must genuinely run in float32: the result must differ
        from the double result (else the mode is fake)."""
        rd = production(si_params, precision="double").compute(si_lattice_222, si_neigh_222)
        rs = production(si_params, precision="single").compute(si_lattice_222, si_neigh_222)
        assert rs.energy != rd.energy

    def test_invalid_precision_rejected(self, si_params):
        with pytest.raises(ValueError, match="unknown precision"):
            production(si_params, precision="half")

    def test_forces_always_float64_container(self, si_params, si_lattice_222, si_neigh_222):
        rs = production(si_params, precision="single").compute(si_lattice_222, si_neigh_222)
        assert rs.forces.dtype == np.float64


class TestFilterStats:
    def test_filter_efficiency(self, si_params, si_lattice_222, si_neigh_222):
        res = production(si_params).compute(si_lattice_222, si_neigh_222)
        st = res.stats
        # Si: 4 in-cutoff of 16 listed -> ~25-30% pass the filter
        assert 0.2 < st["filter_efficiency"] < 0.4
        assert st["pairs_in_cutoff"] == 256
        assert st["triples"] == 768

    def test_energy_extensive(self, si_params):
        """Doubling the crystal doubles the energy (linear scaling)."""
        pot = production(si_params)
        e_small = None
        for cells, factor in (((2, 2, 2), 1), ((4, 2, 2), 2)):
            s = diamond_lattice(*cells)
            nl = build_list(s, si_params.max_cutoff)
            e = pot.compute(s, nl).energy
            if e_small is None:
                e_small = e
            else:
                assert e == pytest.approx(factor * e_small, rel=1e-10)


class TestPhysics:
    def test_pristine_lattice_zero_force(self, si_params):
        s = diamond_lattice(2, 2, 2)
        nl = build_list(s, si_params.max_cutoff)
        res = production(si_params).compute(s, nl)
        assert np.max(np.abs(res.forces)) < 1e-10

    def test_compressed_lattice_positive_pressure(self, si_params):
        s = diamond_lattice(2, 2, 2, a=5.2)  # compressed below 5.431
        nl = build_list(s, si_params.max_cutoff)
        res = production(si_params).compute(s, nl)
        assert res.virial > 0.0

    def test_stretched_lattice_negative_pressure(self, si_params):
        s = diamond_lattice(2, 2, 2, a=5.65)
        nl = build_list(s, si_params.max_cutoff)
        res = production(si_params).compute(s, nl)
        assert res.virial < 0.0

    def test_equilibrium_lattice_constant(self, si_params):
        """Energy minimum sits at the fitted a0 = 5.432 A."""
        pot = production(si_params)
        energies = {}
        for a in (5.33, 5.43, 5.53):
            s = diamond_lattice(2, 2, 2, a=a)
            nl = build_list(s, si_params.max_cutoff)
            energies[a] = pot.compute(s, nl).energy
        assert energies[5.43] < energies[5.33]
        assert energies[5.43] < energies[5.53]
