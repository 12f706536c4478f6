"""FIRE minimizer."""

import numpy as np
import pytest

from conftest import build_list
from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.minimize import fire_minimize


class TestFire:
    def test_relaxes_perturbed_crystal(self):
        params = tersoff_si()
        pot = TersoffProduction(params)
        system = perturbed(diamond_lattice(2, 2, 2), 0.12, seed=31)
        perfect = diamond_lattice(2, 2, 2)
        nl = build_list(perfect, pot.cutoff)
        e_perfect = pot.compute(perfect, nl).energy
        res = fire_minimize(system, pot, force_tolerance=1e-5)
        assert res.converged, f"FIRE failed: max|F|={res.max_force}"
        assert res.energy == pytest.approx(e_perfect, abs=1e-4)
        assert res.max_force < 1e-5

    def test_energy_monotone_overall(self):
        params = tersoff_si()
        pot = TersoffProduction(params)
        system = perturbed(diamond_lattice(2, 2, 2), 0.1, seed=32)
        res = fire_minimize(system, pot, force_tolerance=1e-4)
        assert res.energy_trace[-1] < res.energy_trace[0]

    def test_already_minimal_returns_immediately(self):
        params = tersoff_si()
        pot = TersoffProduction(params)
        system = diamond_lattice(2, 2, 2)
        res = fire_minimize(system, pot, force_tolerance=1e-6)
        assert res.converged and res.iterations == 0

    def test_iteration_cap_reported(self):
        params = tersoff_si()
        pot = TersoffProduction(params)
        system = perturbed(diamond_lattice(2, 2, 2), 0.2, seed=33)
        res = fire_minimize(system, pot, force_tolerance=1e-12, max_iterations=5)
        assert not res.converged and res.iterations == 5

    def test_rejects_bad_tolerance(self):
        params = tersoff_si()
        with pytest.raises(ValueError):
            fire_minimize(diamond_lattice(2, 2, 2), TersoffProduction(params), force_tolerance=0.0)

    def test_relaxed_vacancy_formation_energy(self):
        """The relaxed vacancy energy must be positive and below the
        unrelaxed one (relaxation releases energy).  SW relaxed vacancy
        formation is ~4.6 eV in the literature; accept a broad band for
        the small unrelaxed-boundary cell."""
        sw = sw_silicon()
        pot = StillingerWeberProduction(sw)
        perfect = diamond_lattice(3, 3, 3)
        nl = build_list(perfect, pot.cutoff)
        e_perfect = pot.compute(perfect, nl).energy
        defect = perfect.select(np.arange(perfect.n) != 40)
        nl_d = build_list(defect, pot.cutoff)
        e_unrelaxed = pot.compute(defect, nl_d).energy
        res = fire_minimize(defect, pot, force_tolerance=5e-4)
        assert res.converged
        e_relaxed = res.energy
        ratio = defect.n / perfect.n
        ef_unrelaxed = e_unrelaxed - ratio * e_perfect
        ef_relaxed = e_relaxed - ratio * e_perfect
        assert 0.0 < ef_relaxed <= ef_unrelaxed
        assert 2.0 < ef_relaxed < 6.0

