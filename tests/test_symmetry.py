"""Crystal-symmetry properties of the force fields.

The diamond lattice's cubic point group gives exact expectations for
how energies and forces must transform — an end-to-end invariance check
independent of any reference implementation.  Tersoff's rotations and
translations are checked on every backend, precision and thread count by
``tests/test_invariants.py``; what stays here is SW and the inversion
(on the numpy oracle)."""

import numpy as np
import pytest

from conftest import build_list
from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.md.atoms import AtomSystem
from repro.md.lattice import diamond_lattice, perturbed
from test_invariants import ROTATIONS


def rotated_system(system, rot):
    """Rotate a cubic-cell system by an axis-permutation matrix."""
    x = system.x @ rot.T
    box = system.box
    # axis permutations/reflections map the cube onto itself; re-wrap
    new = AtomSystem(box=box, x=x, type=system.type.copy(),
                     species=system.species, mass=system.mass.copy())
    new.wrap()
    return new


@pytest.fixture(scope="module")
def disturbed():
    return perturbed(diamond_lattice(2, 2, 2), 0.12, seed=91)


class TestCubicInvariance:
    def test_sw_energy_invariant(self, disturbed):
        sw = sw_silicon()
        pot = StillingerWeberProduction(sw)
        nl = build_list(disturbed, sw.cut)
        base = pot.compute(disturbed, nl)
        rot = ROTATIONS[2]
        rotated = rotated_system(disturbed, rot)
        nl_r = build_list(rotated, sw.cut)
        res = pot.compute(rotated, nl_r)
        assert res.energy == pytest.approx(base.energy, rel=1e-11)

    def test_inversion_symmetry(self, disturbed):
        """Diamond has inversion centers: x -> -x maps the structure to
        itself, so energy is invariant and forces flip sign."""
        params = tersoff_si()
        pot = TersoffProduction(params, backend="numpy")
        nl = build_list(disturbed, params.max_cutoff)
        base = pot.compute(disturbed, nl)
        inverted = AtomSystem(box=disturbed.box, x=-disturbed.x,
                              type=disturbed.type.copy(),
                              species=disturbed.species, mass=disturbed.mass.copy())
        inverted.wrap()
        nl_i = build_list(inverted, params.max_cutoff)
        res = pot.compute(inverted, nl_i)
        assert res.energy == pytest.approx(base.energy, rel=1e-11)
        assert np.max(np.abs(res.forces + base.forces)) < 1e-9
