"""Full virial stress tensor of the production Tersoff solver (the numpy
oracle).

Trace = scalar virial and the strain derivative are checked over every
backend, precision and thread count by ``tests/test_invariants.py``."""

import numpy as np
import pytest

from conftest import build_list
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.thermo import pressure


@pytest.fixture(scope="module")
def pot():
    return TersoffProduction(tersoff_si(), backend="numpy")


def tensor_of(pot, system):
    nl = build_list(system, pot.cutoff)
    res = pot.compute(system, nl)
    return res, res.stats["virial_tensor"]


class TestTensor:
    def test_symmetric(self, pot):
        s = perturbed(diamond_lattice(2, 2, 2), 0.1, seed=42)
        _, w = tensor_of(pot, s)
        assert np.allclose(w, w.T, atol=1e-10)

    def test_hydrostatic_compression_isotropic(self, pot):
        """Uniform compression of the cubic crystal: diagonal equal,
        off-diagonal zero."""
        s = diamond_lattice(2, 2, 2, a=5.2)
        _, w = tensor_of(pot, s)
        diag = np.diag(w)
        assert diag[0] == pytest.approx(diag[1], rel=1e-8)
        assert diag[1] == pytest.approx(diag[2], rel=1e-8)
        off = w - np.diag(diag)
        assert np.max(np.abs(off)) < 1e-8 * abs(diag[0])
        assert np.all(diag > 0)  # compression pushes outward

    def test_uniaxial_strain_anisotropic(self, pot):
        """Stretching only z must load the zz component differently."""
        s = diamond_lattice(2, 2, 2)
        s2 = diamond_lattice(2, 2, 2)
        # strain z by +2%
        from repro.md.atoms import AtomSystem
        from repro.md.box import Box

        scale = np.array([1.0, 1.0, 1.02])
        box = Box(s2.box.lo * scale, s2.box.hi * scale)
        s2 = AtomSystem(box=box, x=s2.x * scale, type=s2.type,
                        species=s2.species, mass=s2.mass)
        _, w = tensor_of(pot, s2)
        assert w[2, 2] < w[0, 0]  # z under tension (negative contribution)
        assert w[0, 0] == pytest.approx(w[1, 1], rel=1e-6)

    def test_pressure_from_tensor_matches_thermo(self, pot):
        s = diamond_lattice(2, 2, 2, a=5.3)
        res, w = tensor_of(pot, s)
        p_scalar = pressure(s, res.virial)
        p_tensor = pressure(s, w)
        assert p_scalar == pytest.approx(p_tensor, rel=1e-10)
        assert p_scalar > 0  # compressed

    def test_pressure_magnitude_reasonable(self, pot):
        """~2% compression of Si (B ~ 98 GPa) -> P ~ 3B*strain ~ 6 GPa."""
        s = diamond_lattice(2, 2, 2, a=5.32)  # 2% linear compression
        res, _ = tensor_of(pot, s)
        p_gpa = pressure(s, res.virial) / 1.0e4
        assert 2.0 < p_gpa < 15.0
