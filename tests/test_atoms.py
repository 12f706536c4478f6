"""AtomSystem storage and bookkeeping."""

import numpy as np
import pytest

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.units import BOLTZMANN


def make(n=4, **kw):
    rng = np.random.default_rng(1)
    return AtomSystem(box=Box.cubic(20.0), x=rng.uniform(0, 20, size=(n, 3)), **kw)


class TestConstruction:
    def test_defaults(self):
        s = make(5)
        assert s.n == 5
        assert s.v.shape == (5, 3) and np.all(s.v == 0)
        assert s.f.shape == (5, 3)
        assert s.type.dtype == np.int32
        assert s.ntypes == 1
        assert np.array_equal(s.tag, np.arange(5))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            AtomSystem(box=Box.cubic(5.0), x=np.zeros((4, 2)))

    def test_rejects_type_out_of_range(self):
        with pytest.raises(ValueError, match="type index"):
            AtomSystem(box=Box.cubic(5.0), x=np.zeros((2, 3)),
                       type=np.array([0, 1], dtype=np.int32), species=("Si",))

    def test_rejects_species_mass_mismatch(self):
        with pytest.raises(ValueError, match="species and mass"):
            AtomSystem(box=Box.cubic(5.0), x=np.zeros((1, 3)),
                       species=("Si", "C"), mass=np.array([28.0]))

    def test_contiguous_float64(self):
        s = make(3)
        for arr in (s.x, s.v, s.f):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous


class TestDynamics:
    def test_kinetic_energy_formula(self):
        s = make(2, mass=np.array([10.0]))
        s.v[:] = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
        # 0.5 * mvv2e * m * v^2
        expected = 0.5 * 1.0364269e-4 * 10.0 * (1.0 + 4.0)
        assert s.kinetic_energy() == pytest.approx(expected)

    def test_temperature_roundtrip(self):
        s = make(50)
        s.v[:] = np.random.default_rng(3).normal(size=(50, 3))
        t = s.temperature()
        dof = 3 * 50 - 3
        assert t == pytest.approx(2 * s.kinetic_energy() / (dof * BOLTZMANN))

    def test_zero_momentum(self):
        s = make(10)
        s.v[:] = np.random.default_rng(4).normal(size=(10, 3)) + 5.0
        s.zero_momentum()
        p = (s.per_atom_mass()[:, None] * s.v).sum(axis=0)
        assert np.allclose(p, 0.0, atol=1e-10)

    def test_wrap_moves_into_box(self):
        s = make(4)
        s.x[0] = [25.0, -3.0, 7.0]
        s.wrap()
        assert np.all((s.x >= s.box.lo) & (s.x < s.box.hi))


class TestCopySelect:
    def test_copy_is_deep(self):
        s = make(4)
        c = s.copy()
        c.x[0, 0] += 1.0
        assert s.x[0, 0] != c.x[0, 0]
        assert c.species == s.species

    def test_select_subsets(self):
        s = make(6)
        mask = np.array([True, False, True, False, True, False])
        sub = s.select(mask)
        assert sub.n == 3
        assert np.array_equal(sub.tag, s.tag[mask])
        assert np.allclose(sub.x, s.x[mask])
