"""Lattice builders: structure, nearest neighbors, velocity seeding."""

import numpy as np
import pytest

from repro.md.lattice import (
    bcc_lattice,
    cells_for_atoms,
    diamond_lattice,
    fcc_lattice,
    perturbed,
    sc_lattice,
    seeded_velocities,
    zincblende_sic,
)
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.units import SILICON_LATTICE_CONSTANT


class TestCounts:
    @pytest.mark.parametrize(
        "builder,per_cell",
        [(diamond_lattice, 8), (fcc_lattice, 4), (bcc_lattice, 2), (sc_lattice, 1)],
    )
    def test_atoms_per_cell(self, builder, per_cell):
        kw = {} if builder is diamond_lattice else {"a": 4.0}
        s = builder(2, 3, 4, **kw)
        assert s.n == 2 * 3 * 4 * per_cell

    def test_rejects_zero_cells(self):
        with pytest.raises(ValueError):
            diamond_lattice(0, 1, 1)

    def test_cells_for_atoms(self):
        assert cells_for_atoms(32_000) == (16, 16, 16)  # 16^3*8 = 32768
        assert cells_for_atoms(1) == (1, 1, 1)


class TestGeometry:
    def test_box_matches_cells(self):
        s = diamond_lattice(3, 2, 1)
        a = SILICON_LATTICE_CONSTANT
        assert np.allclose(s.box.lengths, [3 * a, 2 * a, a])

    def test_all_atoms_inside_box(self):
        s = diamond_lattice(2, 2, 2)
        assert np.all((s.x >= s.box.lo) & (s.x < s.box.hi))

    def test_diamond_four_nearest_neighbors(self):
        """The paper's benchmark property: each Si atom has exactly 4
        nearest neighbors (at a*sqrt(3)/4 = 2.35 A)."""
        s = diamond_lattice(3, 3, 3)
        nl = NeighborList(NeighborSettings(cutoff=2.6, skin=0.0))
        nl.build(s.x, s.box)
        assert np.all(nl.counts() == 4)

    def test_diamond_second_shell(self):
        """Second shell (12 atoms at a/sqrt(2) = 3.84) lands inside the
        skin-extended list at the benchmark settings."""
        s = diamond_lattice(3, 3, 3)
        nl = NeighborList(NeighborSettings(cutoff=3.0, skin=1.0))
        nl.build(s.x, s.box)
        assert np.all(nl.counts() == 16)  # 4 + 12

    def test_zincblende_alternates_types(self):
        s = zincblende_sic(2, 2, 2)
        assert s.species == ("Si", "C")
        assert np.count_nonzero(s.type == 0) == np.count_nonzero(s.type == 1)
        # every Si's nearest neighbors are all C
        nl = NeighborList(NeighborSettings(cutoff=2.1, skin=0.0))
        nl.build(s.x, s.box)
        for i in range(s.n):
            neigh_types = s.type[nl.neighbors_of(i)]
            assert np.all(neigh_types != s.type[i])


class TestVelocities:
    def test_seeded_temperature_exact(self):
        s = diamond_lattice(2, 2, 2)
        seeded_velocities(s, 800.0, seed=1)
        assert s.temperature() == pytest.approx(800.0, rel=1e-10)

    def test_zero_temperature(self):
        s = diamond_lattice(2, 2, 2)
        seeded_velocities(s, 0.0)
        assert np.all(s.v == 0)

    def test_momentum_free(self):
        s = diamond_lattice(2, 2, 2)
        seeded_velocities(s, 300.0, seed=2)
        p = (s.per_atom_mass()[:, None] * s.v).sum(axis=0)
        assert np.allclose(p, 0.0, atol=1e-9)

    def test_negative_temperature_rejected(self):
        s = diamond_lattice(1, 1, 1)
        with pytest.raises(ValueError):
            seeded_velocities(s, -1.0)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_non_finite_temperature_rejected(self, temperature):
        s = diamond_lattice(1, 1, 1)
        with pytest.raises(ValueError, match="temperature must be finite"):
            seeded_velocities(s, temperature)

    def test_deterministic_by_seed(self):
        s1, s2 = diamond_lattice(2, 2, 2), diamond_lattice(2, 2, 2)
        seeded_velocities(s1, 500.0, seed=9)
        seeded_velocities(s2, 500.0, seed=9)
        assert np.array_equal(s1.v, s2.v)


class TestPerturbed:
    def test_bounded_displacement(self):
        s = diamond_lattice(2, 2, 2)
        p = perturbed(s, 0.05, seed=3)
        d = s.box.minimum_image(p.x - s.x)
        assert np.max(np.abs(d)) <= 0.05 + 1e-12
        assert p.n == s.n

    def test_original_untouched(self):
        s = diamond_lattice(1, 1, 1)
        x0 = s.x.copy()
        perturbed(s, 0.3)
        assert np.array_equal(s.x, x0)
