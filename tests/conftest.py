"""Shared fixtures: small systems, parameterizations, neighbor lists.

Expensive objects (reference force results, lattices) are session-
scoped; tests must not mutate them — use ``.copy()`` when a test needs
to modify a system.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import backends
from repro.core.tersoff.parameters import tersoff_si, tersoff_sic
from repro.core.tersoff.reference import TersoffReference
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.lattice import diamond_lattice, perturbed, zincblende_sic
from repro.md.neighbor import NeighborList, NeighborSettings

needs_compiled = pytest.mark.skipif(
    not backends.is_available("compiled"), reason="compiled backend unavailable (no C toolchain)"
)


def make_cluster(n, *, species=("Si",), types=None, spread=2.4, seed=42, min_sep=1.9):
    """A random connected cluster of `n` atoms in a large open box."""
    rng = np.random.default_rng(seed)
    pts = [np.array([25.0, 25.0, 25.0])]
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 100000:
            raise RuntimeError("cluster generation failed")
        cand = pts[rng.integers(len(pts))] + rng.normal(scale=spread, size=3)
        if not np.all((cand > 2.0) & (cand < 48.0)):
            continue
        if min(np.linalg.norm(cand - p) for p in pts) > min_sep:
            pts.append(cand)
    box = Box.cubic(50.0, periodic=False)
    t = np.zeros(n, dtype=np.int32) if types is None else np.asarray(types, dtype=np.int32)
    mass = np.full(len(species), 28.0855)
    return AtomSystem(box=box, x=np.array(pts), type=t, species=species, mass=mass)


def build_list(system, cutoff, *, skin=1.0, full=True, brute=False):
    nl = NeighborList(NeighborSettings(cutoff=cutoff, skin=skin, full=full))
    nl.build(system.x, system.box, brute_force=brute)
    return nl


@pytest.fixture(scope="session")
def si_params():
    return tersoff_si()


@pytest.fixture(scope="session")
def sic_params():
    return tersoff_sic()


@pytest.fixture(scope="session")
def si_lattice_222():
    """64-atom perturbed Si diamond lattice (periodic)."""
    return perturbed(diamond_lattice(2, 2, 2), 0.15, seed=5)


@pytest.fixture(scope="session")
def sic_lattice():
    """64-atom perturbed zincblende SiC (two species)."""
    return perturbed(zincblende_sic(2, 2, 2), 0.10, seed=9)


@pytest.fixture(scope="session")
def si_neigh_222(si_params, si_lattice_222):
    return build_list(si_lattice_222, si_params.max_cutoff)


@pytest.fixture(scope="session")
def sic_neigh(sic_params, sic_lattice):
    return build_list(sic_lattice, sic_params.max_cutoff)


@pytest.fixture(scope="session")
def si_reference_222(si_params, si_lattice_222, si_neigh_222):
    """Reference (Algorithm 2) result on the 64-atom lattice — the oracle."""
    return TersoffReference(si_params).compute(si_lattice_222, si_neigh_222)


@pytest.fixture(scope="session")
def sic_reference(sic_params, sic_lattice, sic_neigh):
    return TersoffReference(sic_params).compute(sic_lattice, sic_neigh)
