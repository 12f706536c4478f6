"""Crystal lattice builders and velocity initialisation.

The paper's benchmark (Sec. VI) is "a standard LAMMPS benchmark for the
simulation of Silicon atoms; ... the atoms are laid out in a regular
lattice so that each of them has exactly four nearest neighbors" — i.e.
a diamond-cubic silicon crystal.  :func:`diamond_lattice` reproduces
that workload at any size (the paper uses 32 000, 256 000, 512 000 and
2 000 000 atoms).

All builders return an :class:`~repro.md.atoms.AtomSystem` with a fully
periodic box and positions wrapped into it.
"""

from __future__ import annotations

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.units import ATOMIC_MASS, BOLTZMANN, MVV2E, SILICON_LATTICE_CONSTANT

# Fractional basis of the conventional cells.
_DIAMOND_BASIS = np.array(
    [
        [0.00, 0.00, 0.00],
        [0.50, 0.50, 0.00],
        [0.50, 0.00, 0.50],
        [0.00, 0.50, 0.50],
        [0.25, 0.25, 0.25],
        [0.75, 0.75, 0.25],
        [0.75, 0.25, 0.75],
        [0.25, 0.75, 0.75],
    ]
)
_FCC_BASIS = _DIAMOND_BASIS[:4]
_BCC_BASIS = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
_SC_BASIS = np.array([[0.0, 0.0, 0.0]])


def _build(
    basis: np.ndarray,
    a: float,
    nx: int,
    ny: int,
    nz: int,
    species: tuple[str, ...],
    type_pattern: np.ndarray | None,
) -> AtomSystem:
    if min(nx, ny, nz) < 1:
        raise ValueError("unit-cell counts must be >= 1")
    reps = np.stack(
        np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)
    # positions = (cell origin + basis) * a, row-major over cells then basis
    frac = reps[:, None, :] + basis[None, :, :]
    x = (frac * a).reshape(-1, 3)
    box = Box(np.zeros(3), np.array([nx, ny, nz], dtype=np.float64) * a)
    n = x.shape[0]
    if type_pattern is None:
        types = np.zeros(n, dtype=np.int32)
    else:
        pattern = np.asarray(type_pattern, dtype=np.int32)
        if pattern.shape != (basis.shape[0],):
            raise ValueError("type_pattern must have one entry per basis atom")
        types = np.tile(pattern, reps.shape[0])
    mass = np.array([ATOMIC_MASS.get(s, 28.0855) for s in species])
    system = AtomSystem(box=box, x=x, type=types, species=species, mass=mass)
    system.wrap()
    return system


def diamond_lattice(
    nx: int,
    ny: int,
    nz: int,
    *,
    a: float = SILICON_LATTICE_CONSTANT,
    species: tuple[str, ...] = ("Si",),
    type_pattern: np.ndarray | None = None,
) -> AtomSystem:
    """Diamond-cubic crystal, 8 atoms per conventional cell.

    With the default lattice constant this is the paper's silicon
    benchmark.  ``type_pattern`` assigns a type to each of the 8 basis
    atoms; alternating ``[0,0,0,0,1,1,1,1]`` with ``species=("Si","C")``
    produces zincblende SiC, which exercises the multi-element parameter
    mixing and the Sec. IV-D maximum-cutoff filtering.
    """
    return _build(_DIAMOND_BASIS, a, nx, ny, nz, species, type_pattern)


def zincblende_sic(nx: int, ny: int, nz: int, *, a: float = 4.3596) -> AtomSystem:
    """Zincblende SiC (Si on the fcc sites, C on the tetrahedral sites)."""
    pattern = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32)
    return diamond_lattice(nx, ny, nz, a=a, species=("Si", "C"), type_pattern=pattern)


def fcc_lattice(nx: int, ny: int, nz: int, *, a: float, species: tuple[str, ...] = ("Si",)) -> AtomSystem:
    """Face-centred-cubic crystal, 4 atoms per conventional cell."""
    return _build(_FCC_BASIS, a, nx, ny, nz, species, None)


def bcc_lattice(nx: int, ny: int, nz: int, *, a: float, species: tuple[str, ...] = ("Si",)) -> AtomSystem:
    """Body-centred-cubic crystal, 2 atoms per conventional cell."""
    return _build(_BCC_BASIS, a, nx, ny, nz, species, None)


def sc_lattice(nx: int, ny: int, nz: int, *, a: float, species: tuple[str, ...] = ("Si",)) -> AtomSystem:
    """Simple-cubic crystal, 1 atom per conventional cell."""
    return _build(_SC_BASIS, a, nx, ny, nz, species, None)


def cells_for_atoms(target_atoms: int, atoms_per_cell: int = 8) -> tuple[int, int, int]:
    """Unit-cell counts for a near-cubic system of roughly `target_atoms`.

    The paper quotes benchmarks by atom count (32k/256k/512k/2M); this
    helper converts an atom budget into ``(nx, ny, nz)``.
    """
    if target_atoms < atoms_per_cell:
        return (1, 1, 1)
    cells = target_atoms / atoms_per_cell
    edge = int(round(cells ** (1.0 / 3.0)))
    return (max(edge, 1),) * 3


def seeded_velocities(system: AtomSystem, temperature: float, seed: int = 12345) -> None:
    """Draw Maxwell-Boltzmann velocities at `temperature` (K), in place.

    Removes centre-of-mass motion and rescales so the instantaneous
    temperature equals the request exactly (LAMMPS ``velocity create``
    semantics).
    """
    if not np.isfinite(temperature):
        raise ValueError(f"temperature must be finite, got {temperature}")
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    rng = np.random.default_rng(seed)
    m = system.per_atom_mass()
    if temperature == 0.0 or system.n == 0:
        system.v[:] = 0.0
        return
    sigma = np.sqrt(BOLTZMANN * temperature / (m * MVV2E))
    system.v[:] = rng.normal(size=(system.n, 3)) * sigma[:, None]
    system.zero_momentum()
    current = system.temperature()
    if current > 0.0:
        system.v *= np.sqrt(temperature / current)


def perturbed(system: AtomSystem, amplitude: float, seed: int = 7) -> AtomSystem:
    """A copy of `system` with positions jittered uniformly by ±`amplitude`.

    Breaking the perfect lattice symmetry gives non-zero forces, which
    the force-validation tests need.
    """
    rng = np.random.default_rng(seed)
    out = system.copy()
    out.x += rng.uniform(-amplitude, amplitude, size=out.x.shape)
    out.wrap()
    return out
