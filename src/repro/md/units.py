"""LAMMPS "metal" unit system and physical constants.

All quantities in this repository use the LAMMPS ``metal`` convention,
the unit system LAMMPS selects for Tersoff simulations:

==============  =======================
quantity        unit
==============  =======================
length          Angstrom (A)
time            picosecond (ps)
energy          electron-volt (eV)
mass            gram/mole (g/mol)
temperature     Kelvin (K)
pressure        bar
velocity        A/ps
force           eV/A
==============  =======================

The only subtlety is the *mvv2e* conversion: kinetic energy computed as
``m v^2`` in (g/mol)(A/ps)^2 must be scaled to eV.  The constants below
match LAMMPS' ``update.cpp`` to the digits LAMMPS itself carries, so
temperatures and pressures are directly comparable to LAMMPS output.
"""

from __future__ import annotations

# Boltzmann constant in eV/K.
BOLTZMANN: float = 8.617343e-5

# Kinetic-energy conversion: (g/mol) * (A/ps)^2 -> eV.
MVV2E: float = 1.0364269e-4

# Force conversion used when integrating: (eV/A) / (g/mol) -> A/ps^2.
FTM2V: float = 1.0 / MVV2E

# Pressure conversion: eV/A^3 -> bar.
NKTV2P: float = 1.6021765e6

# Default Tersoff timestep, femtoseconds expressed in ps (LAMMPS metal
# default is 1 fs; the paper's Si benchmark uses this value).
DEFAULT_TIMESTEP_PS: float = 0.001

# Default neighbor-list skin (A) of runs, serve sessions and bare lists.
DEFAULT_SKIN: float = 1.0

# Atomic masses (g/mol) for the elements with bundled Tersoff parameters.
ATOMIC_MASS = {
    "Si": 28.0855,
    "C": 12.0107,
    "Ge": 72.64,
}

# Conventional diamond-cubic lattice constant of silicon in Angstrom,
# used by the standard LAMMPS Tersoff benchmark (bench/in.tersoff).
SILICON_LATTICE_CONSTANT: float = 5.431


def femtoseconds(fs: float) -> float:
    """Convert femtoseconds to metal-units time (picoseconds)."""
    return fs * 1.0e-3


def ns_per_day(timestep_ps: float, steps_per_second: float) -> float:
    """The paper's headline metric (Figs. 4-9): simulated ns per wall-day.

    Parameters
    ----------
    timestep_ps:
        Integration timestep in picoseconds.
    steps_per_second:
        Timesteps completed per wall-clock second.
    """
    ns_per_step = timestep_ps * 1.0e-3
    return ns_per_step * steps_per_second * 86400.0
