"""MD substrate: the LAMMPS-like simulation engine the paper builds upon.

The paper (Sec. II) assumes a molecular-dynamics code that provides atoms,
periodic boxes, skin-extended Verlet neighbor lists, velocity-Verlet time
integration and per-stage timers.  LAMMPS provides those in C++; this
package provides them from scratch in numpy.

Public surface
--------------
- :mod:`repro.md.units` — LAMMPS "metal" unit system and constants.
- :mod:`repro.md.box` — periodic orthogonal simulation box.
- :mod:`repro.md.lattice` — crystal builders (diamond-cubic silicon, ...).
- :mod:`repro.md.atoms` — structure-of-arrays atom storage.
- :mod:`repro.md.neighbor` — binned Verlet neighbor lists with skin.
- :mod:`repro.md.integrate` — NVE / Langevin integrators.
- :mod:`repro.md.thermo` — temperature, kinetic energy, virial pressure.
- :mod:`repro.md.pair_lj` — Lennard-Jones baseline pair potential (Alg. 1).
- :mod:`repro.md.simulation` — the timestep driver with LAMMPS-style timers.
"""
