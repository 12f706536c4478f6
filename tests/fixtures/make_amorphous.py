"""Make the disordered cells of ``tests/test_invariants.py``.

A seeded melt-quench of 216 diamond Si atoms (the Langevin stages of
``examples/silicon_melt.py``), relaxed by FIRE to a 216-atom amorphous
Si cell, and a copy with 15 % of its atoms turned into Ge at random and
relaxed again under the Si-Ge Tersoff set (kaldo's a-SiGe recipe:
stochastic replacement, then relaxation).  Both are written in the
``repro.state`` checkpoint format next to this script.

Everything runs on the numpy backend in double precision, the oracle:
the output does not depend on a C toolchain or its ISA.  A melt is
chaotic, so the committed files are the fixture, not this script; it is
kept to say how they were made.  Run from the repository root (~2 min on
one core):

    PYTHONPATH=src python tests/fixtures/make_amorphous.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import Simulation, TersoffProduction, diamond_lattice, tersoff_si, tersoff_sige
from repro.md.atoms import AtomSystem
from repro.md.integrate import Langevin
from repro.md.lattice import seeded_velocities
from repro.md.minimize import fire_minimize
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.units import ATOMIC_MASS
from repro.state import save_checkpoint

HERE = Path(__file__).resolve().parent
SEED = 2016
#: (target K, steps of 1 fs): melt, then a stepped quench
STAGES = ((5000.0, 3000), (3500.0, 3000), (2500.0, 3000), (2000.0, 3000), (1500.0, 3000),
          (1000.0, 3000), (300.0, 3000))
GE_FRACTION = 0.15


def potential(params):
    return TersoffProduction(params, precision="double", backend="numpy")


def melt_quench(params) -> AtomSystem:
    system = diamond_lattice(3, 3, 3)
    seeded_velocities(system, 300.0, seed=SEED)
    sim = Simulation(system, potential(params),
                     neighbor=NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    for k, (temperature, steps) in enumerate(STAGES):
        sim.thermostat = Langevin(temperature, damping=0.05, dt=sim.dt, seed=SEED + k)
        sim.run(steps)
    return system


def relax_and_save(system: AtomSystem, params, name: str, note: str) -> None:
    pot = potential(params)
    res = fire_minimize(system, pot, force_tolerance=1e-3, max_iterations=20000)
    if not res.converged:
        raise SystemExit(f"{name}: FIRE did not converge (max |F| {res.max_force:.3g})")
    sim = Simulation(system, pot, neighbor=NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    sim.compute_forces()
    save_checkpoint(sim, HERE / name, user_meta={"fixture": note, "seed": SEED})
    neigh = NeighborList(NeighborSettings(cutoff=2.7, skin=0.0))  # the example's bond length
    neigh.build(system.x, system.box)
    print(f"{name}: {system.n} atoms, E/atom {res.energy / system.n:.4f} eV, "
          f"{np.mean(neigh.counts() == 4):.0%} four-coordinated, "
          f"max |F| {res.max_force:.2e} eV/A after {res.iterations} FIRE steps")


def main() -> None:
    si = tersoff_si()
    system = melt_quench(si)
    relax_and_save(system, si, "a-si-216.ckpt", "a-Si: melt-quench + FIRE")

    rng = np.random.default_rng(SEED)
    types = np.zeros(system.n, dtype=np.int32)
    types[rng.choice(system.n, size=round(GE_FRACTION * system.n), replace=False)] = 1
    species = ("Si", "Ge")
    sige = AtomSystem(box=system.box, x=system.x.copy(), type=types, species=species,
                      mass=np.array([ATOMIC_MASS[s] for s in species]))
    relax_and_save(sige, tersoff_sige(), "a-sige-216.ckpt",
                   f"a-Si with {GE_FRACTION:.0%} Ge by stochastic replacement + FIRE")


if __name__ == "__main__":
    main()
