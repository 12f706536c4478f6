"""repro — reproduction of "The Vectorization of the Tersoff Multi-Body
Potential: An Exercise in Performance Portability" (Höhnerbach, Ismail,
Bientinesi; SC'16).

Quick start::

    from repro import tersoff_si, diamond_lattice, Simulation, TersoffProduction
    from repro.md.lattice import seeded_velocities

    system = diamond_lattice(8, 8, 8)           # 4096 Si atoms
    seeded_velocities(system, 1000.0)
    sim = Simulation(system, TersoffProduction(tersoff_si()))
    result = sim.run(100, thermo_every=10)

Packages
--------
:mod:`repro.md`
    The MD substrate (LAMMPS stand-in): boxes, lattices, neighbor
    lists, integrators, baseline pair potential, run driver.
:mod:`repro.core`
    The paper's contribution: the Tersoff potential in reference,
    scalar-optimized, wide-production and lane-simulated vectorized
    forms, plus the execution-mode/scheme policy.
:mod:`repro.vector`
    The portable vector abstraction: ISA registry, lane-faithful
    backend, the four building blocks, instruction-cost accounting.
:mod:`repro.parallel`
    Simulated MPI: domain decomposition, halo exchange, network models,
    cluster runs.
:mod:`repro.perf`
    The machines of Tables I-III and the cycles -> ns/day model.
:mod:`repro.harness`
    Experiment drivers regenerating every table and figure.
"""

import importlib

__version__ = "1.0.0"

#: defining module -> the public names ``repro`` serves from it.
_EXPORTS = {
    "repro.core.schemes": ("make_solver", "select_scheme"),
    "repro.core.tersoff.optimized": ("TersoffOptimized",),
    "repro.core.tersoff.parameters": (
        "TersoffParams", "tersoff_carbon", "tersoff_germanium", "tersoff_si",
        "tersoff_si_1988", "tersoff_sic", "tersoff_sige",
    ),
    "repro.core.tersoff.production": ("TersoffProduction",),
    "repro.core.tersoff.reference": ("TersoffReference",),
    "repro.core.tersoff.vectorized": ("TersoffVectorized",),
    "repro.md.atoms": ("AtomSystem",),
    "repro.md.box": ("Box",),
    "repro.md.lattice": ("diamond_lattice",),
    "repro.md.neighbor": ("NeighborList", "NeighborSettings"),
    "repro.md.pair_lj": ("LennardJones",),
    "repro.md.simulation": ("Simulation",),
    "repro.runtime.spec": ("MODES",),
    "repro.vector.backend": ("VectorBackend",),
    "repro.vector.isa": ("ISA", "get_isa", "list_isas"),
    "repro.vector.precision": ("Precision",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # PEP 562: `from repro import X` imports only the module defining X
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_HOME[name]), name)


__all__ = sorted(["__version__", *_HOME])
