"""Energy minimization: FIRE (Fast Inertial Relaxation Engine).

Bitzek et al., PRL 97, 170201 (2006) — the minimizer of choice in MD
codes (LAMMPS ``min_style fire``).  Used here for relaxed defect
energies and for preparing low-energy starting structures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.potential import Potential
from repro.md.units import DEFAULT_SKIN, FTM2V


@dataclass
class MinimizeResult:
    """Outcome of :func:`fire_minimize`."""

    converged: bool
    iterations: int
    energy: float
    max_force: float
    energy_trace: list


def fire_minimize(
    system: AtomSystem,
    potential: Potential,
    *,
    force_tolerance: float = 1.0e-4,
    max_iterations: int = 2000,
    dt_initial: float = 0.0005,
    dt_max: float = 0.005,
    skin: float = DEFAULT_SKIN,
    alpha0: float = 0.1,
    n_min: int = 5,
    f_inc: float = 1.1,
    f_dec: float = 0.5,
    f_alpha: float = 0.99,
) -> MinimizeResult:
    """Relax `system` in place until ``max |F| < force_tolerance`` (eV/A).

    Standard FIRE: integrate with velocity mixing
    ``v <- (1-alpha) v + alpha |v| F_hat``; accelerate while the power
    ``P = F . v`` stays positive, freeze and restart when it turns
    negative.
    """
    if force_tolerance <= 0.0:
        raise ValueError("force tolerance must be positive")
    neigh = NeighborList(NeighborSettings(cutoff=potential.cutoff, skin=skin,
                                          full=potential.needs_full_list))
    inv_m = (FTM2V / system.per_atom_mass())[:, None]
    system.v[:] = 0.0
    dt = dt_initial
    alpha = alpha0
    steps_since_negative = 0
    trace: list[float] = []

    neigh.ensure(system.x, system.box)
    res = potential.compute(system, neigh)
    forces = res.forces
    for iteration in range(1, max_iterations + 1):
        max_f = float(np.max(np.abs(forces))) if system.n else 0.0
        trace.append(res.energy)
        if max_f < force_tolerance:
            return MinimizeResult(True, iteration - 1, res.energy, max_f, trace)

        power = float(np.sum(forces * system.v))
        if power > 0.0:
            v_norm = float(np.linalg.norm(system.v))
            f_norm = float(np.linalg.norm(forces))
            if f_norm > 0.0:
                system.v[:] = (1.0 - alpha) * system.v + alpha * v_norm * forces / f_norm
            steps_since_negative += 1
            if steps_since_negative > n_min:
                dt = min(dt * f_inc, dt_max)
                alpha *= f_alpha
        else:
            system.v[:] = 0.0
            dt *= f_dec
            alpha = alpha0
            steps_since_negative = 0

        # semi-implicit Euler step (FIRE's standard integrator)
        system.v += dt * forces * inv_m
        system.x += dt * system.v
        system.wrap()
        neigh.ensure(system.x, system.box)
        res = potential.compute(system, neigh)
        forces = res.forces

    max_f = float(np.max(np.abs(forces))) if system.n else 0.0
    return MinimizeResult(False, max_iterations, res.energy, max_f, trace)
