"""Potential interface shared by pair and multi-body implementations.

A potential consumes positions plus a neighbor list and produces total
potential energy and per-atom forces.  Implementations must tolerate
*skin atoms* in the list (entries beyond the force cutoff) — exactly
the contract LAMMPS potentials satisfy, and the reason the paper's
filter/fast-forward machinery exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList


@dataclass
class ForceResult:
    """Output of one force evaluation.

    Attributes
    ----------
    energy:
        Total potential energy, eV.
    forces:
        Per-atom forces, shape ``(n, 3)``, eV/A, float64 regardless of
        compute precision (mixed precision accumulates in double).  The
        caller owns the array: a potential never writes it again.
    virial:
        Scalar virial ``sum r . f`` (eV) for pressure; optional.
    stats:
        Free-form per-evaluation statistics (instruction counts, lane
        utilization ...) used by the performance model.
    """

    energy: float
    forces: np.ndarray
    virial: float = 0.0
    stats: dict = field(default_factory=dict)


#: ``ForceResult.stats`` keys every production (staged-pipeline)
#: potential must provide; see :class:`Potential`.
STATS_CONTRACT = (
    "pairs_in_cutoff",
    "virial_tensor",
    "per_atom_energy",
    "timing",
    "cache",
)


class Potential:
    """Base class: energy/forces from positions and a neighbor list.

    Production implementations (everything running on
    :class:`~repro.core.pipeline.PipelinePotential`) additionally
    guarantee the :data:`STATS_CONTRACT` keys in
    ``ForceResult.stats``:

    ``pairs_in_cutoff``
        Number of interactions inside the force cutoff (int).
    ``virial_tensor``
        Symmetric ``(3, 3)`` float64 virial tensor whose trace matches
        the scalar ``virial``.
    ``per_atom_energy``
        ``(n,)`` float64 decomposition summing to ``energy``.
    ``timing``
        ``{"staging_s": ..., "kernel_s": ...}`` — the call's wall time
        split into list staging and the kernel (its filter included).
    ``cache``
        ``{"enabled": False}`` or the interaction-cache counters plus
        ``list_version`` (see
        :class:`~repro.core.pipeline.InteractionCache`).

    Reference and lane-simulator implementations are exempt (their
    stats carry instruction counts instead).
    """

    #: Force cutoff in Angstrom; the neighbor list must be built with at
    #: least this cutoff (plus skin).
    cutoff: float = 0.0

    #: Whether a full (both-directions) neighbor list is required.
    needs_full_list: bool = True

    def check_list(self, neigh: NeighborList) -> None:
        """Reject a neighbor list that cannot contain all interactions.

        A list built with a smaller cutoff silently *misses* pairs — the
        classic wrong-energy failure mode — so it is an error here.
        """
        if neigh.settings.cutoff < self.cutoff - 1.0e-12:
            raise ValueError(
                f"neighbor list cutoff {neigh.settings.cutoff} is below the "
                f"potential cutoff {self.cutoff}; interactions would be missed"
            )
        if self.needs_full_list and not neigh.settings.full:
            raise ValueError("this potential requires a full neighbor list")

    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        raise NotImplementedError

    def __call__(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        return self.compute(system, neigh)


def finite_difference_forces(
    potential: Potential,
    system: AtomSystem,
    neigh: NeighborList,
    *,
    h: float = 1.0e-5,
    atoms: np.ndarray | None = None,
) -> np.ndarray:
    """Central-difference forces, the oracle for analytic derivatives.

    Returns forces for the selected `atoms` (default: all), shape
    ``(len(atoms), 3)``.  The neighbor list is **not** rebuilt between
    displacements, matching how the analytic force treats the list as
    fixed; `h` must stay well below the skin for this to be exact.
    """
    idx = np.arange(system.n) if atoms is None else np.asarray(atoms)
    out = np.zeros((idx.shape[0], 3))
    work = system.copy()
    for row, a in enumerate(idx):
        for axis in range(3):
            orig = work.x[a, axis]
            work.x[a, axis] = orig + h
            e_plus = potential.compute(work, neigh).energy
            work.x[a, axis] = orig - h
            e_minus = potential.compute(work, neigh).energy
            work.x[a, axis] = orig
            out[row, axis] = -(e_plus - e_minus) / (2.0 * h)
    return out
