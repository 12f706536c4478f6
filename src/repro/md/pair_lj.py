"""Lennard-Jones pair potential — the Algorithm 1 baseline.

The paper contrasts multi-body potentials with "well-studied pair
potentials" (Sec. I-II, Eq. 2-4, Algorithm 1).  This module implements
that baseline: a cut Lennard-Jones potential evaluated with the same
neighbor-list machinery, so the pair-vs-multi-body cost comparison and
the generic substrate tests have a reference point.

Supports energy-shifted cutoffs and per-type-pair coefficients with
Lorentz-Berthelot mixing.
"""

from __future__ import annotations

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList
from repro.md.potential import ForceResult, Potential


class LennardJones(Potential):
    """Cut (optionally shifted) 12-6 Lennard-Jones.

    Parameters
    ----------
    epsilon, sigma:
        Either scalars (single type) or ``(ntypes, ntypes)`` matrices.
    cutoff:
        Interaction cutoff in Angstrom.
    shift:
        If true, shift the energy so ``phi(cutoff) = 0`` (LAMMPS
        ``pair_modify shift yes``).
    """

    needs_full_list = False

    def __init__(self, epsilon, sigma, cutoff: float, *, shift: bool = False):
        self.epsilon = np.atleast_2d(np.asarray(epsilon, dtype=np.float64))
        self.sigma = np.atleast_2d(np.asarray(sigma, dtype=np.float64))
        if self.epsilon.shape != self.sigma.shape or self.epsilon.shape[0] != self.epsilon.shape[1]:
            raise ValueError("epsilon/sigma must be square matrices of equal shape")
        self.cutoff = float(cutoff)
        if self.cutoff <= 0.0:
            raise ValueError("cutoff must be positive")
        self.shift = bool(shift)

    @classmethod
    def mixed(cls, epsilon: np.ndarray, sigma: np.ndarray, cutoff: float, **kw) -> "LennardJones":
        """Build the pair matrices from per-type values (Lorentz-Berthelot)."""
        eps = np.asarray(epsilon, dtype=np.float64)
        sig = np.asarray(sigma, dtype=np.float64)
        eps_ij = np.sqrt(np.outer(eps, eps))
        sig_ij = 0.5 * (sig[:, None] + sig[None, :])
        return cls(eps_ij, sig_ij, cutoff, **kw)

    def _pair_energy_shift(self) -> np.ndarray:
        if not self.shift:
            return np.zeros_like(self.epsilon)
        sr6 = (self.sigma / self.cutoff) ** 6
        return 4.0 * self.epsilon * (sr6 * sr6 - sr6)

    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        i_idx, j_idx = neigh.pairs()
        x = system.x
        d = system.box.minimum_image(x[j_idx] - x[i_idx])
        r2 = np.einsum("ij,ij->i", d, d)
        within = r2 <= self.cutoff * self.cutoff
        i_idx, j_idx, d, r2 = i_idx[within], j_idx[within], d[within], r2[within]
        if not r2.all():
            from repro.core.pipeline import DegenerateGeometryError  # lazy: it imports repro.md

            first = int(np.nonzero(r2 == 0.0)[0][0])
            raise DegenerateGeometryError(int(i_idx[first]), int(j_idx[first]))

        ti, tj = system.type[i_idx], system.type[j_idx]
        eps = self.epsilon[ti, tj]
        sig2 = self.sigma[ti, tj] ** 2
        inv_r2 = 1.0 / r2
        sr2 = sig2 * inv_r2
        sr6 = sr2 * sr2 * sr2
        sr12 = sr6 * sr6

        e_pair = 4.0 * eps * (sr12 - sr6) - self._pair_energy_shift()[ti, tj]
        # dphi/dr * (1/r): force magnitude over distance
        f_over_r = 24.0 * eps * (2.0 * sr12 - sr6) * inv_r2
        fvec = f_over_r[:, None] * d

        forces = np.zeros((system.n, 3))
        # full lists visit every unordered pair twice
        scale = 0.5 if neigh.settings.full else 1.0
        energy = scale * float(np.sum(e_pair))
        for axis in range(3):
            # force on i is -f_over_r * d (d points i->j and phi decreases outward)
            forces[:, axis] -= np.bincount(i_idx, weights=fvec[:, axis], minlength=system.n)
            if not neigh.settings.full:
                forces[:, axis] += np.bincount(j_idx, weights=fvec[:, axis], minlength=system.n)
        virial = scale * float(np.sum(np.einsum("ij,ij->i", d, fvec)))
        return ForceResult(energy=energy, forces=forces, virial=virial)
