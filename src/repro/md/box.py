"""Orthogonal periodic simulation box.

LAMMPS' domain is an orthogonal box with per-axis periodicity.  The
Tersoff benchmarks are fully periodic, but the decomposition layer
(:mod:`repro.parallel.decomposition`) also slices boxes into non-periodic
subdomains, so periodicity is a per-axis flag here.

Positions are canonically wrapped into ``[lo, hi)``.  Displacement
vectors between atoms use the minimum-image convention, which is valid
while the interaction cutoff is below half the shortest periodic box
edge; :meth:`Box.check_cutoff` enforces that invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Box:
    """An orthogonal simulation box.

    Parameters
    ----------
    lo, hi:
        Box bounds, shape ``(3,)`` each, in Angstrom.
    periodic:
        Per-axis periodicity flags; fully periodic by default.
    """

    lo: np.ndarray
    hi: np.ndarray
    periodic: tuple[bool, bool, bool] = (True, True, True)
    _lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo = np.ascontiguousarray(self.lo, dtype=np.float64).reshape(3)
        hi = np.ascontiguousarray(self.hi, dtype=np.float64).reshape(3)
        if np.any(hi <= lo):
            raise ValueError(f"box must have positive extent, got lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "periodic", tuple(bool(p) for p in self.periodic))
        object.__setattr__(self, "_lengths", hi - lo)

    @classmethod
    def cubic(cls, edge: float, *, periodic: bool = True) -> "Box":
        """A cube ``[0, edge)^3``."""
        flag = (periodic,) * 3
        return cls(np.zeros(3), np.full(3, float(edge)), flag)

    @property
    def lengths(self) -> np.ndarray:
        """Edge lengths, shape ``(3,)``."""
        return self._lengths

    @property
    def volume(self) -> float:
        return float(np.prod(self._lengths))

    def check_cutoff(self, cutoff: float) -> None:
        """Raise if the minimum-image convention is invalid for `cutoff`."""
        per = np.array(self.periodic)
        if np.any(per) and cutoff * 2.0 > float(np.min(self._lengths[per])):
            raise ValueError(
                f"cutoff {cutoff} exceeds half the shortest periodic box edge "
                f"{float(np.min(self._lengths[per])) / 2.0}; minimum image invalid"
            )

    def wrap_inplace(self, x: np.ndarray) -> None:
        """Wrap positions into ``[lo, hi)`` along periodic axes, in place."""
        for axis in range(3):
            if self.periodic[axis]:
                span = self._lengths[axis]
                col = x[..., axis]
                col -= self.lo[axis]
                np.mod(col, span, out=col)
                col[col >= span] = 0.0  # a tiny negative's mod can round to `span`
                col += self.lo[axis]

    def minimum_image(self, delta: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vectors.

        Parameters
        ----------
        delta:
            Raw displacements ``x_b - x_a``, shape ``(..., 3)``.
        """
        delta = np.array(delta, dtype=np.float64, copy=True)
        for axis in range(3):
            if self.periodic[axis]:
                span = self._lengths[axis]
                col = delta[..., axis]
                col -= span * np.round(col / span)
        return delta

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Minimum-image distance between position arrays `a` and `b`."""
        d = self.minimum_image(np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64))
        return np.sqrt(np.sum(d * d, axis=-1))
