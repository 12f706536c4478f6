"""Tersoff potential parameters, LAMMPS file format, and mixing rules.

A Tersoff parameterization is a table indexed by ordered element
triples ``(e_i, e_j, e_k)``: the *center* atom i, the *bonded* atom j,
and the *third* atom k (LAMMPS ``pair_style tersoff`` convention).  The
pair interaction (i,j) reads the ``(i,j,j)`` entry; the three-body
ζ(i,j,k) term reads ``(i,j,k)``, whose ``R``/``D`` cutoff applies to
the i-k distance.

Bundled parameter sets:

- ``Si(B)`` — Tersoff, PRB 37, 6991 (1988): the paper's reference [7].
- ``Si(C)`` — Tersoff, PRB 38, 9902 (1988): LAMMPS' ``Si.tersoff``,
  used by the standard benchmark the paper measures.
- ``C``     — Tersoff, PRL 61, 2879 (1988).
- ``Ge``    — Tersoff, PRB 39, 5566 (1989).
- multicomponent SiC / SiGe via the 1989 mixing rules with χ factors.

The paper's *scalar optimization #1* is "improve parameter lookup by
reducing indirection": :meth:`TersoffParams.flat` exports the table as
a struct-of-arrays block indexed by a single flattened type triple, the
layout the vectorized kernels gather from (and the reason adjacent
gathers appear in Sec. V-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TersoffEntry",
    "TersoffParams",
    "FlatParams",
    "ELEMENT_SETS",
    "tersoff_si_1988",
    "tersoff_si",
    "tersoff_carbon",
    "tersoff_germanium",
    "tersoff_sic",
    "tersoff_sige",
    "parse_lammps_tersoff",
    "format_lammps_tersoff",
]


@dataclass(frozen=True)
class TersoffEntry:
    """One (e1, e2, e3) line of a Tersoff parameter file.

    Field names follow LAMMPS: ``m gamma lam3 c d h n beta lam2 B R D
    lam1 A`` where ``h = cos(theta_0)``.  ``m`` must be 1 or 3.
    Derived quantities (cut, cutsq, the b_ij series switch-points
    c1..c4) are precomputed here once, as LAMMPS does in ``setup()``.
    """

    m: float
    gamma: float
    lam3: float
    c: float
    d: float
    h: float
    n: float
    beta: float
    lam2: float
    B: float
    R: float
    D: float
    lam1: float
    A: float
    # derived, filled in __post_init__
    cut: float = field(init=False)
    cutsq: float = field(init=False)
    c1: float = field(init=False)
    c2: float = field(init=False)
    c3: float = field(init=False)
    c4: float = field(init=False)

    def __post_init__(self) -> None:
        if int(self.m) not in (1, 3):
            raise ValueError(f"m must be 1 or 3, got {self.m}")
        if self.n <= 0.0 or self.d == 0.0 or self.D <= 0.0 or self.R <= 0.0:
            raise ValueError("invalid Tersoff parameters (n, d, R, D must be positive)")
        object.__setattr__(self, "cut", self.R + self.D)
        object.__setattr__(self, "cutsq", (self.R + self.D) ** 2)
        object.__setattr__(self, "c1", (2.0 * self.n * 1.0e-16) ** (-1.0 / self.n))
        object.__setattr__(self, "c2", (2.0 * self.n * 1.0e-8) ** (-1.0 / self.n))
        object.__setattr__(self, "c3", 1.0 / ((2.0 * self.n * 1.0e-8) ** (-1.0 / self.n)))
        object.__setattr__(self, "c4", 1.0 / ((2.0 * self.n * 1.0e-16) ** (-1.0 / self.n)))

    def as_line(self, e1: str, e2: str, e3: str) -> str:
        """Format as a LAMMPS ``*.tersoff`` line."""
        return (
            f"{e1:3s} {e2:3s} {e3:3s} "
            f"{self.m:.1f} {self.gamma:.6g} {self.lam3:.6g} {self.c:.6g} {self.d:.6g} "
            f"{self.h:.6g} {self.n:.6g} {self.beta:.6g} {self.lam2:.6g} {self.B:.6g} "
            f"{self.R:.6g} {self.D:.6g} {self.lam1:.6g} {self.A:.6g}"
        )


# Single-element parameter sets (fields in LAMMPS order).
ELEMENT_SETS: dict[str, TersoffEntry] = {
    # Tersoff, PRB 37, 6991 (1988) - "Si(B)", the paper's reference [7]
    "Si(B)": TersoffEntry(
        m=3, gamma=1.0, lam3=1.3258, c=4.8381, d=2.0417, h=0.0,
        n=22.956, beta=0.33675, lam2=1.3258, B=95.373, R=3.0, D=0.2,
        lam1=3.2394, A=3264.7,
    ),
    # Tersoff, PRB 38, 9902 (1988) - "Si(C)", LAMMPS Si.tersoff
    "Si": TersoffEntry(
        m=3, gamma=1.0, lam3=0.0, c=100390.0, d=16.217, h=-0.59825,
        n=0.78734, beta=1.1e-6, lam2=1.73222, B=471.18, R=2.85, D=0.15,
        lam1=2.4799, A=1830.8,
    ),
    # Tersoff, PRL 61, 2879 (1988) - carbon
    "C": TersoffEntry(
        m=3, gamma=1.0, lam3=0.0, c=38049.0, d=4.3484, h=-0.57058,
        n=0.72751, beta=1.5724e-7, lam2=2.2119, B=346.74, R=1.95, D=0.15,
        lam1=3.4879, A=1393.6,
    ),
    # Tersoff, PRB 39, 5566 (1989) - germanium
    "Ge": TersoffEntry(
        m=3, gamma=1.0, lam3=0.0, c=106430.0, d=15.652, h=-0.43884,
        n=0.75627, beta=9.0166e-7, lam2=1.7047, B=419.23, R=2.95, D=0.15,
        lam1=2.4451, A=1769.0,
    ),
}

# Tersoff 1989 interspecies strength factors.
_CHI: dict[frozenset[str], float] = {
    frozenset(("Si", "C")): 0.9776,
    frozenset(("Si", "Ge")): 1.00061,
}


def _chi(a: str, b: str) -> float:
    if a == b:
        return 1.0
    return _CHI.get(frozenset((a, b)), 1.0)


def _mixed_entry(ei: str, ej: str, ek: str, base: dict[str, TersoffEntry]) -> TersoffEntry:
    """Tersoff-1989 mixing for the (ei, ej, ek) table entry.

    - Angular terms (m, gamma, lam3, c, d, h) come from the center
      element ``ei`` alone (the bond-order function is a property of
      the center atom's environment).
    - Two-body strengths (A, B, lam1, lam2) and the b_ij exponents
      (n, beta) mix between ``ei`` and ``ej``.
    - The cutoff (R, D) of entry (i,j,k) applies to r_ik, so it mixes
      between ``ei`` and ``ek``.
    """
    pi, pj, pk = base[ei], base[ej], base[ek]
    return TersoffEntry(
        m=pi.m,
        gamma=pi.gamma,
        lam3=pi.lam3,
        c=pi.c,
        d=pi.d,
        h=pi.h,
        n=pi.n,
        beta=pi.beta,
        lam2=0.5 * (pi.lam2 + pj.lam2),
        B=_chi(ei, ej) * math.sqrt(pi.B * pj.B),
        R=math.sqrt(pi.R * pk.R),
        D=math.sqrt(pi.D * pk.D),
        lam1=0.5 * (pi.lam1 + pj.lam1),
        A=math.sqrt(pi.A * pj.A),
    )


@dataclass(frozen=True)
class FlatParams:
    """Struct-of-arrays parameter block for the vector kernels.

    All arrays have length ``ntypes**3`` and are indexed by the
    flattened triple ``(ti * ntypes + tj) * ntypes + tk``.  This is the
    reduced-indirection layout of scalar optimization #1 and the target
    of the adjacent-gather building block: the fields of one entry are
    adjacent in the conceptual parameter struct.
    """

    ntypes: int
    m: np.ndarray
    gamma: np.ndarray
    lam3: np.ndarray
    c: np.ndarray
    d: np.ndarray
    h: np.ndarray
    n: np.ndarray
    beta: np.ndarray
    lam2: np.ndarray
    B: np.ndarray
    R: np.ndarray
    D: np.ndarray
    lam1: np.ndarray
    A: np.ndarray
    cut: np.ndarray
    cutsq: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray

    def pair_index(self, ti, tj):
        """Flat index of the pair entry (ti, tj, tj)."""
        nt = self.ntypes
        return (np.asarray(ti) * nt + np.asarray(tj)) * nt + np.asarray(tj)

    def triple_index(self, ti, tj, tk):
        """Flat index of the triple entry (ti, tj, tk)."""
        nt = self.ntypes
        return (np.asarray(ti) * nt + np.asarray(tj)) * nt + np.asarray(tk)


class TersoffParams:
    """A complete parameterization for a set of species.

    Parameters
    ----------
    species:
        Element symbol per atom type, e.g. ``("Si", "C")``.
    table:
        Mapping from (e1, e2, e3) symbol triples to entries.  Every
        combination of the given species must be present.
    """

    def __init__(self, species: tuple[str, ...], table: dict[tuple[str, str, str], TersoffEntry]):
        self.species = tuple(species)
        for a in self.species:
            for b in self.species:
                for c in self.species:
                    if (a, b, c) not in table:
                        raise ValueError(f"missing Tersoff entry for triple {(a, b, c)}")
        self.table = dict(table)
        self._flat: FlatParams | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_elements(cls, species: tuple[str, ...], base: dict[str, TersoffEntry] | None = None) -> "TersoffParams":
        """Build the full triple table from per-element sets + mixing."""
        base = dict(ELEMENT_SETS if base is None else base)
        for s in species:
            if s not in base:
                raise KeyError(f"no bundled Tersoff parameters for element {s!r}")
        table = {
            (a, b, c): _mixed_entry(a, b, c, base)
            for a in species
            for b in species
            for c in species
        }
        return cls(species, table)

    # -- lookups ---------------------------------------------------------------

    def entry(self, ti: int, tj: int, tk: int) -> TersoffEntry:
        """Nested (high-indirection) lookup by type indices — the layout
        the *reference* implementation deliberately uses."""
        s = self.species
        return self.table[(s[ti], s[tj], s[tk])]

    @property
    def ntypes(self) -> int:
        return len(self.species)

    @property
    def max_cutoff(self) -> float:
        """Maximum R+D over all entries — the Sec. IV-D filter radius.

        "the filtering is based on the maximum cutoff of all the types
        of atoms in the system", which is the only radius that is safe
        for multi-species systems.
        """
        return max(e.cut for e in self.table.values())

    def flat(self) -> FlatParams:
        """The struct-of-arrays block (cached)."""
        if self._flat is None:
            nt = self.ntypes
            size = nt ** 3
            fields: dict[str, np.ndarray] = {
                name: np.zeros(size, dtype=np.float64)
                for name in (
                    "m gamma lam3 c d h n beta lam2 B R D lam1 A cut cutsq c1 c2 c3 c4".split()
                )
            }
            for ti, a in enumerate(self.species):
                for tj, b in enumerate(self.species):
                    for tk, c in enumerate(self.species):
                        e = self.table[(a, b, c)]
                        idx = (ti * nt + tj) * nt + tk
                        for name in fields:
                            fields[name][idx] = getattr(e, name)
            self._flat = FlatParams(ntypes=nt, **fields)
        return self._flat


# -- convenience constructors ----------------------------------------------------


def tersoff_si(variant: str = "Si") -> TersoffParams:
    """Single-species silicon (default: the Si(C) set LAMMPS benchmarks use)."""
    return TersoffParams.from_elements(("Si",), {"Si": ELEMENT_SETS[variant]})


def tersoff_si_1988() -> TersoffParams:
    """The paper's reference [7] parameterization, Si(B)."""
    return tersoff_si("Si(B)")


def tersoff_carbon() -> TersoffParams:
    return TersoffParams.from_elements(("C",))


def tersoff_germanium() -> TersoffParams:
    return TersoffParams.from_elements(("Ge",))


def tersoff_sic() -> TersoffParams:
    """Si + C with Tersoff-1989 mixing (chi = 0.9776)."""
    return TersoffParams.from_elements(("Si", "C"))


def tersoff_sige() -> TersoffParams:
    return TersoffParams.from_elements(("Si", "Ge"))


# -- LAMMPS file format -----------------------------------------------------------

_FIELDS = "m gamma lam3 c d h n beta lam2 B R D lam1 A".split()


def parse_lammps_tersoff(text: str, species: tuple[str, ...]) -> TersoffParams:
    """Parse LAMMPS ``*.tersoff`` file content.

    Handles comments (``#``) and line continuation by accumulating
    tokens until a full 17-token record is available (LAMMPS allows
    records to span lines).
    """
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) % 17:
        raise ValueError(f"tersoff file has {len(tokens)} tokens, not a multiple of 17")
    table: dict[tuple[str, str, str], TersoffEntry] = {}
    for off in range(0, len(tokens), 17):
        rec = tokens[off : off + 17]
        key = (rec[0], rec[1], rec[2])
        vals = [float(v) for v in rec[3:]]
        table[key] = TersoffEntry(**dict(zip(_FIELDS, vals)))
    return TersoffParams(species, table)


def load_tersoff_file(path, species: tuple[str, ...]) -> TersoffParams:
    """Parse a ``*.tersoff`` file from disk (LAMMPS format)."""
    from pathlib import Path

    return parse_lammps_tersoff(Path(path).read_text(), species)


def bundled_file(name: str):
    """Path of a parameter file shipped with the package.

    Available: ``Si.tersoff`` (the benchmark set), ``Si_1988.tersoff``
    (the paper's reference [7]), ``SiC.tersoff``, ``SiGe.tersoff``.
    """
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent.parent / "data" / name
    if not path.exists():
        available = sorted(p.name for p in path.parent.glob("*.tersoff"))
        raise FileNotFoundError(f"no bundled file {name!r}; available: {available}")
    return path


def format_lammps_tersoff(params: TersoffParams) -> str:
    """Serialize back to the LAMMPS file format (round-trips with parse)."""
    header = (
        "# Tersoff parameters generated by repro\n"
        "# e1 e2 e3 m gamma lam3 c d costheta0 n beta lam2 B R D lam1 A\n"
    )
    lines = [
        params.table[(a, b, c)].as_line(a, b, c)
        for a in params.species
        for b in params.species
        for c in params.species
    ]
    return header + "\n".join(lines) + "\n"
