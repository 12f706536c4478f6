"""Pair/triplet preparation — the paper's *filter component* (Sec. IV-B).

The paper splits every vectorization scheme into a scalar *filter* that
feeds work and a vectorized *computational* component: "the data is
filtered to make sure that work is assigned to as many vector lanes as
possible before entering the vectorized part.  This means that the
interactions outside of the cutoff region never even reach the
computational component."

These helpers build exactly that filtered work list from the
skin-extended neighbor list:

- :func:`filter_list` — the one filter body: distances of every list
  entry, then one filtered pair set per cutoff (a per-type-pair table,
  a scalar such as the Sec. IV-D maximum cutoff, or none), inclusive or
  strict;
- :func:`build_pairs` — the same from a system and its list, by mode name;
- :func:`build_triplets` — the (pair, k) expansion used by the numpy
  kernels and by the vector schemes' dense-k layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.neighbor import NeighborList, incoming_index


class DegenerateGeometryError(ValueError):
    """Two atoms of one neighbor-list entry coincide (``r == 0``).

    Every multi-body term divides by the pair distance, so the result
    would be NaN forces behind a ``RuntimeWarning``; both backends
    reject the configuration instead, naming the pair.
    """

    def __init__(self, i: int, j: int):
        super().__init__(f"atoms {i} and {j} coincide (r == 0); forces are undefined")
        self.pair = (i, j)


@dataclass
class PairData:
    """Filtered (i,j) interactions, sorted by i.

    ``d``/``r`` are float64; precision casting happens inside the
    kernels so a single preparation serves every precision mode.
    """

    i_idx: np.ndarray  # (P,) atom index of i
    j_idx: np.ndarray  # (P,) atom index of j
    d: np.ndarray  # (P, 3) minimum-image x_j - x_i
    r: np.ndarray  # (P,)
    ti: np.ndarray  # (P,) type of i
    tj: np.ndarray  # (P,) type of j
    pair_flat: np.ndarray  # (P,) flat index of entry (ti, tj, tj)
    n_atoms: int
    n_list_entries: int  # size of the skin-extended list (pre-filter)

    @property
    def n_pairs(self) -> int:
        return int(self.i_idx.shape[0])

    @property
    def filter_efficiency(self) -> float:
        """Fraction of list entries that survived the cutoff filter."""
        if self.n_list_entries == 0:
            return 1.0
        return self.n_pairs / self.n_list_entries


@dataclass
class ListData:
    """What every pipeline kernel gets: the neighbor list, unfiltered.

    The CSR list exactly as :class:`NeighborList` stores it and the type
    column (topology, cached per list version), and the positions and
    box, rewritten by the cache before every ``evaluate``.  What a kernel
    derives from the list alone is built on first read, once per list
    version.  Nothing is filtered here, so the staged-pair counters read
    the full list.
    """

    offsets: np.ndarray  # (n+1,) int64 row offsets
    neighbors: np.ndarray  # (L,) int32 columns
    types: np.ndarray | None = None  # (n,) int32
    x: np.ndarray | None = None  # (n, 3) float64
    box: Box | None = None
    max_row: int = field(init=False)  # longest row: sizes the compiled kernel's short list
    # built on first read; not functools.cached_property, whose lock
    # (Python < 3.12) is shared by every instance and would serialize
    # concurrent sessions on their first read
    _ij: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)
    _incoming: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.max_row = int(np.diff(self.offsets).max(initial=0))

    @property
    def n_list_entries(self) -> int:
        return int(self.neighbors.shape[0])

    n_pairs = n_list_entries
    filter_efficiency = 1.0

    @property
    def ij(self) -> tuple[np.ndarray, np.ndarray]:
        """Every entry as parallel int64 ``(i, j)`` arrays, sorted by i
        (:meth:`NeighborList.pairs`)."""
        if self._ij is None:
            counts = np.diff(self.offsets)
            self._ij = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts), self.neighbors.astype(np.int64)
        return self._ij

    @property
    def incoming(self) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, entries)`` of :func:`repro.md.neighbor.incoming_index`:
        per atom the list entries that name it, in list order."""
        if self._incoming is None:
            self._incoming = incoming_index(self.neighbors, self.offsets.shape[0] - 1)
        return self._incoming


@dataclass
class TripletData:
    """The (pair, k) expansion for ζ accumulation.

    ``tri_pair`` indexes rows of a :class:`PairData`; ``tri_k`` indexes
    rows of the *k-candidate* pair set (which may be the same object).
    """

    tri_pair: np.ndarray  # (T,) row into the pair set
    tri_k: np.ndarray  # (T,) row into the k-candidate set
    n_pairs: int

    @property
    def n_triplets(self) -> int:
        return int(self.tri_pair.shape[0])


def pair_geometry(
    x: np.ndarray,
    box,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    *,
    workspace=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-image displacements ``x_j - x_i`` and distances.

    The one genuinely position-dependent piece of pair staging, which
    :func:`filter_list` recomputes every force call.  With a
    `workspace` the result lives in reused scratch buffers (no per-call
    allocation); the arithmetic is identical either way, so the numpy
    kernels and :func:`build_pairs` agree bit for bit.

    Non-finite distances raise :class:`ValueError` and coincident atoms
    :class:`DegenerateGeometryError`, rather than being silently dropped
    by a cutoff compare or divided by.
    """
    L = i_idx.shape[0]
    if workspace is None:
        d = x[j_idx] - x[i_idx]
    else:
        d = workspace.buf("pair_d", (L, 3), np.float64)
        xi = workspace.buf("pair_xi", (L, 3), np.float64)
        np.take(x, j_idx, axis=0, out=d)
        np.take(x, i_idx, axis=0, out=xi)
        np.subtract(d, xi, out=d)
    # in-place minimum image, same arithmetic as Box.minimum_image
    tmp = None if workspace is None else workspace.buf("pair_mi", L, np.float64)
    # an infinite position shifts to inf - inf: where the non-finite
    # guard below reports it, the shift itself stays silent
    with np.errstate(invalid="ignore"):
        for axis in range(3):
            if box.periodic[axis]:
                span = box.lengths[axis]
                col = d[..., axis]
                if tmp is None:
                    col -= span * np.round(col / span)
                else:
                    np.divide(col, span, out=tmp)
                    np.round(tmp, out=tmp)
                    tmp *= span
                    col -= tmp
    if workspace is None:
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
    else:
        r = workspace.buf("pair_r", L, np.float64)
        np.einsum("ij,ij->i", d, d, out=r)
        np.sqrt(r, out=r)
    if not np.isfinite(r).all():
        # NaN/inf distances compare False against every cutoff and would
        # be *silently dropped* by the filter — fail loudly instead
        bad = int(i_idx[np.nonzero(~np.isfinite(r))[0][0]])
        raise ValueError(f"non-finite interatomic distance involving atom {bad}")
    if not r.all():
        first = int(np.nonzero(r == 0.0)[0][0])
        raise DegenerateGeometryError(int(i_idx[first]), int(j_idx[first]))
    return d, r


def filter_list(lst: ListData, *cuts, ntypes: int = 1, strict: bool = False,
                workspace=None) -> list[PairData]:
    """The scalar filter: one :class:`PairData` per cutoff in `cuts`.

    One :func:`pair_geometry` pass over every entry of `lst`, then per
    cutoff the entries with ``r <= cut`` (``r < cut`` when `strict`).  A
    cutoff is an array indexed by the flat ``(ti, tj, tj)`` parameter
    index (a per-type-pair cutoff), a scalar (one for every entry), or
    ``None`` (keep every entry, skin atoms included).  With a
    `workspace` the geometry is scratch; the returned pairs are always
    fresh arrays.
    """
    i_idx, j_idx = lst.ij
    n_list = i_idx.shape[0]
    d, r = pair_geometry(lst.x, lst.box, i_idx, j_idx, workspace=workspace)
    ti = lst.types[i_idx].astype(np.int64)
    tj = lst.types[j_idx].astype(np.int64)
    pair_flat = (ti * ntypes + tj) * ntypes + tj
    compare = np.less if strict else np.less_equal
    out = []
    for cut in cuts:
        if cut is None:
            keep = np.ones(n_list, dtype=bool)
        else:
            keep = compare(r, cut if np.ndim(cut) == 0 else cut[pair_flat])
        out.append(PairData(
            i_idx=i_idx[keep], j_idx=j_idx[keep], d=d[keep], r=r[keep],
            ti=ti[keep], tj=tj[keep], pair_flat=pair_flat[keep],
            n_atoms=lst.offsets.shape[0] - 1, n_list_entries=n_list,
        ))
    return out


def build_pairs(
    system: AtomSystem,
    neigh: NeighborList,
    flat,
    *,
    cutoff: str = "pair",
) -> PairData:
    """Extract and filter all (i,j) list entries (:func:`filter_list`).

    Parameters
    ----------
    cutoff:
        ``"pair"``  — keep entries with r <= R+D of the (ti,tj) entry
        (the interactions that reach the computational component);
        ``"max"``   — keep entries with r <= max cutoff over all type
        pairs (the only *safe* radius for pre-filtering the neighbor
        list itself, Sec. IV-D);
        ``"none"``  — keep everything, skin atoms included.
    """
    cuts = {"pair": flat.cut, "max": float(np.max(flat.cut)), "none": None}
    if cutoff not in cuts:
        raise ValueError(f"unknown cutoff mode {cutoff!r}")
    lst = ListData(neigh.offsets, neigh.neighbors, types=system.type, x=system.x, box=system.box)
    (pairs,) = filter_list(lst, cuts[cutoff], ntypes=flat.ntypes)
    return pairs


def _expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (row, start+offset) expansion of per-row ranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(starts.shape[0], dtype=np.int64), counts)
    row_first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(row_first, counts)
    return rows, np.repeat(starts, counts) + within


def group_by_i(idx_i: np.ndarray, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, counts) of each atom's contiguous run in an i-sorted array."""
    counts = np.bincount(idx_i, minlength=n_atoms).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return starts, counts


def build_triplets(pairs: PairData, kcand: PairData) -> TripletData:
    """Expand every pair (i,j) against every k-candidate of the same i.

    ``kcand`` rows play the role of k: for pair row p with center atom
    i, all rows q of `kcand` with center i and ``kcand.j_idx[q] !=
    pairs.j_idx[p]`` become triplets (k = kcand.j_idx[q]).  Both inputs
    must be sorted by their i index (the order :func:`build_pairs`
    produces).
    """
    n_atoms = pairs.n_atoms
    k_starts, k_counts = group_by_i(kcand.i_idx, n_atoms)
    # per pair row: the k-candidate range of its center atom
    p_start = k_starts[pairs.i_idx]
    p_count = k_counts[pairs.i_idx]
    tri_pair, tri_k = _expand(p_start, p_count)
    # exclude k == j
    keep = kcand.j_idx[tri_k] != pairs.j_idx[tri_pair]
    return TripletData(tri_pair=tri_pair[keep], tri_k=tri_k[keep], n_pairs=pairs.n_pairs)
