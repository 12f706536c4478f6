"""Binned Verlet neighbor lists with a skin distance.

Sec. II-III of the paper: multi-body potentials use *extremely short*
neighbor lists (~4 atoms for diamond silicon), and because rebuilding
every step is too expensive, the cutoff is extended by a "skin"
distance; the resulting extended list ``S_i`` contains *skin atoms*
outside the force cutoff.  Efficiently excluding those skin atoms is
"one of the major challenges for vectorization" — the filter component
(Sec. IV-B), fast-forwarding (IV-C) and neighbor-list filtering (IV-D)
all exist because of them.  This module therefore builds the *extended*
list, exactly like LAMMPS: downstream code is responsible for skipping
skin atoms.

Construction uses cell binning (linear in the number of atoms).  Where
the runtime-built C extension is available (:mod:`repro.backends.cext`)
the build (its rows filled on the kernel's thread pool) and the skin
test are C passes; the numpy bodies give the same arrays and decisions
bit for bit and stay as the no-toolchain fallback and the test oracle.  A
brute-force reference path exists both as a fallback for boxes too
small to bin and as the oracle for the property-based tests.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from repro.backends import cext
from repro.md.box import Box

#: Above this atom count the binned builder refuses to fall back to the
#: O(n^2) brute-force path silently — at 10^5+ atoms that fallback means
#: tens of gigabytes of distance blocks and effectively a hang, always
#: the symptom of a box too small (or not periodic) for its population.
BRUTE_FORCE_MAX_ATOMS = 20_000


class BruteForceFallbackError(ValueError):
    """Binning was impossible for a system too large to brute-force.

    Raised instead of silently running the O(n^2) reference path when a
    periodic box has fewer than 3 bins along some axis but holds more
    than :data:`BRUTE_FORCE_MAX_ATOMS` atoms.  Either the box is wrong
    (too thin for ``cutoff + skin``) or the caller really wants the
    quadratic path and should say so with ``build(..., brute_force=True)``.
    """


@dataclass(frozen=True)
class NeighborSettings:
    """Parameters of neighbor-list construction.

    Attributes
    ----------
    cutoff:
        Force cutoff in Angstrom (for Tersoff: the *maximum* R+D over
        all type pairs, cf. Sec. IV-D).
    skin:
        Extra bin/list radius; atoms are listed out to ``cutoff+skin``.
        LAMMPS metal default is 2.0, the standard Tersoff benchmark
        uses 1.0.
    full:
        Full lists store both (i,j) and (j,i); Tersoff requires full
        lists, pair potentials can use half lists.
    """

    cutoff: float
    skin: float = 1.0
    full: bool = True

    def __post_init__(self) -> None:
        # NaN passes every `<` test: a NaN radius would list no atoms at all
        if not (np.isfinite(self.cutoff) and np.isfinite(self.skin)):
            raise ValueError(f"cutoff and skin must be finite, got {self.cutoff} and {self.skin}")
        if self.cutoff <= 0.0:
            raise ValueError("cutoff must be positive")
        if self.skin < 0.0:
            raise ValueError("skin must be non-negative")

    @property
    def list_cutoff(self) -> float:
        """The extended (cutoff + skin) radius actually used to build."""
        return self.cutoff + self.skin


def _expand_ranges(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row ``[start, end)`` ranges into flat (row, value) pairs.

    Returns ``(rows, values)`` where ``values`` walks each row's range.
    """
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(starts.shape[0], dtype=np.int64), counts)
    # offset of each output element within its own row's range
    row_first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(row_first, counts)
    values = np.repeat(starts, counts) + within
    return rows, values


def _brute_force_pairs(x: np.ndarray, box: Box, rlist: float) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs (i, j), i != j, with r_ij <= rlist.  O(n^2)."""
    n = x.shape[0]
    i_all: list[np.ndarray] = []
    j_all: list[np.ndarray] = []
    block = max(1, int(2.0e7 // max(n, 1)))
    r2 = rlist * rlist
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        d = box.minimum_image(x[None, :, :] - x[lo:hi, None, :])
        dist2 = np.einsum("ijk,ijk->ij", d, d)
        mask = dist2 <= r2
        rows = np.arange(lo, hi)
        mask[rows - lo, rows] = False
        ii, jj = np.nonzero(mask)
        i_all.append(ii + lo)
        j_all.append(jj)
    return np.concatenate(i_all), np.concatenate(j_all)


def active_builder() -> str:
    """Which binned builder :meth:`NeighborList.build` uses on this host."""
    reason = cext.probe()
    return "C cell list" if reason is None else f"numpy cell list ({reason})"


def _bin_counts(box: Box, rlist: float) -> np.ndarray | None:
    """Bins per axis, or ``None`` when a periodic axis fits fewer than 3."""
    nbins = np.maximum((box.lengths // rlist).astype(np.int64), 1)
    if np.any(nbins[np.array(box.periodic)] < 3):
        return None
    return nbins


def _nonfinite_position(atom: int) -> ValueError:
    return ValueError(
        f"non-finite position of atom {atom}: it would be binned nowhere and "
        f"silently dropped from the neighbor list"
    )


def require_finite(x: np.ndarray) -> None:
    """Raise the ``ValueError`` naming the first atom whose position is NaN or inf."""
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise _nonfinite_position(int(np.argmin(finite)))


def past_half_skin(x: np.ndarray, x_ref: np.ndarray | None, box: Box, skin: float) -> bool:
    """The LAMMPS rebuild criterion: True unless every atom of `x` lies within
    half the `skin` of `x_ref` under the minimum image — so True with no
    `x_ref`, another shape, skin 0, or a NaN or inf position.

    The largest squared displacement is ``md_max_disp2`` of ``_step.c``
    where the extension loads and both arrays are contiguous f64, else the
    numpy body it reproduces bit for bit.
    """
    if x_ref is None or x.shape != x_ref.shape or skin == 0.0:
        return True
    fn = cext.entry("md_max_disp2")
    if fn is not None and all(a.dtype == np.float64 and a.flags.c_contiguous for a in (x, x_ref)):
        worst = fn(x.shape[0], x.ctypes.data, x_ref.ctypes.data, *box.lengths, *box.periodic)
    else:
        with np.errstate(invalid="ignore", over="ignore"):  # inf moved: NaN, a rebuild
            d = box.minimum_image(x - x_ref)
            worst = float(np.max(np.einsum("ij,ij->i", d, d))) if x.shape[0] else 0.0
    return not worst <= (0.5 * skin) ** 2


def _binned_pairs(x: np.ndarray, box: Box, rlist: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell-binned ordered pair search; requires >= 3 bins per periodic axis."""
    n = x.shape[0]
    lengths = box.lengths
    nbins = _bin_counts(box, rlist)
    if nbins is None:
        if n > BRUTE_FORCE_MAX_ATOMS:
            short = lengths[np.array(box.periodic)].min()
            raise BruteForceFallbackError(
                f"cell binning needs >= 3 bins per periodic axis but the box "
                f"(shortest periodic edge {short:.2f} A) fits fewer at list "
                f"cutoff {rlist:.2f} A, and {n} atoms is too many for the "
                f"O(n^2) fallback (limit {BRUTE_FORCE_MAX_ATOMS}); enlarge the "
                f"box or pass build(..., brute_force=True) explicitly"
            )
        return _brute_force_pairs(x, box, rlist)
    binsize = lengths / nbins
    # clamped before the cast, so an atom far outside the box lands in
    # an edge bin instead of overflowing int64
    cell = np.clip((x - box.lo) / binsize, 0, nbins - 1).astype(np.int64)
    lin = (cell[:, 0] * nbins[1] + cell[:, 1]) * nbins[2] + cell[:, 2]
    order = np.argsort(lin, kind="stable")
    lin_sorted = lin[order]
    ncells = int(np.prod(nbins))

    # start offset of every cell in the sorted ordering
    cell_start = np.searchsorted(lin_sorted, np.arange(ncells + 1))

    i_all: list[np.ndarray] = []
    j_all: list[np.ndarray] = []
    periodic = np.array(box.periodic)
    r2 = rlist * rlist
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                shift = np.array([dx, dy, dz], dtype=np.int64)
                tgt = cell + shift
                valid = np.ones(n, dtype=bool)
                for axis in range(3):
                    if periodic[axis]:
                        tgt[:, axis] %= nbins[axis]
                    else:
                        valid &= (tgt[:, axis] >= 0) & (tgt[:, axis] < nbins[axis])
                tgt_lin = (tgt[:, 0] * nbins[1] + tgt[:, 1]) * nbins[2] + tgt[:, 2]
                tgt_lin = np.where(valid, tgt_lin, 0)
                starts = np.where(valid, cell_start[tgt_lin], 0)
                ends = np.where(valid, cell_start[tgt_lin + 1], 0)
                rows, slots = _expand_ranges(starts, ends)
                if rows.size == 0:
                    continue
                cand = order[slots]
                keep = cand != rows
                rows, cand = rows[keep], cand[keep]
                d = box.minimum_image(x[cand] - x[rows])
                dist2 = np.einsum("ij,ij->i", d, d)
                keep = dist2 <= r2
                i_all.append(rows[keep])
                j_all.append(cand[keep])
    if not i_all:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(i_all), np.concatenate(j_all)


def _numpy_csr(x: np.ndarray, box: Box, rlist: float, full: bool,
               brute_force: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, neighbors)`` from the numpy pair search."""
    require_finite(x)
    i_idx, j_idx = (_brute_force_pairs if brute_force else _binned_pairs)(x, box, rlist)
    if not full:
        keep = i_idx < j_idx
        i_idx, j_idx = i_idx[keep], j_idx[keep]
    n = x.shape[0]
    order = np.argsort(i_idx, kind="stable")
    i_idx, j_idx = i_idx[order], j_idx[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(i_idx, minlength=n), out=offsets[1:])
    return offsets, j_idx.astype(np.int32)


def _compiled_csr(x: np.ndarray, box: Box, rlist: float, nbins: np.ndarray,
                  full: bool, threads: int) -> tuple[np.ndarray, np.ndarray, float] | None:
    """``(offsets, neighbors, load_s)`` from the C cell-list build.

    The arrays are what :func:`_numpy_csr` returns for a box that bins,
    bit for bit, for any `threads` (``_neighbor.c`` states the order and
    the arithmetic).  ``load_s`` is what the call spent loading (or, on a
    cold cache, building) the extension when it was the first in this
    process to need it.  ``None`` when the build fails: :func:`cext.probe`
    reports the failure from then on and the numpy builder takes over.
    """
    first = not cext.loaded()
    t0 = time.perf_counter()
    try:
        fn = cext.load()["neighbor_build"]
    except cext.CextBuildError as exc:
        warnings.warn(f"C neighbor build unavailable, using the numpy builder: {exc}",
                      RuntimeWarning, stacklevel=3)
        return None
    load_s = time.perf_counter() - t0 if first else 0.0
    n = x.shape[0]
    lengths = box.lengths
    periodic = np.array(box.periodic, dtype=np.int32)
    geo = np.concatenate((box.lo, lengths, lengths / nbins,
                          np.where(periodic, 0.5 * lengths, np.inf), [rlist * rlist]))
    cell = np.empty(n, dtype=np.int64)
    cell_start = np.empty(int(np.prod(nbins)) + 2, dtype=np.int64)
    order = np.empty(n, dtype=np.int32)
    xs = np.empty(3 * n + 6 * (cell_start.shape[0] - 2), dtype=np.float64)
    offsets = np.empty(n + 1, dtype=np.int64)
    info = np.zeros(1, dtype=np.int64)
    # sized from the mean density with headroom (a diamond lattice at skin
    # 1.0 holds 1.2x the mean); a short buffer (or slice of it) costs a call
    sphere = 4.0 / 3.0 * np.pi * rlist**3
    cap = min(int(1.5 * n * n * sphere / box.volume) + 64, n * n)
    while True:
        neighbors = np.empty(cap, dtype=np.int32)
        total = fn(n, x.ctypes.data, geo.ctypes.data, nbins.ctypes.data, periodic.ctypes.data,
                   int(full), cell.ctypes.data, cell_start.ctypes.data, order.ctypes.data,
                   xs.ctypes.data, cap, offsets.ctypes.data, neighbors.ctypes.data, threads, info.ctypes.data)
        if total < 0:
            raise _nonfinite_position(int(info[0]))
        if total <= cap:
            return offsets, neighbors[:total].copy(), load_s
        cap = total


def incoming_index(neighbors: np.ndarray, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """The transposed index ``(offsets, entries)`` of a CSR list.

    ``entries[offsets[a]:offsets[a + 1]]`` are the positions ``e`` in
    `neighbors` (int32, contiguous) with ``neighbors[e] == a``,
    ascending: what a kernel that *gathers* the force on an atom from
    per-entry partials walks (the compiled Tersoff kernel's second
    sweep, DESIGN.md §12).  One O(L) counting sort in ``_neighbor.c`` —
    the extension is what its only reader is made of.  Columns outside
    ``[0, n_atoms)`` are left out: the kernel's own filter reports them.
    """
    total = neighbors.shape[0]
    offsets = np.empty(n_atoms + 1, dtype=np.int64)
    entries = np.empty(total, dtype=np.int32)
    placed = cext.load()["neighbor_transpose"](n_atoms, total, neighbors.ctypes.data,
                                               offsets.ctypes.data, entries.ctypes.data)
    if placed < 0:
        raise ValueError(f"neighbor list of {total} entries is too long for int32 entry numbers")
    return offsets, entries


class NeighborList:
    """A CSR-format Verlet neighbor list with rebuild tracking.

    Attributes
    ----------
    neighbors:
        Flat neighbor indices, int32.
    offsets:
        Row offsets, shape ``(n+1,)``; the neighbors of atom ``i`` are
        ``neighbors[offsets[i]:offsets[i+1]]``.
    n_builds:
        How many times the list has been (re)built.
    warmup_s:
        Seconds the last :meth:`build` or :meth:`ensure` spent loading
        the C extension (non-zero for the first C build of a process
        only); callers that keep stage timers charge it to ``warmup``,
        not ``neighbor``.
    version:
        Monotonic counter bumped on every :meth:`build`.  Anything
        derived from the list *topology* (pair expansions, triplet
        layouts, parameter gathers) is valid exactly as long as the
        version it was computed against — the interaction cache
        (:mod:`repro.core.pipeline.cache`) keys on it.
    """

    def __init__(self, settings: NeighborSettings):
        self.settings = settings
        self.neighbors = np.empty(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.n_builds = 0
        self.version = 0
        # a timing report of the last call, not run state: a restored
        # list has loaded nothing
        self.warmup_s = 0.0  # repro-lint: disable=KD001
        #: most threads a C build may use; ``None`` = every usable core
        self.threads: int | None = None
        self._x_ref: np.ndarray | None = None
        self._box: Box | None = None

    @property
    def n_atoms(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def n_pairs(self) -> int:
        return int(self.neighbors.shape[0])

    def counts(self) -> np.ndarray:
        """Neighbors per atom, shape ``(n,)``."""
        return np.diff(self.offsets)

    def build(self, x: np.ndarray, box: Box, *, brute_force: bool = False) -> None:
        """(Re)build the list for positions `x` in `box`.

        Raises ``ValueError`` naming the first atom with a non-finite
        position, before any state of the list changes.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != 3:
            raise ValueError(f"positions must have shape (n, 3), got {x.shape}")
        rlist = self.settings.list_cutoff
        box.check_cutoff(rlist)
        nbins = None if brute_force else _bin_counts(box, rlist)
        csr = None
        if nbins is not None and cext.probe() is None:
            csr = _compiled_csr(x, box, rlist, nbins, self.settings.full,
                                cext.threads_for(x.shape[0], self.threads))
        if csr is None:
            csr = (*_numpy_csr(x, box, rlist, self.settings.full, brute_force), 0.0)
        self.offsets, self.neighbors, self.warmup_s = csr
        self.n_builds += 1
        self.version += 1
        self._x_ref = x.copy()
        self._box = box

    def needs_rebuild(self, x: np.ndarray) -> bool:
        """LAMMPS criterion: an atom moved more than half the skin, or to NaN/inf."""
        return self._box is None or past_half_skin(x, self._x_ref, self._box, self.settings.skin)

    def ensure(self, x: np.ndarray, box: Box) -> bool:
        """Rebuild if atoms moved or `box` is not the last build's; True if it did."""
        old = self._box
        if self.needs_rebuild(x) or old is not box and (old.periodic != box.periodic or not (
                np.array_equal(old.lo, box.lo) and np.array_equal(old.hi, box.hi))):
            self.build(x, box)
            return True
        self.warmup_s = 0.0
        return False

    def get_state(self) -> dict:
        """Snapshot the list for a checkpoint.

        Captures the CSR arrays, the rebuild counters and — crucially
        for bitwise restart — the reference positions of the last
        build, so a restored list makes the *same* rebuild decisions at
        the same steps as the uninterrupted run would have.
        """
        return {
            "neighbors": self.neighbors.copy(),
            "offsets": self.offsets.copy(),
            "n_builds": self.n_builds,
            "version": self.version,
            "x_ref": None if self._x_ref is None else self._x_ref.copy(),
        }

    def set_state(self, state: dict, box: Box | None) -> None:
        """Restore a :meth:`get_state` snapshot (inverse operation)."""
        self.neighbors = np.ascontiguousarray(state["neighbors"], dtype=np.int32)
        self.offsets = np.ascontiguousarray(state["offsets"], dtype=np.int64)
        self.n_builds = int(state["n_builds"])
        self.version = int(state["version"])
        x_ref = state.get("x_ref")
        self._x_ref = None if x_ref is None else np.ascontiguousarray(x_ref, dtype=np.float64)
        self._box = box if self._x_ref is not None else None

    def neighbors_of(self, i: int) -> np.ndarray:
        """Neighbor indices of atom `i` (view into the flat array)."""
        return self.neighbors[self.offsets[i] : self.offsets[i + 1]]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored pairs as parallel ``(i, j)`` index arrays."""
        i_idx = np.repeat(
            np.arange(self.n_atoms, dtype=np.int64), np.diff(self.offsets)
        )
        return i_idx, self.neighbors.astype(np.int64)
