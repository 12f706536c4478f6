"""The ``compiled`` backend: a potential in one pass of C over the neighbor list.

The staged pipeline hands :class:`CompiledListKernel`, like every
kernel, the CSR list as stored, the type column and the current
positions (cache layers L1/L2), and one ctypes call does everything
else per atom.  The list walker (``_walker.c``) is shared: minimum-image
geometry, the non-finite/coincident guards, the Sec. IV-D short list,
the atoms in chunks of rows over the threads of a small pool inside that
one call, the two force sweeps (a partial force per list entry, gathered
per atom) and the reductions.  Each potential is a subclass that
supplies a parameter table and the entry point of its C body:
:class:`CompiledTersoffKernel` (Alg. 3 as scheme 1b, a chunk's pairs
across the build's widest register) and :class:`CompiledSWKernel` (φ2
and the unordered (j, k) φ3 terms as scheme 1a, the entries of a row
four to a vector).  No pair or triplet table is ever staged: the kernel
packs one argument block per list and type column and walks the list's
*inner list* — its entries within cutoff + skin/2 of a reference frame,
in list order, derived again once an atom has moved more than skin/4
from it, for another list version or another box (DESIGN.md §12).

How many threads a call uses is decided by :func:`cext.threads_for`,
from nothing a user sets: ``min(share, rows // THREAD_GRAIN)``, the
share being the cores this process may run on (``threads = None``) or
what :class:`~repro.parallel.engine.ParallelEngine` gave this rank's
kernel.  No result bit depends on it (DESIGN.md §12).

The numpy kernels are the oracles these are tested against (DESIGN.md
§12) and what the registry falls back to on a host without a C compiler.

The kernel instance owns its scratch (a :class:`Workspace`), never the
module: ctypes drops the GIL for the call, and each engine rank holds a
private copy of its potential.  Loading (and, once per source hash,
building) the extension happens on the first ``evaluate`` of each kernel
instance and is reported as ``timing.warmup_s`` so `StageTimers` can
attribute it to the ``warmup`` stage instead of ``pair``.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro.analysis import hot_path
from repro.backends import cext
from repro.backends.base import BackendUnavailableError
from repro.core.pipeline import DegenerateGeometryError, MultiBodyKernel, Staging, Workspace
from repro.md.neighbor import inner_list, past_half_skin
from repro.md.potential import ForceResult

#: Column order of the Tersoff parameter table (``enum P_*`` in ``_tersoff.c``).
PARAM_FIELDS = ("R", "D", "A", "lam1", "B", "lam2", "beta", "n", "c1", "c2", "c3", "c4",
                "gamma", "c", "d", "h", "lam3", "m")
#: Relative slack of the squared max-cutoff prefilter; entries it lets
#: through are decided by the exact test on the distance.
_PREFILTER_MARGIN = 1.0 + 1.0e-9
#: Error returns of ``<potential>_fused_*`` (``WALK_*`` in ``_walker.h``).
_NONFINITE, _COINCIDENT, _NOMEM = 1, 2, 4
#: ``walk_args`` (``_walker.h``) in 8-byte slots: how many, and where the
#: three written per call (positions and the two outputs) begin.
_N_ARGS, _X = 21, 18


def pick_strategy() -> str:
    """``"cext"``, or raise when the host cannot build the extension."""
    reason = cext.probe()
    if reason is not None:
        raise BackendUnavailableError(f"compiled backend needs a C toolchain: {reason}")
    return "cext"


class CompiledListKernel(MultiBodyKernel):
    """A potential's fused C body on the list walker, on the staged pipeline.

    Past its parameters it holds only scratch — a :class:`Workspace` and
    the argument block of its calls, raw addresses into it, both dropped
    on deepcopy/pickle — so instances travel light into parallel-engine
    workers; each worker process loads its own copy of the extension (a
    disk-cache hit after the first build).  A subclass names its
    ``entry`` point and packs its parameters (:meth:`table`).
    """

    #: the extension's ``<entry>_fused_f64/_f32``
    entry = ""

    def __init__(self, params, precision):
        self.params = params
        self.precision = precision
        self.accum_dtype = precision.accum_dtype
        self._ntypes, cut, table = self.table(params)
        self._cut = np.ascontiguousarray(cut, dtype=np.float64)
        self._ptab = np.ascontiguousarray(table, dtype=precision.compute_dtype)
        self.kcand_cutoff = float(np.max(self._cut))
        #: most threads a call may use; ``None`` = every usable core
        self.threads: int | None = None
        self._ws, self._args, self._inner = Workspace(), None, None

    def __getstate__(self):
        # the argument block holds addresses of this instance's buffers
        return {**self.__dict__, "_args": None, "_inner": None}

    def table(self, params) -> tuple[int, np.ndarray, np.ndarray]:
        """``(types, cutoff per type triple, parameter rows)``; the largest
        cutoff is the short list's."""
        raise NotImplementedError

    def _pack(self, lst, key: tuple, fns, kind: str) -> tuple:
        """The argument block of the calls on this list and type column (held weakly) at `key`'s
        size, threads and box geometry, with the inner list derived at the current positions."""
        ws, box, (n, threads) = self._ws, lst.box, key[:2]
        if lst.offsets.shape[0] != n + 1 or lst.offsets[n] != lst.n_list_entries:
            raise ValueError("neighbor list rows do not match the atoms")
        geo, cut = ws.buf("geo", 8, np.float64), self.kcand_cutoff
        geo[:] = [*box.lengths, *(0.5 * span if per else np.inf
                                  for span, per in zip(box.lengths, box.periodic)),
                  cut, cut * cut * _PREFILTER_MARGIN]
        out = [ws.buf("row", fns["walk_scratch"](n), np.float64),
               ws.buf("stress", (3, 3, 3), np.float64), ws.buf("info", 6, np.int64)]
        block = ws.buf("args", _N_ARGS, np.int64)
        block[:] = [n, 0, 0, 0, 0, lst.types.ctypes.data, geo.ctypes.data, self._ntypes,
                    self._cut.ctypes.data, self._ptab.ctypes.data, 0, threads, out[0].ctypes.data,
                    0, *(a.ctypes.data for a in (*out[1:], lst.offsets, lst.neighbors)), 0, 0, 0]
        self._derive(lst, block)
        return (weakref.ref(lst), weakref.ref(lst.types)), key, block, block.ctypes.data, \
            fns[f"{kind}_lanes"](), *out[1:]

    def _derive(self, lst, block: np.ndarray) -> None:
        """The inner list of `lst` at its current positions into `block`: the entries within
        cutoff + skin/2, valid while no atom moves more than skin/4 (DESIGN.md §12); at skin 0
        the list itself."""
        reach2 = (self.kcand_cutoff + 0.5 * lst.skin) ** 2 * _PREFILTER_MARGIN if lst.skin else np.inf
        *inner, max_row = inner_list(lst.offsets, lst.neighbors, lst.x, lst.box, reach2)
        # a partial force per entry walked, exactly as many (a capacity-doubling buffer would
        # hold up to twice the list), and the frame they are valid around
        self._inner = (*inner, np.empty((len(inner[1]), 3), dtype=np.float64), lst.x.copy())
        block[1:5], block[10], block[13] = [a.ctypes.data for a in inner], max_row, \
            self._inner[4].ctypes.data

    @hot_path(reason="computational part of every force call (compiled backend)")
    def evaluate(self, st: Staging, n: int) -> ForceResult:
        lst, ad, args = st.pairs, self.accum_dtype, self._args
        t0 = time.perf_counter()
        fns = cext.load()
        fn = fns[kind := f"{self.entry}_{'f64' if self._ptab.dtype == np.float64 else 'f32'}"]
        # the first call of this instance (or copy): the load (or build) is warmup
        warmup_s = time.perf_counter() - t0 if args is None else None
        key = (n, cext.threads_for(n, self.threads), lst.box.periodic, *lst.box.lengths.tolist())
        if (args is None or args[1] != key
                or any(a() is not b for a, b in zip(args[0], (lst, lst.types)))):
            args = self._args = self._pack(lst, key, fns, kind)
        elif lst.skin and past_half_skin(lst.x, self._inner[-1], lst.box, 0.5 * lst.skin):
            self._derive(lst, args[2])  # repro-lint: disable=KA003
        block, address, lanes, stress3, info = args[2:]
        L = lst.n_list_entries
        # results are handed to the caller: fresh arrays, written once by C
        forces = np.empty((n, 3), dtype=np.float64)  # repro-lint: disable=KA003
        per_atom = np.empty(n, dtype=np.float64)  # repro-lint: disable=KA003
        block[_X:] = lst.x.ctypes.data, forces.ctypes.data, per_atom.ctypes.data
        code = fn(address)
        if code:
            i, j = int(info[0]), int(info[1])
            if code == _COINCIDENT:
                raise DegenerateGeometryError(i, j)
            if code == _NONFINITE:
                raise ValueError(f"non-finite interatomic distance involving atom {i}")
            raise MemoryError("no memory for the kernel's row scratch") if code == _NOMEM else \
                ValueError(f"neighbor list or type column out of range at atom {i}")

        P, T, bodies, active, opened, spins = info.tolist()
        energy = float(np.sum(per_atom.astype(ad, copy=False)))
        stress = stress3[0] - stress3[1] - stress3[2]
        # vector bodies issued (K-loop + pair), the share of their lanes doing a
        # pair or a triplet, fast-forward spins: what the lane simulator predicts
        # (tests/test_model_pins.py); threads: what the call's rows were offered to
        backend = {"name": "compiled", "strategy": "cext", "kernel_invocations": bodies,
                   "lane_occupancy": active / (lanes * bodies) if bodies else 1.0,
                   "spin_iterations": spins, "threads": opened}
        stats = {"pairs_in_cutoff": P, "triples": T, "list_entries": L,
                 "filter_efficiency": P / L if L else 1.0, "virial_tensor": 0.5 * (stress + stress.T),
                 "per_atom_energy": per_atom, "backend": backend}
        if warmup_s is not None:
            stats["timing"] = {"warmup_s": warmup_s}
        if ad != np.float64:
            # accumulate dtype discipline: round through ad in single precision —
            # the float64 re-cast is the ForceResult ABI, not a promotion leak
            forces = forces.astype(ad).astype(np.float64)
        return ForceResult(energy=energy, forces=forces, virial=float(np.trace(stress)),
                           stats=stats)


class CompiledTersoffKernel(CompiledListKernel):
    """Tersoff (Alg. 3) on the list walker: ``_tersoff_impl.h``."""

    uses_types = True
    entry = "tersoff"

    def table(self, params):
        flat = params.flat()
        return flat.ntypes, flat.cut, np.stack([getattr(flat, f) for f in PARAM_FIELDS], axis=1)


class CompiledSWKernel(CompiledListKernel):
    """Stillinger-Weber on the list walker: ``_sw_impl.h``.  Type-blind
    and accumulated in double in every mode, as :class:`SWKernel` is."""

    entry = "sw"

    def __init__(self, params, precision):
        super().__init__(params, precision)
        self.accum_dtype = np.dtype(np.float64)

    def table(self, p):
        from repro.core.sw.functional import _MIN_GAP

        # the parameter-only subexpressions of repro.core.sw.functional, in
        # double as numpy forms them (enum S_* in _sw.c is this order)
        return 1, [p.cut], [[p.sigma, -p.sigma, p.gamma * p.sigma, -(p.gamma * p.sigma), p.cut,
                             p.cut - _MIN_GAP, p.B, -p.p * p.B, p.p, p.q, p.A * p.epsilon,
                             p.lam * p.epsilon, 2.0 * p.lam * p.epsilon, p.cos_theta0]]
