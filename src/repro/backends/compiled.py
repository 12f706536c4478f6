"""The ``compiled`` backend: a potential in one pass of C over the neighbor list.

The staged pipeline hands :class:`CompiledListKernel`, like every
kernel, the CSR list as stored, the type column and the current
positions (cache layers L1/L2), and one ctypes call does everything
else per atom.  The list walker (``_walker.c``) is shared: minimum-image
geometry, the non-finite/coincident guards, the Sec. IV-D short list,
the atoms in chunks of rows over the threads of a small pool inside that
one call, the two force sweeps and the reductions.  Each potential is a
subclass that supplies a parameter table and the entry point of its C
body, the paper's scheme 1a (the pairs of an atom in four vector lanes):
:class:`CompiledTersoffKernel` (Alg. 3) and :class:`CompiledSWKernel`
(φ2 and the unordered (j, k) φ3 terms).  No pair or triplet table is
ever staged, so a cache hit, a mask drift and a rebuilt list all cost
the same kernel call.

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

import numpy as np

from repro.analysis import hot_path
from repro.backends import cext
from repro.backends.base import BackendUnavailableError
from repro.core.pipeline import DegenerateGeometryError, MultiBodyKernel, Staging, Workspace
from repro.md.potential import ForceResult

#: Column order of the Tersoff parameter table (``enum P_*`` in ``_tersoff.c``).
PARAM_FIELDS = ("R", "D", "A", "lam1", "B", "lam2", "beta", "n", "c1", "c2", "c3", "c4",
                "gamma", "c", "d", "h", "lam3", "m")
#: Relative slack of the squared max-cutoff prefilter; entries it lets
#: through are decided by the exact test on the distance.
_PREFILTER_MARGIN = 1.0 + 1.0e-9
#: Error returns of ``<potential>_fused_*`` (``WALK_*`` in ``_walker.h``).
_NONFINITE, _COINCIDENT = 1, 2


def pick_strategy() -> str:
    """``"cext"``, or raise when the host cannot build the extension."""
    reason = cext.probe()
    if reason is not None:
        raise BackendUnavailableError(f"compiled backend needs a C toolchain: {reason}")
    return "cext"


class CompiledListKernel(MultiBodyKernel):
    """A potential's fused C body on the list walker, on the staged pipeline.

    Holds no ctypes state — the library handle lives in
    :mod:`repro.backends.cext` — so instances deepcopy/pickle cleanly
    into parallel-engine workers; each worker process loads its own
    copy of the extension (a disk-cache hit after the first build).
    A subclass names its ``entry`` point and packs its parameters
    (:meth:`table`).
    """

    #: the extension's ``<entry>_fused_f64/_f32`` and ``<entry>_scratch_doubles``
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
        self._ws = Workspace()
        self._warmed = False

    def table(self, params) -> tuple[int, np.ndarray, np.ndarray]:
        """``(types, cutoff per type triple, parameter rows)``; the largest
        cutoff is the short list's."""
        raise NotImplementedError

    @hot_path(reason="computational part of every force call (compiled backend)")
    def evaluate(self, st: Staging, n: int) -> ForceResult:
        lst = st.pairs
        ws = self._ws
        ad = self.accum_dtype

        t0 = time.perf_counter()
        fns = cext.load()
        fn = fns[f"{self.entry}_{'f64' if self._ptab.dtype == np.float64 else 'f32'}"]
        warmup_s = None
        if not self._warmed:
            # first call of this instance: the load (or build) is warmup
            warmup_s = time.perf_counter() - t0
            self._warmed = True

        box = lst.box
        geo = ws.buf("geo", 8, np.float64)
        geo[0:3] = box.lengths
        geo[3:6] = [0.5 * span if per else np.inf for span, per in zip(box.lengths, box.periodic)]
        geo[6] = self.kcand_cutoff
        geo[7] = self.kcand_cutoff * self.kcand_cutoff * _PREFILTER_MARGIN
        threads = cext.threads_for(n, self.threads)
        in_offsets, in_entries = lst.incoming
        L = lst.n_list_entries
        if in_offsets.shape[0] != n + 1 or in_entries.shape[0] != L or lst.offsets[n] != L:
            raise ValueError("neighbor list and its transposed index do not match")
        scratch = ws.buf("row", fns[f"{self.entry}_scratch"](lst.max_row, self._ntypes, n, threads),
                         np.float64)
        partial = ws.buf("partial", (L + 1, 3), np.float64)
        where = ws.buf("where", L, np.int32)
        stress3 = ws.buf("stress", (3, 3, 3), np.float64)
        info = ws.buf("info", 5, np.int64)
        # results are handed to the caller: fresh arrays, written once by C
        forces = np.empty((n, 3), dtype=np.float64)  # repro-lint: disable=KA003
        per_atom = np.empty(n, dtype=np.float64)  # repro-lint: disable=KA003

        code = fn(
            n, lst.offsets.ctypes.data, lst.neighbors.ctypes.data,
            in_offsets.ctypes.data, in_entries.ctypes.data, lst.types.ctypes.data,
            lst.x.ctypes.data, geo.ctypes.data,
            self._ntypes, self._cut.ctypes.data, self._ptab.ctypes.data,
            lst.max_row, threads, scratch.ctypes.data, partial.ctypes.data, where.ctypes.data,
            forces.ctypes.data, per_atom.ctypes.data, stress3.ctypes.data, info.ctypes.data,
        )
        if code:
            i, j = int(info[0]), int(info[1])
            if code == _COINCIDENT:
                raise DegenerateGeometryError(i, j)
            if code == _NONFINITE:
                raise ValueError(f"non-finite interatomic distance involving atom {i}")
            raise ValueError(f"neighbor list or type column out of range at atom {i}")

        P, T = int(info[0]), int(info[1])
        bodies, active = int(info[2]), int(info[3])
        energy = float(np.sum(per_atom.astype(ad, copy=False)))
        stress = stress3[0] - stress3[1] - stress3[2]
        stats = {
            "pairs_in_cutoff": P,
            "triples": T,
            "list_entries": L,
            "filter_efficiency": P / L if L else 1.0,
            "virial_tensor": 0.5 * (stress + stress.T),
            "per_atom_energy": per_atom,
            # vector bodies issued (K-loop + pair) and the share of their
            # lanes doing a pair or a triplet: what the repro.vector
            # scheme-1a simulation predicts (tests/test_model_pins.py);
            # threads: what the call's rows were offered to
            "backend": {"name": "compiled", "strategy": "cext",
                        "kernel_invocations": bodies,
                        "lane_occupancy": active / (fns["lanes"]() * bodies) if bodies else 1.0,
                        "threads": int(info[4])},
        }
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
