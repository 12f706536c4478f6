"""Lane-faithful simulated vector backend.

One "vector register" is one row of a ``(chunks, W)`` numpy array,
where ``W`` is the active ISA's lane count for the active precision.
Kernels written against this class look exactly like the paper's
intrinsics-templated C++ kernel: straight-line arithmetic plus the four
building-block groups of Sec. V-A —

1. vector-wide conditionals (:meth:`all_lanes` / :meth:`any_lanes`),
2. in-register reductions (:meth:`reduce_add`),
3. conflict write handling (:meth:`scatter_add_conflict`),
4. adjacent-gather optimization (:meth:`gather` with ``adjacent=True``).

Every method both *performs* the numerics (in the precision's genuine
compute dtype — single-precision rounding is real) and *records* the
vector instructions it would have issued on the ISA, so a kernel run
doubles as an instruction trace for :mod:`repro.perf`.
"""

from __future__ import annotations

import numpy as np

from repro.vector.cost import CostCounter
from repro.vector.isa import ISA, get_isa
from repro.vector.precision import Precision


def scatter_add(target: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """Conflict-safe scatter-add: the single approved ``np.add.at`` site.

    Equivalent to serialized lane-by-lane accumulation — ``np.add.at``
    semantics exactly, including repeated indices.  All other modules
    must route conflict writes through here (or the cost-counting
    :class:`VectorBackend` methods, which delegate here); rule KA005 of
    ``repro lint`` enforces it.
    """
    np.add.at(target, idx, values)


def scatter_add_rows(
    target: np.ndarray,
    idx: np.ndarray,
    rows: np.ndarray,
    mask: np.ndarray | None = None,
) -> None:
    """Row-wise conflict-safe scatter-add: ``target[idx[k]] += rows[k]``.

    The force-accumulation shape — ``target`` is ``(n, 3)``, ``idx`` is
    ``(C,)`` and ``rows`` is ``(C, 3)``.  Bitwise-identical to the raw
    ``np.add.at(target, idx, rows)`` calls it replaces: values are cast
    to the target dtype exactly as ufunc.at would, and accumulation
    order is input order either way.
    """
    vals = np.asarray(rows)
    if vals.dtype != target.dtype:
        vals = vals.astype(target.dtype)
    if mask is not None:
        idx = idx[mask]
        vals = vals[mask]
    scatter_add(target, idx, vals)


class VectorBackend:
    """Simulated SIMD execution engine for one (ISA, precision) pair.

    Parameters
    ----------
    isa:
        An :class:`~repro.vector.isa.ISA` or its registry name.
    precision:
        A :class:`~repro.vector.precision.Precision` or its name.

    Notes
    -----
    NEON has no double-precision vectors (paper footnote 3): requesting
    ``(neon, double)`` yields width 1 — the optimized-but-scalar code
    path, exactly as in the paper.  Footnote 4's rule (SSE4.2 double
    runs the scalar back-end because width 2 does not pay off) is
    applied by the *scheme selection* layer, not here.
    """

    def __init__(self, isa: ISA | str, precision: Precision | str = Precision.DOUBLE):
        self.isa = get_isa(isa) if isinstance(isa, str) else isa
        self.precision = Precision.parse(precision)
        self.width = self.isa.width(self.precision.uses_single_lanes)
        self.compute_dtype = self.precision.compute_dtype
        self.accum_dtype = self.precision.accum_dtype
        self.counter = CostCounter(self.isa)

    # -- helpers --------------------------------------------------------------

    def c(self, x) -> np.ndarray:
        """Cast a value into the compute dtype (no counting)."""
        return np.asarray(x, dtype=self.compute_dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.compute_dtype)

    def _rows(self, x: np.ndarray, rows_active: int | None) -> int:
        n = int(x.shape[0]) if x.ndim else 1
        return n if rows_active is None else min(rows_active, n)

    def _binary(self, category: str, cost: float, op, a, b, *, mask=None, rows_active=None):
        a = self.c(a)
        out = op(a, self.c(b))
        rows = self._rows(np.asarray(a) if np.ndim(a) else out, rows_active)
        active = None if mask is None else int(np.count_nonzero(mask))
        self.counter.record(
            category, rows, cost, width=self.width, active_lanes=active, masked=mask is not None
        )
        if mask is not None:
            out = np.where(mask, out, a)
        return out

    def _unary(self, category: str, cost: float, op, a, *, mask=None, rows_active=None):
        a = self.c(a)
        out = op(a)
        rows = self._rows(a, rows_active)
        active = None if mask is None else int(np.count_nonzero(mask))
        self.counter.record(
            category, rows, cost, width=self.width, active_lanes=active, masked=mask is not None
        )
        if mask is not None:
            out = np.where(mask, out, a)
        return out

    # -- arithmetic ------------------------------------------------------------

    def add(self, a, b, *, mask=None, rows_active=None):
        return self._binary("arith", self.isa.costs.arith, np.add, a, b, mask=mask, rows_active=rows_active)

    def sub(self, a, b, *, mask=None, rows_active=None):
        return self._binary("arith", self.isa.costs.arith, np.subtract, a, b, mask=mask, rows_active=rows_active)

    def mul(self, a, b, *, mask=None, rows_active=None):
        return self._binary("arith", self.isa.costs.arith, np.multiply, a, b, mask=mask, rows_active=rows_active)

    def fma(self, a, b, c, *, mask=None, rows_active=None):
        """a*b + c as a single fused instruction."""
        a_ = self.c(a)
        out = a_ * self.c(b) + self.c(c)
        rows = self._rows(a_ if np.ndim(a_) else out, rows_active)
        active = None if mask is None else int(np.count_nonzero(mask))
        self.counter.record("arith", rows, self.isa.costs.arith, width=self.width, active_lanes=active, masked=mask is not None)
        if mask is not None:
            out = np.where(mask, out, self.c(c))
        return out

    def div(self, a, b, *, mask=None, rows_active=None):
        b_safe = self.c(b)
        if mask is not None:
            # keep masked-off lanes from raising spurious FP errors
            b_safe = np.where(mask, b_safe, self.c(1.0))
        return self._binary("divide", self.isa.costs.divide, np.divide, a, b_safe, mask=mask, rows_active=rows_active)

    def sqrt(self, a, *, mask=None, rows_active=None):
        a_safe = self.c(a)
        if mask is not None:
            a_safe = np.where(mask, a_safe, self.c(0.0))
        return self._unary("sqrt", self.isa.costs.sqrt, np.sqrt, a_safe, mask=mask, rows_active=rows_active)

    def exp(self, a, *, mask=None, rows_active=None):
        a_safe = self.c(a)
        if mask is not None:
            a_safe = np.where(mask, a_safe, self.c(0.0))
        return self._unary("exp", self.isa.costs.exp, np.exp, a_safe, mask=mask, rows_active=rows_active)

    def sin(self, a, *, mask=None, rows_active=None):
        return self._unary("trig", self.isa.costs.trig, np.sin, a, mask=mask, rows_active=rows_active)

    def cos(self, a, *, mask=None, rows_active=None):
        return self._unary("trig", self.isa.costs.trig, np.cos, a, mask=mask, rows_active=rows_active)

    def minimum(self, a, b, *, rows_active=None):
        return self._binary("arith", self.isa.costs.arith, np.minimum, a, b, rows_active=rows_active)

    def maximum(self, a, b, *, rows_active=None):
        return self._binary("arith", self.isa.costs.arith, np.maximum, a, b, rows_active=rows_active)

    # -- comparisons and blending ----------------------------------------------

    def cmp_lt(self, a, b, *, rows_active=None):
        a = self.c(a)
        out = a < self.c(b)
        self.counter.record("compare", self._rows(a, rows_active), self.isa.costs.arith, width=self.width)
        return out

    def cmp_le(self, a, b, *, rows_active=None):
        a = self.c(a)
        out = a <= self.c(b)
        self.counter.record("compare", self._rows(a, rows_active), self.isa.costs.arith, width=self.width)
        return out

    def cmp_gt(self, a, b, *, rows_active=None):
        a = self.c(a)
        out = a > self.c(b)
        self.counter.record("compare", self._rows(a, rows_active), self.isa.costs.arith, width=self.width)
        return out

    def blend(self, mask, a, b, *, rows_active=None):
        """Per-lane select: mask ? a : b."""
        a = self.c(a)
        out = np.where(mask, a, self.c(b))
        self.counter.record("blend", self._rows(np.asarray(mask), rows_active), self.isa.costs.blend, width=self.width)
        return out

    # -- building block (1): vector-wide conditionals ---------------------------

    def all_lanes(self, mask: np.ndarray, *, rows_active=None) -> np.ndarray:
        """Per-row 'condition true across all lanes' (movemask / warp vote)."""
        out = np.all(mask, axis=-1)
        self.counter.record("horizontal", self._rows(mask, rows_active), self.isa.costs.horizontal)
        return out

    def any_lanes(self, mask: np.ndarray, *, rows_active=None) -> np.ndarray:
        out = np.any(mask, axis=-1)
        self.counter.record("horizontal", self._rows(mask, rows_active), self.isa.costs.horizontal)
        return out

    # -- building block (2): in-register reductions -----------------------------

    def reduce_add(self, v: np.ndarray, mask: np.ndarray | None = None, *, rows_active=None) -> np.ndarray:
        """Horizontal sum of each row into the accumulate dtype."""
        v = self.c(v)
        if mask is not None:
            v = np.where(mask, v, self.c(0.0))
        out = np.sum(v.astype(self.accum_dtype, copy=False), axis=-1)
        self.counter.record("reduction", self._rows(v, rows_active), self.isa.costs.reduction)
        return out

    # -- building block (3): conflict write handling -----------------------------

    def scatter_add_conflict(
        self,
        target: np.ndarray,
        idx: np.ndarray,
        values: np.ndarray,
        mask: np.ndarray | None = None,
        *,
        rows_active=None,
    ) -> None:
        """Scatter-add where lanes may collide (scheme 1b force writes).

        Correctness: equivalent to serialized lane-by-lane accumulation
        (``np.add.at``).  Cost: per-lane serialization, or the cheaper
        AVX-512CD path when the ISA has conflict detection (Sec. V-A (3)).
        """
        vals = np.asarray(values).astype(target.dtype, copy=False)
        if mask is not None:
            idx = idx[mask]
            vals = vals[mask]
        else:
            idx = idx.reshape(-1)
            vals = vals.reshape(-1)
        scatter_add(target, idx, vals)
        rows = self._rows(np.asarray(values), rows_active)
        self.counter.record(
            "scatter_conflict", rows, self.isa.scatter_conflict_cost(self.width), width=self.width
        )

    def scatter_add_distinct(
        self,
        target: np.ndarray,
        idx: np.ndarray,
        values: np.ndarray,
        mask: np.ndarray | None = None,
        *,
        rows_active=None,
    ) -> None:
        """Scatter-add where the caller guarantees distinct lane targets.

        This is the cheap path compilers assume for pair potentials
        (atoms in one neighbor list are distinct, Sec. V-A (3)); the
        guarantee is asserted in debug runs via ``np.add.at`` anyway,
        which is always correct.
        """
        vals = np.asarray(values).astype(target.dtype, copy=False)
        if mask is not None:
            idx = idx[mask]
            vals = vals[mask]
        else:
            idx = idx.reshape(-1)
            vals = vals.reshape(-1)
        scatter_add(target, idx, vals)
        rows = self._rows(np.asarray(values), rows_active)
        self.counter.record("scatter", rows, self.isa.costs.store + self.isa.costs.load, width=self.width)

    # -- building block (4): gathers / adjacent gathers ---------------------------

    def gather(
        self,
        table: np.ndarray,
        idx: np.ndarray,
        mask: np.ndarray | None = None,
        *,
        adjacent: bool = False,
        rows_active=None,
        fill: float = 0.0,
    ) -> np.ndarray:
        """Gather ``table[idx]`` lane-wise.

        ``adjacent=True`` marks a gather from consecutive memory
        locations (parameter-struct loads): ISAs without a native
        gather then use the load+permute replacement instead of the
        expensive scalar emulation (Sec. V-A (4)).  Masked-off lanes
        receive ``fill`` (use a benign non-zero for divisor fields).
        """
        safe_idx = idx
        if mask is not None:
            safe_idx = np.where(mask, idx, 0)
        out = self.c(np.asarray(table)[safe_idx])
        if mask is not None:
            out = np.where(mask, out, self.c(fill))
        rows = self._rows(np.asarray(idx), rows_active)
        if self.isa.has_native_gather:
            cost = self.isa.costs.gather
            cat = "gather"
        elif adjacent:
            cost = self.isa.costs.adjacent_gather
            cat = "adjacent_gather"
        else:
            cost = self.isa.costs.gather_emulated * self.width
            cat = "gather_emulated"
        self.counter.record(cat, rows, cost, width=self.width)
        return out

    def gather_int(self, table: np.ndarray, idx: np.ndarray, mask: np.ndarray | None = None, *, rows_active=None) -> np.ndarray:
        """Integer gather (neighbor indices); counted as integer traffic."""
        safe_idx = np.where(mask, idx, 0) if mask is not None else idx
        out = np.asarray(table)[safe_idx]
        if mask is not None:
            out = np.where(mask, out, 0)
        rows = self._rows(np.asarray(idx), rows_active)
        cost = self.isa.costs.gather if self.isa.has_native_gather else self.isa.costs.gather_emulated * self.width
        self.counter.record("gather_int", rows, max(cost, self.isa.costs.int_op), width=self.width)
        return out

    # -- integer lane ops (index manipulation for scheme 1b/1c) -------------------

    def int_op(self, out: np.ndarray, *, n_ops: int = 1, rows_active=None) -> np.ndarray:
        """Record `n_ops` vector-integer instructions the caller performed.

        Index arithmetic (cursor advancement, list offsets) is done by
        the caller in plain numpy; this hook charges it to the ISA.  On
        AVX (no 256-bit integer ops) this is where the scheme-1b
        penalty shows up.
        """
        rows = self._rows(np.asarray(out), rows_active)
        self.counter.record("int_op", rows * n_ops, self.isa.costs.int_op, width=self.width)
        return out

    # -- bookkeeping ---------------------------------------------------------------

    def load(self, x, *, rows_active=None):
        x = self.c(x)
        self.counter.record("load", self._rows(x, rows_active), self.isa.costs.load, width=self.width)
        return x

    def store(self, target: np.ndarray, value, *, rows_active=None) -> None:
        value = np.asarray(value)
        target[...] = value.astype(target.dtype, copy=False)
        self.counter.record("store", self._rows(value, rows_active), self.isa.costs.store, width=self.width)

    def reset_counter(self) -> None:
        self.counter.reset()

    def stats(self):
        return self.counter.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorBackend(isa={self.isa.name!r}, precision={self.precision.value!r}, width={self.width})"


def lane_stats(bk: VectorBackend, scheme: str, n_pairs: int, n_list: int) -> dict:
    """The ``ForceResult.stats`` of one lane-simulator call on `bk`.

    `n_pairs` interactions passed the cutoff out of `n_list` list
    entries; the modeled counters are those `bk` recorded since its
    last :meth:`~VectorBackend.reset_counter`.
    """
    st = bk.stats()
    return {
        "isa": bk.isa.name,
        "precision": bk.precision.value,
        "scheme": scheme,
        "width": bk.width,
        "pairs_in_cutoff": n_pairs,
        "list_entries": n_list,
        "filter_efficiency": n_pairs / n_list if n_list else 1.0,
        "cycles": st.cycles,
        "instructions": st.instructions,
        "utilization": st.utilization,
        "lane_occupancy": st.lane_occupancy,
        "kernel_invocations": st.kernel_invocations,
        "spin_iterations": st.spin_iterations,
        "by_category": dict(st.by_category),
        "kernel_stats": st,
    }
