"""Conflict-safe accumulation primitives shared by all pipeline kernels.

Segmented sums are the Sec. V-A (3) building block of
:mod:`repro.core.pipeline`: scatter-with-conflicts expressed as a bin
reduction so every potential accumulates forces the same audited way.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import hot_path

_AXES3 = np.arange(3, dtype=np.int64)


def idx3_of(idx: np.ndarray) -> np.ndarray:
    """The ``idx * 3 + axis`` flat index of the fused segmented sum.

    Topology-only: a caller that sums over the same rows more than once
    can form it once and pass it as ``segsum3(..., idx3=)``.
    """
    return (idx[:, None] * 3 + _AXES3).ravel()


@hot_path(reason="conflict-safe accumulation primitive on the per-step path")
def segsum3(
    idx: np.ndarray,
    vec: np.ndarray,
    n: int,
    out_dtype=np.float64,
    *,
    idx3: np.ndarray | None = None,
) -> np.ndarray:
    """Fused segmented sum of (T, 3) vectors by row index -> (n, 3).

    One ``np.bincount`` over ``idx * 3 + axis`` replaces the old
    three-pass per-axis loop.  Bit-for-bit identical to the loop:
    bincount accumulates in input order either way, and each (row, axis)
    element maps to exactly one bin.
    """
    if idx3 is None:
        idx3 = idx3_of(idx)
    w = np.ascontiguousarray(vec, dtype=np.float64).reshape(-1)
    out = np.bincount(idx3, weights=w, minlength=3 * n).reshape(-1, 3)[:n]
    return out.astype(out_dtype, copy=False)
