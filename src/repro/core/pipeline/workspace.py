"""Reusable scratch arena and cache counters for the staged pipeline.

Neither is potential-specific: every :mod:`repro.core.pipeline` kernel
shares them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Workspace:
    """Capacity-doubling, dtype-aware scratch arena.

    ``buf(name, shape, dtype)`` returns a view of a persistent named
    buffer, reallocating only when the request outgrows the capacity
    (then at least doubling, so a fluctuating pair count settles into
    zero steady-state allocation).  Buffers are *not* zeroed — callers
    must fully overwrite them, which every user in this package does.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}
        self.grow_events = 0

    def __reduce__(self):
        # Pickle and deep-copy as a *fresh* arena: the buffers are scratch
        # that every user overwrites before reading, so a warmed owner
        # sent to a spawn/socket worker or copied per rank would only
        # carry megabytes nobody reads.
        return (Workspace, ())

    def buf(self, name: str, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape) if isinstance(shape, tuple) else (int(shape),)
        need = 1
        for s in shape:
            need *= s
        cur = self._bufs.get(name)
        if cur is None or cur.dtype != dtype:
            self._bufs[name] = np.empty(need, dtype=dtype)
            self.grow_events += 1
        elif cur.size < need:
            self._bufs[name] = np.empty(max(need, 2 * cur.size), dtype=dtype)
            self.grow_events += 1
        return self._bufs[name][:need].reshape(shape)

    @property
    def nbytes(self) -> int:
        # integer byte count: addition is exact, so order cannot matter
        return sum(b.nbytes for b in self._bufs.values())  # repro-lint: disable=KB003


@dataclass
class CacheStats:
    """Cumulative cache behaviour of one potential (``misses`` stays 0: no layer counts one)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    last_event: str = "cold"

    @property
    def calls(self) -> int:
        return self.hits + self.misses + self.invalidations

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "last_event": self.last_event,
        }
