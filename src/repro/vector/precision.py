"""Precision modes: double, single, mixed (paper Sec. V-D/E).

The paper ships four execution modes; the three *optimized* ones differ
only in precision:

- ``Opt-D``: all arithmetic in double precision;
- ``Opt-S``: all arithmetic in single precision (double the lanes);
- ``Opt-M``: single-precision arithmetic with double-precision
  *accumulators* — "the default mode for code of the USER-INTEL
  package".  The paper notes its vector library derives the mixed
  version automatically from the single and double implementations;
  here that derivation is the pair (compute dtype, accumulate dtype).
"""

from __future__ import annotations

import enum

import numpy as np


class Precision(enum.Enum):
    """Floating-point mode of a kernel execution."""

    DOUBLE = "double"
    SINGLE = "single"
    MIXED = "mixed"

    @property
    def compute_dtype(self) -> np.dtype:
        """dtype used inside the computational component."""
        if self is Precision.DOUBLE:
            return np.dtype(np.float64)
        return np.dtype(np.float32)

    @property
    def accum_dtype(self) -> np.dtype:
        """dtype of force/energy accumulators."""
        if self is Precision.SINGLE:
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    @property
    def uses_single_lanes(self) -> bool:
        """Whether the ISA's single-precision vector width applies."""
        return self is not Precision.DOUBLE

    @classmethod
    def parse(cls, value: "str | Precision") -> "Precision":
        if isinstance(value, Precision):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            raise ValueError(
                f"unknown precision {value!r}; expected one of "
                f"{[p.value for p in cls]}"
            ) from None
