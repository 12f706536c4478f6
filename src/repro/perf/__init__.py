"""Performance modelling: the paper's machines and the cycles->ns/day model.

The reproduction cannot run on Westmere, Knights Corner or Kepler
silicon; instead, kernel executions on the lane-faithful backend yield
per-ISA instruction/cycle counts, and this package converts them into
the paper's metric (ns/day) using the published machine parameters of
Tables I-III plus explicit, documented calibration constants.
"""

from repro.perf.machines import (
    Accelerator,
    Machine,
    MACHINES,
    get_machine,
    list_machines,
    table_i,
    table_ii,
    table_iii,
)
from repro.perf.model import KernelProfile, PerformanceModel, StepTime
from repro.perf.offload import OffloadModel, balanced_split

__all__ = [
    "Accelerator",
    "KernelProfile",
    "MACHINES",
    "Machine",
    "OffloadModel",
    "PerformanceModel",
    "StepTime",
    "balanced_split",
    "get_machine",
    "list_machines",
    "table_i",
    "table_ii",
    "table_iii",
]
