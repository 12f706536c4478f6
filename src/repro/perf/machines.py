"""The evaluation hardware: every row of the paper's Tables I, II, III.

Clock rates and core counts are the published specifications of the
named parts; ``ipc_vector``/``ipc_scalar`` are the model's efficiency
factors (sustained fraction of one vector instruction per cycle the
Tersoff kernel achieves — memory stalls, lookup latency and loop
overhead folded in).  They are calibration constants, chosen once,
global across experiments, and documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Accelerator:
    """An offload device (Xeon Phi KNC or Kepler GPU)."""

    name: str
    isa: str
    units: int  # cores (Phi) or warp schedulers x SMX (GPU)
    freq_ghz: float
    ipc_vector: float
    ipc_scalar: float = 0.2  # in-order / latency-bound scalar execution
    substrate_ipc: float = 0.3  # neighbor build / integration when device-resident
    native: bool = False  # KNL is self-hosted; KNC/GPU offload over PCIe


@dataclass(frozen=True)
class Machine:
    """One benchmark system."""

    name: str
    processor: str
    sockets: int
    cores_per_socket: int
    freq_ghz: float
    isa: str
    table: str  # which paper table the row comes from
    ipc_vector: float = 0.75
    ipc_scalar: float = 0.55
    #: Algorithm-2-over-Algorithm-3 scalar slowdown on this core type.
    #: Anchored to the paper's own scalar measurements where available
    #: (WM Opt-D/Ref = 1.9, ARM = 2.4, both scalar code per footnotes
    #: 3-4); 2.0 elsewhere, consistent with the measured 2x redundant
    #: zeta evaluation plus lookup indirection.
    ref_overhead: float = 2.0
    accelerators: tuple[Accelerator, ...] = ()

    @property
    def cores(self) -> int:
        return self.sockets * self.cores_per_socket

    def describe(self) -> str:
        acc = ", ".join(f"{a.name} ({a.isa}, {a.units} units)" for a in self.accelerators)
        row = f"{self.name}: {self.processor}, {self.sockets} x {self.cores_per_socket} cores, {self.isa}"
        return row + (f", accel: {acc}" if acc else "")


# Sustained-efficiency factors for the accelerators are calibrated once
# against two anchors each (the device's absolute Opt ns/day and its
# Opt/Ref speedup from Figs. 6-7) and then reused for every other
# experiment; see EXPERIMENTS.md.  The low GPU values reflect the ~1%
# of peak that Tersoff-class kernels reached on Kepler (divergence,
# register pressure); KNC's scalar value is lifted by its 4-way SMT.
_KNC = Accelerator(name="Xeon Phi 5110P", isa="imci", units=60, freq_ghz=1.053,
                   ipc_vector=0.101, ipc_scalar=0.355)
_KNL = Accelerator(name="Xeon Phi 7250", isa="avx512", units=68, freq_ghz=1.40,
                   ipc_vector=0.134, ipc_scalar=0.56, native=True)
# Kepler: model one warp-wide pipeline per SMX scheduler; K20x has 14
# SMX at 732 MHz, K40 15 SMX at 745 MHz, 4 warp schedulers each.
_K20X = Accelerator(name="Tesla K20x", isa="cuda", units=14 * 4, freq_ghz=0.732,
                    ipc_vector=0.0263, substrate_ipc=0.0365)
_K40 = Accelerator(name="Tesla K40", isa="cuda", units=15 * 4, freq_ghz=0.745,
                   ipc_vector=0.0263, substrate_ipc=0.0365)

MACHINES: dict[str, Machine] = {}


def _add(m: Machine) -> Machine:
    MACHINES[m.name] = m
    return m


# ---- Table I: CPU benchmarks -------------------------------------------------
# ipc_vector encodes the sustained fraction of peak vector issue the
# Tersoff kernel reaches; it shrinks with vector width because gathers,
# lane shuffles and conflict serialization are latency- not
# throughput-bound.  Anchored per ISA family to one Fig. 4 ratio each
# (see EXPERIMENTS.md), then reused unchanged everywhere.
ARM = _add(Machine("ARM", "ARM Cortex-A15 (big.LITTLE)", 1, 4, 1.6, "neon", "I",
                   ipc_vector=0.62, ipc_scalar=0.40, ref_overhead=2.4))
WM = _add(Machine("WM", "Intel Xeon X5675", 2, 6, 3.06, "sse4.2", "I",
                  ipc_vector=0.56, ref_overhead=1.9))
SB = _add(Machine("SB", "Intel Xeon E5-2450", 2, 8, 2.10, "avx", "I",
                  ipc_vector=0.52))
HW = _add(Machine("HW", "Intel Xeon E5-2680v3", 2, 12, 2.50, "avx2", "I",
                  ipc_vector=0.40))
HW2 = _add(Machine("HW2", "Intel Xeon E5-2697v3", 2, 14, 2.60, "avx2", "I",
                   ipc_vector=0.40))
BW = _add(Machine("BW", "Intel Xeon E5-2697v4", 2, 18, 2.30, "avx2", "I",
                  ipc_vector=0.40))

# ---- Table II: GPU benchmarks ------------------------------------------------
K20X = _add(Machine("K20X", "Intel Xeon E5-2650", 2, 8, 2.00, "avx", "II",
                    accelerators=(_K20X,)))
K40 = _add(Machine("K40", "Intel Xeon E5-2650", 2, 8, 2.00, "avx", "II",
                   accelerators=(_K40,)))

# ---- Table III: Xeon Phi systems ----------------------------------------------
SB_KNC = _add(Machine("SB+KNC", "Intel Xeon E5-2450", 2, 8, 2.10, "avx", "III",
                      accelerators=(_KNC,)))
IV_2KNC = _add(Machine("IV+2KNC", "Intel Xeon E5-2650v2", 2, 8, 2.60, "avx", "III",
                       accelerators=(_KNC, _KNC)))
HW_KNC = _add(Machine("HW+KNC", "Intel Xeon E5-2680v3", 2, 12, 2.50, "avx2", "III",
                      accelerators=(_KNC,)))
KNL = _add(Machine("KNL", "Intel Xeon Phi 7250 (self-hosted)", 1, 68, 1.40, "avx512", "III",
                   ipc_vector=0.134, ipc_scalar=0.56))

# Native-mode view of Knights Corner (Fig. 7 runs on the device only,
# "without any involvement of the host"); not a row of any table.
KNC_NATIVE = _add(Machine("KNC", "Intel Xeon Phi 5110P (native)", 1, 60, 1.053, "imci", "-",
                          ipc_vector=0.101, ipc_scalar=0.355))


def get_machine(name: str) -> Machine:
    if name not in MACHINES:
        raise KeyError(f"unknown machine {name!r}; known: {sorted(MACHINES)}")
    return MACHINES[name]


def list_machines(table: str | None = None) -> list[Machine]:
    ms = list(MACHINES.values())
    if table is not None:
        ms = [m for m in ms if m.table == table]
    return ms


def table_i() -> list[Machine]:
    """Table I rows (CPU benchmarks)."""
    return list_machines("I")


def table_ii() -> list[Machine]:
    """Table II rows (GPU benchmarks)."""
    return list_machines("II")


def table_iii() -> list[Machine]:
    """Table III rows (Xeon Phi systems)."""
    return list_machines("III")
