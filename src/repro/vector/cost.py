"""Instruction accounting for the lane-faithful vector backend.

Every operation executed through :class:`~repro.vector.backend.VectorBackend`
is recorded here.  A *count of 1* means one hardware vector instruction
(one row of the ``(chunks, W)`` register file).  The counter also
tracks lane occupancy so the Sec. IV-C utilization experiment (Fig. 2)
and the performance model can distinguish issued work from useful work.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.vector.isa import ISA


@dataclass
class KernelStats:
    """Summary of one kernel execution, consumed by :mod:`repro.perf`.

    Attributes
    ----------
    cycles:
        Modelled cycles on the ISA the kernel ran with.
    instructions:
        Total vector instructions issued.
    lane_slots:
        ``instructions x width`` lane slots issued in *compute* ops.
    lane_slots_active:
        Of those, slots doing useful (unmasked) work.
    kernel_invocations:
        Times the numerical kernel body fired.
    kernel_lanes, kernel_lanes_active:
        Lanes those bodies issued (``invocations x width``) and the ones
        doing a pair or a triplet: the *unweighted* occupancy a real
        kernel can count (``utilization`` weights every lane slot by the
        instructions issued on it).
    spin_iterations:
        Fast-forward bookkeeping iterations (Sec. IV-C).
    by_category:
        Instruction count per op category.
    """

    cycles: float = 0.0
    instructions: int = 0
    lane_slots: int = 0
    lane_slots_active: int = 0
    kernel_invocations: int = 0
    kernel_lanes: int = 0
    kernel_lanes_active: int = 0
    spin_iterations: int = 0
    by_category: dict[str, int] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Fraction of issued compute lane slots doing useful work."""
        if self.lane_slots == 0:
            return 1.0
        return self.lane_slots_active / self.lane_slots

    @property
    def lane_occupancy(self) -> float:
        """Fraction of the lanes of the fired kernel bodies that were active."""
        if self.kernel_lanes == 0:
            return 1.0
        return self.kernel_lanes_active / self.kernel_lanes

    def scaled(self, factor: float) -> "KernelStats":
        """Stats linearly extrapolated to `factor`x the workload."""
        return KernelStats(
            cycles=self.cycles * factor,
            instructions=int(self.instructions * factor),
            lane_slots=int(self.lane_slots * factor),
            lane_slots_active=int(self.lane_slots_active * factor),
            kernel_invocations=int(self.kernel_invocations * factor),
            kernel_lanes=int(self.kernel_lanes * factor),
            kernel_lanes_active=int(self.kernel_lanes_active * factor),
            spin_iterations=int(self.spin_iterations * factor),
            by_category={k: int(v * factor) for k, v in self.by_category.items()},
        )


class CostCounter:
    """Accumulates instruction counts and modelled cycles for one ISA."""

    def __init__(self, isa: ISA):
        self.isa = isa
        self.cycles: float = 0.0
        self.instructions: int = 0
        self.lane_slots: int = 0
        self.lane_slots_active: int = 0
        self.kernel_invocations: int = 0
        self.kernel_lanes: int = 0
        self.kernel_lanes_active: int = 0
        self.spin_iterations: int = 0
        self.by_category: defaultdict[str, int] = defaultdict(int)

    # -- low-level recording ------------------------------------------------

    def record(
        self,
        category: str,
        n_instructions: int,
        cost_each: float,
        *,
        width: int = 0,
        active_lanes: int | None = None,
        masked: bool = False,
    ) -> None:
        """Record `n_instructions` vector instructions of one category.

        Parameters
        ----------
        cost_each:
            Cycles per instruction (before mask overhead).
        width:
            Lanes per instruction; when non-zero, occupancy is tracked.
        active_lanes:
            Total useful lane slots across the instructions (defaults
            to full occupancy).
        masked:
            Whether the op ran under a mask; on ISAs without free
            masking this adds the blend-emulation cost.
        """
        if n_instructions <= 0:
            return
        cost = cost_each
        if masked:
            cost += self.isa.masked_op_cost()
        self.cycles += cost * n_instructions
        self.instructions += n_instructions
        self.by_category[category] += n_instructions
        if width:
            slots = n_instructions * width
            self.lane_slots += slots
            self.lane_slots_active += slots if active_lanes is None else int(active_lanes)

    def record_kernel_invocation(self, n: int = 1, *, width: int = 0,
                                 active_lanes: int | None = None) -> None:
        """`n` kernel bodies fired; with a `width`, their lanes are
        counted too (`active_lanes` of them useful, default all)."""
        self.kernel_invocations += n
        self.kernel_lanes += n * width
        self.kernel_lanes_active += n * width if active_lanes is None else int(active_lanes)

    def record_spin(self, n: int = 1) -> None:
        """Fast-forward bookkeeping iterations (Sec. IV-C 'spinning')."""
        self.spin_iterations += n

    # -- snapshots -----------------------------------------------------------

    def stats(self) -> KernelStats:
        return KernelStats(
            cycles=self.cycles,
            instructions=self.instructions,
            lane_slots=self.lane_slots,
            lane_slots_active=self.lane_slots_active,
            kernel_invocations=self.kernel_invocations,
            kernel_lanes=self.kernel_lanes,
            kernel_lanes_active=self.kernel_lanes_active,
            spin_iterations=self.spin_iterations,
            by_category=dict(self.by_category),
        )

    def reset(self) -> None:
        self.cycles = 0.0
        self.instructions = 0
        self.lane_slots = 0
        self.lane_slots_active = 0
        self.kernel_invocations = 0
        self.kernel_lanes = 0
        self.kernel_lanes_active = 0
        self.spin_iterations = 0
        self.by_category.clear()

    def merged_with(self, other: "CostCounter") -> "CostCounter":
        """A new counter with both counters' totals (same ISA required)."""
        if other.isa.name != self.isa.name:
            raise ValueError("cannot merge counters of different ISAs")
        out = CostCounter(self.isa)
        out.cycles = self.cycles + other.cycles
        out.instructions = self.instructions + other.instructions
        out.lane_slots = self.lane_slots + other.lane_slots
        out.lane_slots_active = self.lane_slots_active + other.lane_slots_active
        out.kernel_invocations = self.kernel_invocations + other.kernel_invocations
        out.kernel_lanes = self.kernel_lanes + other.kernel_lanes
        out.kernel_lanes_active = self.kernel_lanes_active + other.kernel_lanes_active
        out.spin_iterations = self.spin_iterations + other.spin_iterations
        for key in set(self.by_category) | set(other.by_category):
            out.by_category[key] = self.by_category.get(key, 0) + other.by_category.get(key, 0)
        return out
