"""Network models and communication accounting for the simulated MPI.

A :class:`NetworkModel` converts message traffic into time with the
standard alpha-beta (latency + bytes/bandwidth) model; the constants
below describe the fabrics of the paper's test systems (Sec. VI):
intra-node shared-memory MPI, FDR InfiniBand between the SuperMIC
nodes of Fig. 9, and PCIe gen-2 x16 for Xeon Phi / GPU offload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The fabric models live in repro.perf.network (shared with the offload
# layer); re-exported here because halo traffic is their main consumer.
from repro.perf.network import (
    INFINIBAND_FDR,  # noqa: F401
    INTRA_NODE,  # noqa: F401
    NetworkModel,  # noqa: F401
    PCIE_GEN2,  # noqa: F401
)


@dataclass
class CommRecord:
    """Accumulated traffic of one rank (or one stage).

    ``time_s`` is whatever seconds the caller books with each message:
    the sequential-SPMD model passes ``network.message_time(nbytes)``,
    the engine its measured wall seconds.  ``by_stage`` entries are
    ``[count, bytes, seconds]``.
    """

    messages: int = 0
    bytes: int = 0
    time_s: float = 0.0
    by_stage: dict = field(default_factory=dict)

    def add(self, nbytes: int, seconds: float, *, stage: str = "halo") -> None:
        self.messages += 1
        self.bytes += int(nbytes)
        self.time_s += float(seconds)
        entry = self.by_stage.setdefault(stage, [0, 0, 0.0])
        entry[0] += 1
        entry[1] += int(nbytes)
        entry[2] += float(seconds)

    def merged_with(self, other: "CommRecord") -> "CommRecord":
        out = CommRecord(
            messages=self.messages + other.messages,
            bytes=self.bytes + other.bytes,
            time_s=self.time_s + other.time_s,
        )
        for src in (self.by_stage, other.by_stage):
            # sorted: merged stage order (and float accumulation order)
            # must not depend on each record's insertion history
            for k, v in sorted(src.items()):
                e = out.by_stage.setdefault(k, [0, 0, 0.0])
                e[0] += v[0]
                e[1] += v[1]
                e[2] += v[2]
        return out
