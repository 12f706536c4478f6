"""Durable-run state: checkpoint/restart, streaming trajectories, telemetry.

The paper's headline numbers come from long production runs (Fig. 9
cluster scaling, the single-node sweeps); reproducing them requires
runs that survive preemption and can be audited afterwards.  This
package provides the three durability primitives:

- :mod:`repro.state.checkpoint` — the ``repro.state`` binary
  checkpoint format capturing full :class:`~repro.md.simulation.
  Simulation` state with **bitwise-identical resume** (a run of N
  steps equals K steps + checkpoint + restart for N−K, to the last
  ULP, serial or parallel);
- :mod:`repro.state.trajectory` — chunked, compressed, append-safe
  binary trajectory streaming that tolerates truncated tails from
  killed runs;
- :mod:`repro.state.telemetry` — per-step JSON-lines records of the
  existing :class:`~repro.md.simulation.StageTimers` /
  :class:`~repro.core.pipeline.workspace.CacheStats` /
  ``workload_summary()`` feeds, plus the ``repro telemetry summarize``
  aggregation.

All three share the framed container of :mod:`repro.state.format`
(length + CRC32 per frame, optional zlib), which is what makes partial
writes detectable instead of corrupting.
"""

from repro.state.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    Checkpointer,
    CheckpointError,
    load_checkpoint,
    restore_simulation,
    save_checkpoint,
)
from repro.state.format import (
    CorruptStateError,
    StateFormatError,
    TruncatedStateError,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointError",
    "Checkpointer",
    "CorruptStateError",
    "StateFormatError",
    "TruncatedStateError",
    "load_checkpoint",
    "restore_simulation",
    "save_checkpoint",
]
