"""The host this process runs on — as opposed to the paper's machines,
which :mod:`repro.perf.machines` models.  Imported by the compiled
kernel on every run, so it imports nothing of the package."""

from __future__ import annotations

import os
import platform
import sys


def usable_cores() -> int:
    """Cores this process may be scheduled on (affinity-aware) — the
    count ``benchmarks/e2e/run.py`` records and refuses to scale past,
    and the most threads one call of the compiled kernel uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processor_name() -> str:
    """Best-effort CPU model string (``platform.processor`` is often empty on Linux)."""
    if sys.platform.startswith("linux"):
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.lower().startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
    return platform.processor() or platform.machine()
