"""Structured run telemetry: per-step JSON-lines + fleet summaries.

Every step record carries the *cumulative* :class:`~repro.md.
simulation.StageTimers` (so an aggregator reads exact totals off the
last record — no float re-summation drift) plus the per-step delta
(for live monitoring), the interaction-cache counters, thermo
observables and — on the parallel path — the engine's measured
workload summary.  One JSON object per line, flushed per record: a
killed run leaves at most one torn final line, which the summarizer
tolerates.

``repro telemetry summarize`` (CLI) renders the output of
:func:`summarize_telemetry` for one file; the records are designed so
a fleet of runs can be monitored by concatenating/tailing their JSONL
streams.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples for JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


class TelemetrySink:
    """JSON-lines telemetry writer, usable as a run callback::

        telem = TelemetrySink("run.telemetry.jsonl")
        sim.run(1000, callback=[telem])

    Emits a ``run_start`` record on the first step, a ``step`` record
    every ``every`` steps, and a ``run_end`` record from ``finalize``.
    """

    def __init__(self, path, *, every: int = 1, meta: dict | None = None, append: bool = False):
        if every < 1:
            raise ValueError("telemetry interval must be >= 1")
        self.path = Path(path)
        self.every = int(every)
        self.meta = meta or {}
        self.records_written = 0
        self._started = False
        self._last_timers: dict[str, float] | None = None
        self._fh = open(self.path, "a" if append else "w")

    def _emit(self, record: dict) -> None:
        if self._fh is None:
            raise ValueError("telemetry sink is closed")
        self._fh.write(json.dumps(_jsonable(record), separators=(",", ":")) + "\n")
        self._fh.flush()
        self.records_written += 1

    def _start(self, sim) -> None:
        self._started = True
        self._emit({
            "kind": "run_start",
            "step": sim.step_index,
            "n_atoms": sim.system.n,
            "dt_ps": sim.dt,
            "potential": type(sim.potential).__name__,
            "workers": None if sim.engine is None else sim.engine.workers,
            "ranks": None if sim.engine is None else sim.engine.ranks,
            "meta": self.meta,
        })
        self._last_timers = sim.timers.as_dict()

    def record_step(self, sim, step: int) -> None:
        if not self._started:
            self._start(sim)
        timers = sim.timers.as_dict()
        last = self._last_timers or {}
        record = {
            "kind": "step",
            "step": step,
            "time_ps": step * sim.dt,
            "energy": None if sim.last_result is None else sim.last_result.energy,
            "temperature": sim.system.temperature(),
            "neighbor_builds": sim._builds(),
            "timers": timers,
            "timers_delta": {k: timers[k] - last.get(k, 0.0) for k in timers},
        }
        cache = sim.last_result.stats.get("cache") if sim.last_result is not None else None
        if cache is not None:
            record["cache"] = cache
        workload = sim.workload_summary()
        if workload is not None:
            record["workload"] = workload
        self._last_timers = timers
        self._emit(record)

    def callback(self, sim, step: int) -> None:
        if step % self.every == 0:
            self.record_step(sim, step)

    __call__ = callback

    def finalize(self, sim) -> None:
        if not self._started:
            self._start(sim)
        self._emit({
            "kind": "run_end",
            "step": sim.step_index,
            "neighbor_builds": sim._builds(),
            "timers": sim.timers.as_dict(),
        })

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_telemetry(path) -> tuple[list[dict], int]:
    """Parse a telemetry JSONL file.

    Returns ``(records, bad_lines)``; undecodable lines (the torn tail
    of a killed run) and step or run-end records without their step
    are counted, not fatal.
    """
    records: list[dict] = []
    bad = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                bad += 1
                continue
            if isinstance(obj, dict) and ("step" in obj or obj.get("kind") not in ("step", "run_end")):
                records.append(obj)
            else:
                bad += 1
    return records, bad


def summarize_telemetry(path) -> dict:
    """Aggregate one telemetry stream into a fleet-level summary.

    Per-stage timing totals are read off the last record's cumulative
    ``timers`` (bit-exact against the run's final
    :class:`~repro.md.simulation.StageTimers`), not re-summed from
    deltas.
    """
    records, bad = read_telemetry(path)
    steps = [r for r in records if r.get("kind") == "step"]
    starts = [r for r in records if r.get("kind") == "run_start"]
    ends = [r for r in records if r.get("kind") == "run_end"]
    timed = [r for r in records if isinstance(r.get("timers"), dict)]
    summary: dict = {
        "records": len(records),
        "bad_lines": bad,
        "complete": bool(ends) and not bad,
        "runs": len(starts),
        "step_records": len(steps),
        "first_step": steps[0]["step"] if steps else None,
        "last_step": (ends[-1] if ends else steps[-1])["step"] if (ends or steps) else None,
        "timers": timed[-1]["timers"] if timed else {},
    }
    energies = [r["energy"] for r in steps if r.get("energy") is not None]
    if energies:
        summary["energy_first"] = energies[0]
        summary["energy_last"] = energies[-1]
        summary["energy_drift"] = energies[-1] - energies[0]
    temps = [r["temperature"] for r in steps if r.get("temperature") is not None]
    if temps:
        summary["temperature_mean"] = float(np.mean(temps))
    caches = [r["cache"] for r in steps if isinstance(r.get("cache"), dict)]
    if caches and caches[-1].get("enabled"):
        summary["cache"] = {
            k: caches[-1].get(k) for k in ("hits", "misses", "invalidations", "list_version")
        }
    builds = [r["neighbor_builds"] for r in records if r.get("neighbor_builds") is not None]
    if builds:
        summary["neighbor_builds"] = builds[-1] - (builds[0] if steps else 0)
        summary["neighbor_builds_last"] = builds[-1]
    return summary


def render_telemetry_summary(summary: dict) -> str:
    """Human-readable rendering for ``repro telemetry summarize``."""
    lines = [
        f"records: {summary['records']} ({summary['step_records']} steps, "
        f"{summary['runs']} run starts, {summary['bad_lines']} bad lines)",
        f"steps: {summary['first_step']} .. {summary['last_step']}"
        + ("" if summary["complete"] else "  [incomplete: no clean run_end]"),
    ]
    timers = summary.get("timers") or {}
    if timers:
        total = (
            timers.get("total")
            or sum(v for k, v in sorted(timers.items()) if k != "total")
            or 1.0
        )
        parts = ", ".join(
            f"{k} {v:.3f}s ({100.0 * v / total:.1f}%)"
            for k, v in sorted(timers.items()) if k != "total"
        )
        lines.append(f"stage totals: total {total:.3f}s: {parts}")
    if "energy_drift" in summary:
        lines.append(
            f"energy: {summary['energy_first']:.6f} -> {summary['energy_last']:.6f} eV "
            f"(drift {summary['energy_drift']:+.3e})"
        )
    if "temperature_mean" in summary:
        lines.append(f"temperature: mean {summary['temperature_mean']:.2f} K")
    if "cache" in summary:
        c = summary["cache"]
        lines.append(
            f"interaction cache: {c['hits']} hits, "
            f"{c['invalidations']} invalidations (list v{c['list_version']})"
        )
    if "neighbor_builds_last" in summary:
        lines.append(f"neighbor builds: {summary['neighbor_builds_last']}")
    return "\n".join(lines)
