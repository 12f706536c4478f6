"""Load generator for the evaluation service.

Drives N worker threads, each with its own keep-alive connection,
through a fixed number of requests and reports latency percentiles.
Used by ``repro loadgen``; the numbers that decide anything are those of
``benchmarks/e2e`` (``serve-replay-512``, ``serve-mixed``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.serve.client import ServeClient, ServeError


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_samples:
        return float("nan")
    rank = max(0, min(len(sorted_samples) - 1,
                      round(q / 100.0 * (len(sorted_samples) - 1))))
    return sorted_samples[rank]


@dataclass
class LoadResult:
    """Outcome of one load run (latencies in seconds)."""

    latencies: list[float] = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # code -> count
    wall_s: float = 0.0

    def summary(self) -> dict:
        lat = sorted(self.latencies)
        n = len(lat)
        return {
            "requests": n,
            "errors": dict(sorted(self.errors.items())),
            "wall_s": self.wall_s,
            "rps": (n / self.wall_s) if self.wall_s > 0 else 0.0,
            "p50_ms": percentile(lat, 50) * 1e3,
            "p90_ms": percentile(lat, 90) * 1e3,
            "p99_ms": percentile(lat, 99) * 1e3,
            "min_ms": (lat[0] * 1e3) if lat else float("nan"),
            "max_ms": (lat[-1] * 1e3) if lat else float("nan"),
        }


def run_load(address: str, solver: dict, system, *,
             requests: int, concurrency: int = 1,
             tenant: str = "default", timeout: float = 120.0) -> LoadResult:
    """Issue `requests` evaluations of `system` (an ``AtomSystem`` or its
    payload dict) against `address` from `concurrency` worker threads
    and collect per-request latency.

    Backpressure rejections (HTTP 429) are counted under
    ``errors["backpressure"]``, not retried — the generator measures
    the service as configured, it does not adapt to it.
    """
    result = LoadResult()
    lock = threading.Lock()
    counter = iter(range(requests))

    def worker() -> None:
        with ServeClient(address, timeout=timeout) as client:
            while True:
                with lock:
                    try:
                        next(counter)
                    except StopIteration:
                        return
                t0 = time.perf_counter()
                try:
                    client.evaluate(solver, system, tenant=tenant)
                except ServeError as exc:
                    with lock:
                        result.errors[exc.code] = result.errors.get(exc.code, 0) + 1
                    continue
                dt = time.perf_counter() - t0
                with lock:
                    result.latencies.append(dt)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(max(1, concurrency))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.wall_s = time.perf_counter() - t0
    return result
