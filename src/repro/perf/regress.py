"""Benchmark runner, artifact schema and noise-aware comparator.

The regression contract (``repro bench``):

1. ``run``      — execute the curated suite (:mod:`repro.perf.suite`)
   with warmup/repeat/outlier handling and write a schema-versioned
   ``BENCH_<timestamp>.json`` artifact including a host fingerprint.
2. ``baseline`` — same, but written under ``benchmarks/baselines/`` to
   be committed.
3. ``compare``  — diff a current run against a baseline: median-of-
   repeats wall-clock with two relative-tolerance tiers (hard-fail vs
   warn), deterministic modeled metrics with a tight tolerance, and a
   refusal to compare artifacts from different hosts.

Noise model: wall-clock per case is summarised by the median of the
kept repeats; repeats farther than ``OUTLIER_IQR_FACTOR`` interquartile
ranges from the median are dropped first (GC pauses, CI neighbors).
Deterministic metrics (modeled cycles, predicted ns/day) carry no noise
at all, so any drift there is a real behavioural change.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.perf.machines import fingerprints_match, host_fingerprint
from repro.perf.suite import BenchCase, get_suite

#: Bump on any incompatible artifact layout change; the comparator
#: refuses artifacts whose major version differs.
SCHEMA_VERSION = 1

DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1
#: Keep sampling a case until this much time has elapsed (and at least
#: `repeats` samples exist) — short cases get many samples for free,
#: which is what makes their medians comparable at all.
DEFAULT_MIN_TIME_S = 0.5
DEFAULT_MAX_REPEATS = 50
#: Repeats farther than this many IQRs from the median are discarded.
OUTLIER_IQR_FACTOR = 3.0
#: Hard-fail when a hard-tier case slows down by more than this.
DEFAULT_FAIL_TOL = 0.20
#: Warn when any case slows down by more than this.
DEFAULT_WARN_TOL = 0.10
#: Deterministic metrics tolerate only float-noise drift.
METRIC_RTOL = 1e-6
#: Medians below this are timer-noise dominated: they can warn, never
#: hard-fail (a 20 microsecond case "regressing" 40% is not a signal).
NOISE_FLOOR_S = 1e-3

BASELINE_DIR = Path("benchmarks/baselines")


class ArtifactError(ValueError):
    """Malformed, unreadable, or incompatible benchmark artifact."""


class CaseSkipped(Exception):
    """Raised by a case's ``setup`` when its prerequisites are absent.

    A skipped case (e.g. a compiled-backend case on a host with no C
    toolchain) is recorded in the artifact's ``skipped``
    section instead of ``results`` and never gates a comparison — it
    shows up as ``missing`` with the skip reason, like a case removed
    from the suite.
    """


class SchemaMismatchError(ArtifactError):
    """Artifact written by an incompatible schema version."""


class MachineMismatchError(ArtifactError):
    """Baseline and current run come from different hosts."""


# ---- running -----------------------------------------------------------------

def run_case(case: BenchCase, *, repeats: int, warmup: int,
             min_time: float = DEFAULT_MIN_TIME_S,
             max_repeats: int = DEFAULT_MAX_REPEATS) -> dict:
    """Measure one case: warmup, repeat, summarise, collect metrics.

    Sampling is time-budgeted: at least `repeats` samples, then keep
    going until `min_time` seconds of measurement (capped at
    `max_repeats`).  Short cases thus accumulate dozens of samples,
    which is what makes their medians robust to scheduler bursts.
    """
    thunk = case.setup()
    reps = max(case.repeats if case.repeats is not None else repeats, 1)
    warm = case.warmup if case.warmup is not None else warmup
    payload = None
    for _ in range(warm):
        payload = thunk()
    samples = []
    budget_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        payload = thunk()
        samples.append(time.perf_counter() - t0)
        if len(samples) >= max(reps, 1):
            enough_time = (time.perf_counter() - budget_start) >= min_time
            if enough_time or len(samples) >= max(max_repeats, reps):
                break
    kept, dropped = reject_outliers(samples)
    result = {
        "tier": case.tier,
        "group": case.group,
        "samples_s": samples,
        "kept": len(kept),
        "dropped_outliers": dropped,
        "median_s": statistics.median(kept),
        "mean_s": statistics.fmean(kept),
        "min_s": min(kept),
        "stdev_s": statistics.stdev(kept) if len(kept) > 1 else 0.0,
    }
    if case.metrics is not None:
        result["metrics"] = {k: float(v) for k, v in case.metrics(payload).items()}
    if case.extra is not None:
        result["extra"] = case.extra(payload)
    return result


def reject_outliers(samples: list[float]) -> tuple[list[float], int]:
    """Drop samples beyond ``OUTLIER_IQR_FACTOR`` IQRs from the median.

    With fewer than 4 samples the IQR is meaningless — keep everything.
    Never drops below half the samples (a bimodal run should look noisy,
    not clean).
    """
    if len(samples) < 4:
        return list(samples), 0
    med = statistics.median(samples)
    q = statistics.quantiles(samples, n=4)
    iqr = q[2] - q[0]
    if iqr <= 0.0:
        return list(samples), 0
    lo, hi = med - OUTLIER_IQR_FACTOR * iqr, med + OUTLIER_IQR_FACTOR * iqr
    kept = [s for s in samples if lo <= s <= hi]
    if len(kept) < (len(samples) + 1) // 2:
        return list(samples), 0
    return kept, len(samples) - len(kept)


def run_suite(
    *,
    smoke: bool = False,
    filter: str | None = None,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    min_time: float = DEFAULT_MIN_TIME_S,
    max_repeats: int = DEFAULT_MAX_REPEATS,
    backend: str | None = None,
    progress=None,
) -> dict:
    """Run the curated suite and return the artifact dict.

    ``backend`` sets the process-default compute backend for the run
    (``repro bench run --backend``); cases that pin their own backend
    (the ``-backend-*`` cases) are unaffected.
    """
    if backend is not None:
        from repro.backends import set_default

        set_default(backend)
    cases = get_suite(smoke=smoke, filter=filter)
    if not cases:
        raise ArtifactError(f"no benchmark cases match filter={filter!r}")
    results = {}
    skipped = {}
    for case in cases:
        if progress is not None:
            progress(case.name)
        try:
            results[case.name] = run_case(case, repeats=repeats, warmup=warmup,
                                          min_time=min_time, max_repeats=max_repeats)
        except CaseSkipped as exc:
            skipped[case.name] = str(exc)
    now = time.time()
    return {
        "schema_version": SCHEMA_VERSION,
        "created_unix": now,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(now)),
        "smoke": smoke,
        "config": {"repeats": repeats, "warmup": warmup, "filter": filter,
                   "min_time": min_time, "max_repeats": max_repeats,
                   "backend": backend},
        "machine": host_fingerprint(),
        "results": results,
        "skipped": skipped,
    }


def default_artifact_path(artifact: dict) -> Path:
    stamp = time.strftime("%Y%m%d_%H%M%S", time.localtime(artifact["created_unix"]))
    return Path(f"BENCH_{stamp}.json")


def write_artifact(artifact: dict, path: Path | str | None = None) -> Path:
    path = Path(path) if path is not None else default_artifact_path(artifact)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: Path | str) -> dict:
    path = Path(path)
    try:
        artifact = json.loads(path.read_text())
    except FileNotFoundError:
        raise ArtifactError(f"benchmark artifact not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"benchmark artifact {path} is not valid JSON: {exc}") from None
    if not isinstance(artifact, dict) or "schema_version" not in artifact:
        raise ArtifactError(f"{path} is not a benchmark artifact (no schema_version)")
    if artifact["schema_version"] != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"{path} has schema_version {artifact['schema_version']}, "
            f"this build reads {SCHEMA_VERSION}"
        )
    if "results" not in artifact or "machine" not in artifact:
        raise ArtifactError(f"{path} is missing required sections (results/machine)")
    return artifact


# ---- comparing ---------------------------------------------------------------

#: Comparison outcomes, ordered by severity.
STATUS_ORDER = ("ok", "improved", "new", "missing", "warn", "fail")


@dataclass
class CaseComparison:
    """Verdict for one suite entry (or one deterministic metric of it)."""

    name: str
    status: str  # one of STATUS_ORDER
    tier: str
    baseline: float | None = None
    current: float | None = None
    note: str = ""

    @property
    def ratio(self) -> float | None:
        if self.baseline and self.current is not None:
            return self.current / self.baseline
        return None


@dataclass
class Comparison:
    """Outcome of comparing a current artifact against a baseline."""

    cases: list[CaseComparison] = field(default_factory=list)
    mode: str = "strict"

    @property
    def failures(self) -> list[CaseComparison]:
        return [c for c in self.cases if c.status == "fail"]

    @property
    def warnings(self) -> list[CaseComparison]:
        return [c for c in self.cases if c.status == "warn"]

    @property
    def exit_code(self) -> int:
        if self.mode == "strict" and self.failures:
            return 1
        return 0


def compare(
    baseline: dict,
    current: dict,
    *,
    fail_tol: float = DEFAULT_FAIL_TOL,
    warn_tol: float = DEFAULT_WARN_TOL,
    mode: str = "strict",
    allow_machine_mismatch: bool = False,
) -> Comparison:
    """Compare two artifacts; never silently across hosts.

    Wall-clock: a hard-tier case whose median slowed by more than
    `fail_tol` fails; any case past `warn_tol` warns.  Speedups are
    reported as ``improved``.  Deterministic metrics use ``METRIC_RTOL``
    and the owning case's tier.  ``mode="warn"`` downgrades every fail
    to a warning (for noisy shared runners).
    """
    if mode not in ("strict", "warn"):
        raise ValueError(f"mode must be 'strict' or 'warn', got {mode!r}")
    if not fingerprints_match(baseline["machine"], current["machine"]):
        msg = (
            f"baseline host {baseline['machine'].get('fingerprint_id')} "
            f"({baseline['machine'].get('processor', '?')}) != "
            f"current host {current['machine'].get('fingerprint_id')} "
            f"({current['machine'].get('processor', '?')})"
        )
        if not allow_machine_mismatch:
            raise MachineMismatchError(msg)
    comparison = Comparison(mode=mode)
    base_results = baseline["results"]
    cur_results = current["results"]
    for name in sorted(set(base_results) | set(cur_results)):
        base = base_results.get(name)
        cur = cur_results.get(name)
        if base is None:
            comparison.cases.append(CaseComparison(
                name, "new", cur.get("tier", "warn"), None, cur["median_s"],
                note="no baseline entry"))
            continue
        if cur is None:
            skip_reason = current.get("skipped", {}).get(name)
            note = (f"skipped: {skip_reason}" if skip_reason
                    else "case absent from current run")
            comparison.cases.append(CaseComparison(
                name, "missing", base.get("tier", "warn"), base["median_s"], None,
                note=note))
            continue
        tier = cur.get("tier", base.get("tier", "hard"))
        time_tier, time_note = tier, ""
        if base["median_s"] < NOISE_FLOOR_S or cur["median_s"] < NOISE_FLOOR_S:
            time_tier, time_note = "warn", "below noise floor"
        verdict = _compare_scalar(
            name, time_tier, base["median_s"], cur["median_s"],
            fail_tol=fail_tol, warn_tol=warn_tol, mode=mode, note=time_note)
        if verdict.status == "fail" and _is_throttling_artifact(base, cur, fail_tol):
            verdict.status = "warn"
            verdict.note = "median regressed but best sample is stable (throttling noise?)"
        comparison.cases.append(verdict)
        for key in sorted(set(base.get("metrics", {})) & set(cur.get("metrics", {}))):
            comparison.cases.append(_compare_scalar(
                f"{name}::{key}", tier, base["metrics"][key], cur["metrics"][key],
                fail_tol=METRIC_RTOL, warn_tol=METRIC_RTOL, mode=mode,
                two_sided=True, note="deterministic metric"))
    return comparison


def _is_throttling_artifact(base: dict, cur: dict, tol: float) -> bool:
    """A median regression whose *fastest* sample stayed within `tol` is
    the signature of clock throttling / scheduler bursts, not slower
    code — a genuine slowdown shifts the whole sample distribution,
    floor included, by the same amount as the median.  Only trusted
    when each stored median is consistent with its own samples (a
    hand-edited or summarised artifact gets no noise
    benefit-of-the-doubt).
    """
    try:
        if not (_median_consistent(base) and _median_consistent(cur)):
            return False
        base_min, cur_min = base["min_s"], cur["min_s"]
    except (KeyError, TypeError):
        return False
    if base_min <= 0.0:
        return False
    return (cur_min - base_min) / base_min <= tol


def _median_consistent(result: dict) -> bool:
    kept, _ = reject_outliers(list(result["samples_s"]))
    recomputed = statistics.median(kept)
    return abs(recomputed - result["median_s"]) <= 1e-9 * max(abs(recomputed), 1e-300)


def _compare_scalar(name, tier, base, cur, *, fail_tol, warn_tol, mode,
                    two_sided=False, note=""):
    """Classify one scalar pair.

    `two_sided` is for deterministic metrics, where *any* drift beyond
    tolerance is a behavioural change that must be re-baselined
    deliberately, whichever direction it moved.
    """
    if base == 0.0:
        rel = 0.0 if cur == 0.0 else float("inf")
    else:
        rel = (cur - base) / abs(base)
    regressed = abs(rel) if two_sided else rel
    if regressed > fail_tol and tier == "hard" and mode == "strict":
        status = "fail"
    elif regressed > min(warn_tol, fail_tol):
        status = "warn"
    elif not two_sided and rel < -warn_tol:
        status = "improved"
    else:
        status = "ok"
    return CaseComparison(name, status, tier, base, cur, note=note)


def render_comparison(comparison: Comparison) -> str:
    """Paper-style table of the comparison, worst offenders last."""
    from repro.harness.reporting import fmt_value, format_table

    rows = []
    order = {s: i for i, s in enumerate(STATUS_ORDER)}
    for c in sorted(comparison.cases, key=lambda c: (order.get(c.status, 0), c.name)):
        rows.append({
            "case": c.name,
            "tier": c.tier,
            "baseline": "—" if c.baseline is None else fmt_value(float(c.baseline)),
            "current": "—" if c.current is None else fmt_value(float(c.current)),
            "delta": "—" if c.ratio is None else f"{100.0 * (c.ratio - 1.0):+.1f}%",
            "status": c.status.upper() if c.status in ("warn", "fail") else c.status,
        })
    lines = [format_table(rows)]
    n_fail, n_warn = len(comparison.failures), len(comparison.warnings)
    verdict = "PASS" if comparison.exit_code == 0 else "FAIL"
    lines.append(
        f"  {verdict}: {len(comparison.cases)} checks, "
        f"{n_fail} failing, {n_warn} warning (mode={comparison.mode})"
    )
    return "\n".join(lines)
