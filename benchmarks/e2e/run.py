#!/usr/bin/env python3
"""The repo's end-to-end benchmark: six workloads, run/serve metrics,
and a layer-by-layer traced pass.  README.md beside this file says what
every name means and how to compare two commits.

    python3 benchmarks/e2e/run.py                         # all six, end to end
    python3 benchmarks/e2e/run.py --trace --reps 3        # a ledger entry
    python3 benchmarks/e2e/run.py --check                 # toy sizes, validates the output
    python3 benchmarks/e2e/run.py --workload serve-mixed --seed 7 --seconds 8 --trace 0

Each measurement runs in a fresh child interpreter (``child.py``); this
process only starts children, checks their output and prints.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace
1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"  # everything a run leaves behind
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Counts that must read the same on every run of one seed.
EXACT = (
    "neighbor.builds", "neighbor.pairs", "pipeline.triplets", "parallel.bytes_forward",
    "parallel.bytes_reverse", "runtime.session_hits", "runtime.session_misses",
)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_CEXT_CACHE"] = str(BUILD / "cext")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def prime(env: dict) -> None:
    """Byte-compile the sources once per checkout and make sure the
    bench-owned C-extension cache holds the current build, so that
    ``setup_s`` means "warm cache" on every run, the first included."""
    first = not BUILD.exists()
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if first:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                       env=env, check=False, stdout=subprocess.DEVNULL)
    os.environ["REPRO_CEXT_CACHE"] = env["REPRO_CEXT_CACHE"]
    from repro.backends import cext

    # without a toolchain the compiled workloads fail in their child,
    # with the probe's reason
    if cext.probe() is None:
        cext.build()


def host_info() -> dict:
    import numpy
    from repro.backends import cext

    cc = cext.find_compiler()
    version = ""
    if cc:
        res = subprocess.run([cc, "--version"], capture_output=True, text=True, check=False)
        version = res.stdout.splitlines()[0] if res.stdout else ""
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": f"{cc}: {version}" if cc else None,
        "load_1min": os.getloadavg()[0],
        "machine": platform.machine(),
    }


def spawn(env: dict, name: str, *, seed: int, seconds: float, trace: int = 0,
          toy: bool = False, setup_only: bool = False) -> dict:
    """Run one child to its end; returns its report with ``wall_s``
    (spawn to exit) and ``arrays`` added."""
    scratch = BUILD / "tmp" / f"{name}-{uuid.uuid4().hex[:8]}"
    scratch.mkdir(parents=True)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace), "--toy", str(int(toy)),
         "--setup-only", str(int(setup_only)), "--t0", repr(t0)],
        cwd=scratch, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
        wall_s = time.monotonic() - t0
    finally:
        # the child leads its own process group: whatever it left
        # behind (engine workers after a crash) goes with it, and the
        # group is empty before this returns
        for _ in range(500):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            proc.poll()  # reaps the child itself when the timeout killed it
            time.sleep(0.01)
        proc.wait()
    try:
        if code != 0:
            raise RuntimeError(f"{name}: child exited with code {code}")
        report = json.loads((scratch / "report.json").read_text())
        report["wall_s"] = wall_s
        if (scratch / "arrays.npz").exists():
            import numpy as np

            with np.load(scratch / "arrays.npz") as data:
                report["arrays"] = {k: data[k] for k in data.files}
        return report
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@functools.cache
def once_per_invocation() -> dict:
    """Layer metrics that belong to no workload: one forced cold build
    of the C extension into a throw-away cache, and the start-up of the
    CLI.  Made when the first traced result needs them."""
    env = child_env()
    cold = BUILD / "tmp" / f"cold-{uuid.uuid4().hex[:8]}"
    res = subprocess.run(
        [sys.executable, "-c",
         "import time; from repro.backends import cext; t = time.perf_counter(); "
         "cext.build(force=True); print(repr(time.perf_counter() - t))"],
        env=dict(env, REPRO_CEXT_CACHE=str(cold)), capture_output=True, text=True, check=False)
    shutil.rmtree(cold, ignore_errors=True)
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-m", "repro", "run", "--atoms", "64", "--steps", "0"],
                   env=env, stdout=subprocess.DEVNULL, check=True)
    return {"backends.cext_build_s": float(res.stdout) if res.returncode == 0 else 0.0,
            "cli.startup_s": time.monotonic() - t0}


def measure(env: dict, bench: dict, name: str, *, seed: int, seconds: float,
            trace: int, toy: bool) -> dict:
    """One repetition of one workload: the untraced child, further
    set-ups, the checks and, when asked, the traced child."""
    import checks

    w = workloads.sized(name, seconds=seconds, toy=toy)
    cores = len(os.sched_getaffinity(0))
    if w.get("workers", 0) and cores < w["workers"]:
        # more workers than cores times the scheduler, not the engine
        return {"reason": "oversubscribed", "usable_cores": cores,
                "end_to_end": {m["name"]: None for m in bench["end_to_end"]}}

    kw = {"seed": seed, "seconds": seconds, "toy": toy}
    if trace and toy:
        # the check mode cares for the output, not for the clock
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            jobs = [pool.submit(spawn, env, name, trace=t, **kw) for t in (0, 1)]
            main, traced = (job.result() for job in jobs)
    else:
        main = spawn(env, name, **kw)
        traced = spawn(env, name, trace=1, **kw) if trace else None
    # times are on the reference host: each is divided by the host
    # factor its child's probe read next to it (child.HostProbe)
    ready = [main] + [spawn(env, name, setup_only=True, **kw) for _ in range(0 if toy else 2)]
    setups = [r["setup_s"] / r["host_setup"] for r in ready]
    # the wall in three pieces, each with the factor read next to it:
    # up to the first forces, the timed section, teardown and exit
    tail_s = main["wall_s"] - main["setup_s"] - main["run_s"]
    wall_s = setups[0] + main["run_normal_s"] + tail_s / main["host_end"]

    arrays = main.pop("arrays")
    found = (checks.check_md if w["kind"] == "md" else checks.check_serve)(w, seed, main, arrays)
    out = {
        "usable_cores": cores,
        "backend": main["backend"],
        "size": {k: w[k] for k in ("cells", "steps", "requests", "shapes") if k in w},
        "clients": main.get("clients"),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "atom_steps_per_s": main["atom_steps_per_s"],
            "wall_s": wall_s,
            "req_p50_ms": main["req_p50_ms"],
            "req_p95_ms": main["req_p95_ms"],
            "req_per_s": main["req_per_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        },
        "also": {k: main[k] for k in ("ns_per_day", "req_p99_ms", "drift_per_atom",
                                       "neighbor_builds", "host_run") if k in main},
        "raw": {"setup_s": main["setup_s"], "wall_s": main["wall_s"], **main["raw"]},
        "reported": main["reported"],
        "operations": main["operations"],
        "failed_operations": main["failed_operations"],
        "errors": main.get("errors", []),
    }
    if traced is not None:
        layers = traced["layers"]
        found.append(("traced-equals-untraced", traced["digest"] == main["digest"],
                      "final positions / answers of the traced pass, bitwise"))
        found.append(("layer-shares-sum", abs(layers.pop("share_sum") - 1.0) <= 0.1,
                      "layer shares add up to the step / request wall within 10 %"))
        errors = layers.pop("nesting_errors")
        found.append(("spans-nested", not errors,
                      "; ".join(errors[:3]) or "every span inside its parent"))
        layers["trace.overhead_frac"] = traced["req_p50_ms"] / main["req_p50_ms"] - 1.0
        layers.update(once_per_invocation())
        # a layer that does no work on a workload spent 0 there
        out["per_layer"] = {m["name"]: layers.get(m["name"], 0) for m in bench["per_layer"]}
        unknown = sorted(set(layers) - set(out["per_layer"]))
        found.append(("layer-names", not unknown, f"not in BENCHMARK.json: {unknown or 'none'}"))
        out["reported_traced"] = traced["reported"]
    out["checks"] = [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in found]
    out["ops_attempted"] = out["operations"] + len(found)
    out["ops_failed"] = out["failed_operations"] + sum(not ok for _, ok, _ in found)
    out["error_rate"] = out["ops_failed"] / out["ops_attempted"]
    return out


def combine(reps: list[dict]) -> dict:
    """Median over repetitions, with the min..max they spanned; counts
    must not differ at all."""
    out = dict(reps[-1])
    out["reps"] = len(reps)
    out["ops_failed"] = sum(r["ops_failed"] for r in reps)
    out["ops_attempted"] = sum(r["ops_attempted"] for r in reps)
    out["error_rate"] = out["ops_failed"] / out["ops_attempted"]
    out["checks"] = [c for r in reps for c in r["checks"]]
    for table in ("end_to_end", "per_layer"):
        if table not in out:
            continue
        out[table] = {k: statistics.median(r[table][k] for r in reps) for k in out[table]}
        if len(reps) > 1:
            out[table + "_spread"] = {
                k: [min(r[table][k] for r in reps), max(r[table][k] for r in reps)]
                for k in out[table]}
    if len(reps) > 1:
        moved = [k for k in EXACT if k in out.get("per_layer", {})
                 and len({r["per_layer"][k] for r in reps}) > 1]
        if len({r["operations"] for r in reps}) > 1:
            moved.append("operations")
        out["checks"].append({
            "name": "counts-repeat", "passed": not moved,
            "detail": f"counts that differ between repetitions: {moved or 'none'}"})
        out["ops_attempted"] += 1
        out["ops_failed"] += bool(moved)
        out["error_rate"] = out["ops_failed"] / out["ops_attempted"]
    return out


# ---- output ------------------------------------------------------------------


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def show(name: str, res: dict, bench: dict, seed: int) -> None:
    why = workloads.WORKLOADS[name]["why"]
    print(f"\n== {name}  (seed {seed})\n   {why}")
    if "reason" in res:
        print(f"   not measured: {res['reason']} ({res['usable_cores']} usable cores); "
              "every metric is null")
        return
    size = ", ".join(f"{k} {v}" for k, v in res["size"].items())
    clients = f", {res['clients']} client(s)" if res.get("clients") else ""
    print(f"   {size}{clients}; backend {res['backend']}; {res['usable_cores']} usable cores; "
          f"{res.get('reps', 1)} repetition(s)")
    for table, title in (("end_to_end", "end to end (tracing off)"),
                         ("per_layer", "per layer (traced pass)")):
        if table not in res:
            continue
        print(f"   {title}")
        spread = res.get(table + "_spread", {})
        for m in bench[table]:
            value = res[table][m["name"]]
            line = f"     {m['name']:<32}{fmt(value):>14} {m['unit']:<9}"
            if m["name"] in spread:
                lo, hi = spread[m["name"]]
                line += f" min..max {fmt(lo)}..{fmt(hi)}"
            if "bound" in m:
                line += f"  bound {m['bound']:.0%} {m['better']}-is-better"
            print(line)
        if table == "end_to_end":
            for k, v in res["also"].items():
                print(f"     {k:<32}{fmt(v):>14} (not gated)")
            print(f"     {'error_rate':<32}{fmt(res['error_rate']):>14} "
                  f"({res['ops_failed']} failed of {res['ops_attempted']} operations and checks)")
    for c in res["checks"]:
        print(f"   {'ok    ' if c['passed'] else 'FAILED'} {c['name']}: {c['detail']}")
    for err in res["errors"]:
        print(f"   FAILED operation: {err}")
    for key, which in (("reported", "untraced"), ("reported_traced", "traced")):
        for source, values in res.get(key, {}).items():
            print(f"   reported by the program ({source}, {which} pass; cross-check, "
                  f"never the metric): {json.dumps(values)}")


def validate_names(bench: dict, results: dict) -> list[str]:
    """The output carries every name of BENCHMARK.json, each with a
    unit, and nothing a later tool could not parse."""
    problems = []
    for table in ("end_to_end", "per_layer"):
        for m in bench[table]:
            if not NAME_RE.match(m["name"]) or not m.get("unit"):
                problems.append(f"{m['name']}: bad name or no unit")
            for name, res in results.items():
                if "reason" in res:
                    continue
                if table in res and not isinstance(res[table].get(m["name"]), (int, float)):
                    problems.append(f"{name}: {m['name']} missing")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="run only this workload (repeatable); default: all six")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help=f"every random input derives from it (default {workloads.DEFAULT_SEED}; "
                         f"held out for claims: {workloads.HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=workloads.REFERENCE_SECONDS,
                    help="length of each timed section on the reference box; scales the counts")
    ap.add_argument("--reps", type=int, default=1,
                    help="repetitions per workload, order alternated; values are medians")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="also run the traced pass and report the per-layer metrics")
    ap.add_argument("--check", action="store_true",
                    help="toy sizes: validate the output, not the speed")
    ap.add_argument("--out", default=None, help="result file (default: .bench_build/e2e/result.json)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"{ROOT}/src/repro is missing: nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    prime(env)

    names = args.workload or list(workloads.WORKLOADS)
    trace = 1 if args.check else args.trace
    per_rep: dict[str, list] = {n: [] for n in names}
    try:
        for rep in range(args.reps):
            for name in (names if rep % 2 == 0 else names[::-1]):
                per_rep[name].append(measure(
                    env, bench, name, seed=args.seed, seconds=args.seconds, trace=trace,
                    toy=args.check))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    results = {n: r[0] if "reason" in r[0] else combine(r) for n, r in per_rep.items()}

    for name in names:
        show(name, results[name], bench, args.seed)
    problems = validate_names(bench, results)
    for p in problems:
        print(f"FAILED output: {p}")

    out_path = Path(args.out) if args.out else BUILD / "result.json"
    out_path.write_text(json.dumps({
        "benchmark": "benchmarks/e2e", "seed": args.seed, "seconds": args.seconds,
        "reps": args.reps, "check": args.check, "host": host_info(), "workloads": results,
    }, indent=1))
    print(f"\nresult written to {out_path}")

    measured = {n: r for n, r in results.items() if "reason" not in r}
    attempted = sum(r["ops_attempted"] for r in measured.values())
    failed = sum(r["ops_failed"] for r in measured.values()) + len(problems)
    table = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[table]}
    metrics = {}
    for name, res in measured.items():
        prefix = f"{name}/" if len(names) > 1 else ""
        for k, v in res[table].items():
            metrics[prefix + k] = {"value": v, "unit": units[k]}
    if args.check:
        print(f"check: {'ok' if not failed else 'FAILED'}")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
