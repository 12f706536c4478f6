"""One workload in a fresh interpreter: what the user's process does.

``run.py`` starts this file once per measurement, so set-up really
includes ``import repro``, backend load and the first neighbor build.
The child times its own calls into public functions, keeps every
number in memory, and writes one JSON report (plus the arrays the
checks need) when it is done.  With ``--trace 1`` the same code runs
with :mod:`spans` installed and the report also carries the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import threading
import time

import numpy as np

import spans as S  # the script's directory leads sys.path
import workloads

BLOCKS = workloads.BLOCKS


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return float(sorted_values[round(q / 100.0 * (len(sorted_values) - 1))])


class HostProbe:
    """A fixed piece of numpy work that tells how fast the host is now.

    The VM this benchmark was written on changes speed by 10-60 % for
    tens of seconds at a time; a run that lands in a slow phase reads
    that much worse whatever the code does.  The child therefore times
    this probe between steps and between blocks of requests, and every
    duration is divided by the probe's slowdown against NOMINAL_S: times
    are reported as on a host that runs the probe in NOMINAL_S.  The raw
    readings go into the report next to them.  The probe streams 3.2 MB
    through ``exp`` twice, which tracked the MD step best of the
    candidates tried (README, Host noise); its data is fixed, not an
    input of the program.
    """

    NOMINAL_S = 0.70e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        # four buffers in turn, so that no probe finds its data in L2
        # because the previous one left it there
        self._x = [rng.random(200_000) for _ in range(4)]
        self._y = [np.empty(200_000) for _ in range(4)]
        self._calls = 0

    def once(self) -> float:
        x, y = self._x[self._calls % 4], self._y[self._calls % 4]
        self._calls += 1
        t0 = time.perf_counter()
        np.exp(x, out=y)
        np.exp(y, out=y)
        return (time.perf_counter() - t0) / self.NOMINAL_S

    def burst(self, n: int) -> float:
        """Host factor from the median of ``n`` probes (> 1: slow host)."""
        return float(np.median([self.once() for _ in range(n)]))


def summarize(op_s, host, block_s, block_work) -> dict:
    """End-to-end numbers of a timed section.  ``op_s``: seconds of each
    operation, ``host``: host factor of each, ``block_s``: seconds of
    each of the BLOCKS parts already divided by their host factor,
    ``block_work``: atoms x operations in each part."""
    op_s = np.asarray(op_s)
    normal = np.sort(op_s / host)
    raw = np.sort(op_s)
    return {
        "atom_steps_per_s": float(np.median(np.asarray(block_work) / block_s)),
        "req_p50_ms": percentile(normal, 50) * 1e3,
        "req_p95_ms": percentile(normal, 95) * 1e3,
        "req_p99_ms": percentile(normal, 99) * 1e3,
        "req_per_s": len(op_s) / float(np.sum(block_s)),
        "raw": {"req_p50_ms": percentile(raw, 50) * 1e3, "req_p95_ms": percentile(raw, 95) * 1e3},
    }


def rss_mb(workers: bool) -> float:
    """Peak resident memory of this process plus, for a run with engine
    workers, of the largest of them.  The process's own peak is VmHWM,
    not ``ru_maxrss``: the kernel carries ``ru_maxrss`` across ``exec``,
    so it starts at whatever the parent weighed when it forked (and the
    ``cc --version`` the backend runs would count as a child as heavy
    as this process)."""
    with open("/proc/self/status") as fh:
        own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own_kb + workers_kb) / 1024.0


def require_compiled(solvers) -> str:
    """A "compiled" workload must never time numpy: resolve without the
    fallback, so an unusable toolchain stops the child with the probe's
    reason.  Returns what will run, for the report."""
    if not any(s.get("backend") == "compiled" for s in solvers):
        return "numpy"
    from repro import backends
    from repro.backends.compiled import pick_strategy

    backends.resolve("compiled", fallback=False)
    return f"compiled/{pick_strategy()}"


# ---- MD ----------------------------------------------------------------------


def run_md(w: dict, args, tr, report: dict) -> None:
    from repro.runtime import build_simulation

    report["backend"] = require_compiled([w["solver"]])
    system = workloads.md_system(w, args.seed)
    run = workloads.md_run_spec(w)
    tr.set_op("setup")
    with tr.span("runtime.build_simulation"):
        sim = build_simulation(run, system)
    with tr.span("simulation.first_force"):
        sim.compute_forces()
    report["setup_s"] = time.monotonic() - args.t0
    probe = HostProbe()
    report["host_setup"] = probe.burst(9)
    if args.setup_only:
        sim.close()
        return

    steps, every = w["steps"], w["probe_every"]
    per_block = steps // BLOCKS
    began, ended = np.empty(steps + 1), np.empty(steps + 1)
    probe_at, probe_host = [0], [report["host_setup"]]
    block_energy = []

    def on_step(sim, i):
        tr.end()
        ended[i] = time.perf_counter()
        if i % per_block == 0:
            block_energy.append(float(sim.last_result.energy))
        if i % every == 0:
            probe_at.append(i)
            probe_host.append(probe.once())
        if i < steps:
            tr.begin("md.step", op=i + 1)
        began[i] = time.perf_counter()

    began[0] = time.perf_counter()
    tr.begin("md.step", op=1)
    result = sim.run(steps, callback=on_step)

    n = system.n
    step_s = ended[1:] - began[:-1]
    host = np.interp(np.arange(1, steps + 1), probe_at, probe_host)
    block_s = (step_s / host).reshape(BLOCKS, per_block).sum(axis=1)
    report.update(summarize(step_s, host, block_s, [n * per_block] * BLOCKS))
    report.update({
        "atoms": n, "operations": BLOCKS,
        "failed_operations": sum(not np.isfinite(e) for e in block_energy),
        "host_run": float(np.median(probe_host[1:])), "host_end": probe_host[-1],
        "run_s": float(ended[-1] - began[0]), "run_normal_s": float(block_s.sum()),
        "ns_per_day": result.ns_per_day(sim.dt),
        "drift_per_atom": abs(result.thermo[-1].e_total - result.thermo[0].e_total) / n,
        "energy": float(sim.last_result.energy),
        "neighbor_builds": result.neighbor_builds,
        "reported": {"StageTimers": sim.timers.as_dict()},
    })
    if sim.engine is not None:
        summary = sim.workload_summary()
        report["reported"]["engine"] = {
            "imbalance_measured": summary["imbalance_measured"],
            "parallel_efficiency": summary["parallel_efficiency"],
            "cache": sim.engine.cache_summary(),
        }

    if args.trace:
        tr.set_op("post")
        measure_state(sim, run, tr)
    tr.set_op("close")
    sim.close()
    report["arrays"] = {"x": system.x, "f": system.f}
    report["digest"] = hashlib.sha256(system.x.tobytes()).hexdigest()
    if args.trace:
        if sim.engine is not None:
            replay_serial(w, system, tr)
        report["layers"] = md_layers(tr.spans, w, report)


def measure_state(sim, run, tr) -> None:
    """Checkpoint the final state and restore it: no workload writes
    state, so this is the only place the ``state`` layer is timed."""
    from repro.runtime.session import restore_run
    from repro.state import load_checkpoint, save_checkpoint

    with tr.span("state.checkpoint_write") as rec:
        save_checkpoint(sim, "final.ckpt")
    rec[S.TAG] = os.path.getsize("final.ckpt")
    with tr.span("state.restore"):
        restored = restore_run(run, load_checkpoint("final.ckpt"))
    restored.close()
    os.unlink("final.ckpt")


def replay_serial(w: dict, system, tr) -> None:
    """The ranks of a decomposed run work in other processes, out of
    reach of this one's spans.  Replay one serial force call, cold and
    then warm, on the final configuration, so neighbor, staging and
    kernel have a measured cost at this size too."""
    from repro.md.neighbor import NeighborList, NeighborSettings

    spec = workloads.solver_spec(w["solver"])
    potential = spec.build()
    neigh = NeighborList(NeighborSettings(cutoff=spec.cutoff(), skin=w["skin"], full=True))
    tr.set_op("replay")
    for _ in range(2):
        neigh.ensure(system.x, system.box)
        potential.compute(system, neigh)


def force_path_layers(spans, own, shares, costed) -> dict:
    """Metrics of the layers under every force call, MD step or request:
    neighbor, pipeline, kernel, backends."""
    builds = S.pick(spans, "neighbor.build", costed)
    prepares = S.pick(spans, "pipeline.prepare", costed)
    hits = [r for r in prepares if r[S.TAG][0] == "hit"]
    misses = [r for r in prepares if r[S.TAG][0] != "hit"]
    kernels = S.pick(spans, "kernel.evaluate", costed)
    return {
        "neighbor.build_ms": S.median(S.seconds(builds), 1e3),
        "neighbor.check_us": S.median(
            (own[id(r)] for r in S.pick(spans, "neighbor.ensure", costed)), 1e6),
        "neighbor.builds": len(builds),
        "neighbor.pairs": sum(r[S.TAG] for r in builds),
        "neighbor.share": shares.get("md.neighbor", 0.0),
        "pipeline.prepare_hit_ms": S.median(S.seconds(hits), 1e3),
        "pipeline.prepare_miss_ms": S.median(S.seconds(misses), 1e3),
        "pipeline.cache_hit_ratio": len(hits) / len(prepares),
        "pipeline.filter_efficiency":
            sum(r[S.TAG][1] for r in prepares) / sum(r[S.TAG][2] for r in prepares),
        "pipeline.triplets": sum(r[S.TAG][3] for r in prepares),
        "pipeline.share": shares.get("core.pipeline", 0.0),
        "kernel.evaluate_ms": S.median(S.seconds(kernels), 1e3),
        "kernel.pairs_per_s": sum(r[S.TAG] for r in kernels) / sum(S.seconds(kernels)),
        "kernel.share": shares.get("kernel", 0.0) + shares.get("backends", 0.0),
        "backends.cext_load_ms": S.median(S.seconds(S.pick(spans, "backends.cext_load")), 1e3),
    }


def md_layers(spans, w: dict, report: dict) -> dict:
    steps = w["steps"]
    timed = set(range(1, steps + 1))
    in_run = lambda r: r[S.OP] in timed  # noqa: E731
    parallel = w.get("workers") is not None
    own = S.self_times(spans)
    shares, wall = S.layer_shares(spans, own, "md.step", timed)
    # a decomposed run builds lists and stages in its workers: its
    # neighbor/pipeline/kernel costs come from the serial replay
    costed = (lambda r: r[S.OP] == "replay") if parallel else (
        lambda r: r[S.OP] == "setup" or in_run(r))
    out = force_path_layers(spans, own, shares, costed)
    step_s = sorted(S.seconds(S.pick(spans, "md.step")))
    integrate: dict = {}
    for r in spans:
        if r[S.NAME].startswith("integrate.") and in_run(r):
            integrate[r[S.OP]] = integrate.get(r[S.OP], 0.0) + r[S.END] - r[S.START]
    write = S.pick(spans, "state.checkpoint_write")
    out.update({
        "runtime.build_potential_ms": S.median(S.seconds(
            S.pick(spans, "runtime.build_potential", lambda r: r[S.OP] == "setup")), 1e3),
        "runtime.build_simulation_ms": S.median(
            S.seconds(S.pick(spans, "runtime.build_simulation")), 1e3),
        "integrate.step_us": S.median(integrate.values(), 1e6),
        "integrate.share": shares.get("md.integrate", 0.0),
        "simulation.step_p50_ms": percentile(step_s, 50) * 1e3,
        "simulation.step_p95_ms": percentile(step_s, 95) * 1e3,
        "simulation.first_force_s": S.median(S.seconds(S.pick(spans, "simulation.first_force"))),
        "simulation.self_share": shares.get("md.simulation", 0.0),
        "parallel.share": shares.get("parallel", 0.0),
        "state.checkpoint_write_ms": S.median(S.seconds(write), 1e3),
        "state.checkpoint_bytes": write[0][S.TAG],
        "state.restore_ms": S.median(S.seconds(S.pick(spans, "state.restore")), 1e3),
    })
    if parallel:
        cache = report["reported"]["engine"]["cache"]
        out["pipeline.cache_hit_ratio"] = cache["hits"] / (
            cache["hits"] + cache["misses"] + cache["invalidations"])
        live = lambda r: r[S.OP] == "setup" or in_run(r)  # noqa: E731
        computes = S.pick(spans, "parallel.compute", in_run)
        rank_s = [r[S.TAG][2] for r in computes]
        # the ranks' own seconds are the one program-reported time the
        # benchmark relies on: nothing outside a worker can time it
        hidden_s = (sum(S.seconds(S.pick(spans, "parallel.reduce", in_run)))
                    + sum(S.seconds(S.pick(spans, "parallel.decompose", in_run)))
                    + sum(max(s) for s in rank_s))
        out.update({
            "parallel.engine_start_s": S.median(
                S.seconds(S.pick(spans, "parallel.engine_start", live))),
            "parallel.engine_close_s": S.median(S.seconds(
                S.pick(spans, "parallel.engine_close", lambda r: r[S.OP] == "close"))),
            "parallel.step_ms": S.median(S.seconds(computes), 1e3),
            "parallel.comm_share": (sum(S.seconds(computes)) - hidden_s) / wall,
            "parallel.reduce_ms": S.median(
                S.seconds(S.pick(spans, "parallel.reduce", in_run)), 1e3),
            "parallel.bytes_forward": sum(
                r[S.TAG][0] for r in S.pick(spans, "parallel.compute", live)),
            "parallel.bytes_reverse": sum(
                r[S.TAG][1] for r in S.pick(spans, "parallel.compute", live)),
            "parallel.redecompositions": len(S.pick(spans, "parallel.decompose", live)),
            "parallel.imbalance": S.median(max(s) / (sum(s) / len(s)) for s in rank_s),
            "parallel.efficiency": S.median(
                sum(s) / (w["workers"] * d) for s, d in zip(rank_s, S.seconds(computes))),
        })
    out["share_sum"] = sum(shares.values())
    out["nesting_errors"] = S.nesting_errors(spans)

    return out


# ---- serve -------------------------------------------------------------------


def run_serve(w: dict, args, tr, report: dict) -> None:
    from repro.serve import EvalServer, ServeClient, ServeConfig, ServeError

    report["backend"] = require_compiled(w["solvers"])
    clients = min(2, len(os.sched_getaffinity(0)))
    plan = workloads.serve_plan(w, args.seed, clients)
    sessions, systems, requests = plan["sessions"], plan["systems"], plan["requests"]
    spec_dicts = [spec.to_dict() for _, spec in sessions]

    tr.set_op("setup")
    with tr.span("server.start"):
        # a relative path: the checkout may sit deeper than AF_UNIX allows
        server = EvalServer(ServeConfig(unix_path="serve.sock", skin=workloads.SERVE_SKIN)).start()
        conns = [ServeClient("./serve.sock") for _ in range(clients)]
        while not conns[0].health():
            time.sleep(0.005)
    cold_s = []
    for i, (tenant, _) in enumerate(sessions):
        tr.set_op(("warm", i))
        t0 = time.perf_counter()
        conns[0].evaluate(spec_dicts[i], systems[0][0], tenant=tenant)
        cold_s.append(time.perf_counter() - t0)
    report["setup_s"] = time.monotonic() - args.t0
    probe = HostProbe()
    report["host_setup"] = probe.burst(9)
    if args.setup_only:
        for conn in conns:
            conn.close()
        server.close()
        return

    n_req = len(requests)
    mine = [np.array_split([k for k in range(n_req) if requests[k][0] == c], BLOCKS)
            for c in range(clients)]
    latency = np.zeros(n_req)
    answers: list = [None] * n_req
    errors: list = []
    # Between blocks every client waits for the others, and client 0
    # times the host probe while the service is idle.
    idle = threading.Barrier(clients)
    block_from, block_to = np.empty(BLOCKS), np.empty(BLOCKS)
    probe_host = [report["host_setup"]]

    def client_loop(c: int) -> None:
        conn = conns[c]
        for b in range(BLOCKS):
            for k in mine[c][b]:
                _, session, shape, snapshot = requests[k]
                tr.set_op(int(k))
                t0 = time.perf_counter()
                try:
                    answers[k] = conn.evaluate(
                        spec_dicts[session], systems[shape][snapshot], tenant=sessions[session][0])
                except (ServeError, OSError) as exc:
                    errors.append(f"request {k}: {exc}")
                latency[k] = time.perf_counter() - t0
            idle.wait()
            if c == 0:
                block_to[b] = time.perf_counter()
                probe_host.append(probe.burst(5))
                if b + 1 < BLOCKS:
                    block_from[b + 1] = time.perf_counter()
            idle.wait()

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(clients)]
    block_from[0] = t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loop_s = time.perf_counter() - t_start

    tr.set_op("close")
    stats = server.stats()
    with tr.span("server.close"):
        for conn in conns:
            conn.close()
        server.close()

    # everything below happens after the service is down
    atoms = np.array([systems[shape][0].n for _, _, shape, _ in requests])
    block_of = np.empty(n_req, dtype=int)
    for c in range(clients):
        for b in range(BLOCKS):
            block_of[mine[c][b]] = b
    # a block ran between two probes: its host factor is their mean
    block_host = (np.array(probe_host[:-1]) + np.array(probe_host[1:])) / 2.0
    digest = hashlib.sha256()
    for k, out in enumerate(answers):
        if out is None:
            continue
        f = out["forces"]
        if f.shape != (atoms[k], 3) or not np.isfinite(f).all() or not np.isfinite(out["energy"]):
            errors.append(f"request {k}: non-finite or mis-shaped answer")
        # "batch" says how the dispatcher happened to drain its queue;
        # everything else in an answer is fixed by the request
        digest.update(f.tobytes())
        digest.update(np.array([out["energy"], out["virial"]]).tobytes())
    answered = np.array([out is not None for out in answers])
    sampled = [k for k in range(0, n_req, 50) if answered[k]]
    report.update(summarize(
        latency[answered], block_host[block_of[answered]], (block_to - block_from) / block_host,
        [int(atoms[answered & (block_of == b)].sum()) for b in range(BLOCKS)]))
    report.update({
        "clients": clients, "operations": n_req,
        "failed_operations": len(errors), "errors": errors[:10],
        "host_run": float(np.median(probe_host[1:])), "host_end": probe_host[-1],
        "run_s": loop_s, "run_normal_s": float(np.sum((block_to - block_from) / block_host)),
        "digest": digest.hexdigest(),
        "sampled": sampled,
        "sampled_energy": [answers[k]["energy"] for k in sampled],
        "arrays": {f"f{k}": answers[k]["forces"] for k in sampled},
        "reported": {"/v1/stats": {"server": stats["server"], "pool": {
            k: stats["pool"][k]
            for k in ("session_hits", "session_misses", "evictions", "requests")}}},
    })
    if args.trace:
        report["layers"] = serve_layers(tr.spans, n_req, cold_s, stats["server"], server.pool.stats)


def serve_layers(spans, n_req: int, cold_s, counters: dict, pool_stats) -> dict:
    timed = set(range(n_req))
    in_run = lambda r: r[S.OP] in timed  # noqa: E731
    own = S.self_times(spans)
    shares, _ = S.layer_shares(spans, own, "client.evaluate", timed)
    out = force_path_layers(spans, own, shares, None)
    lookups = S.pick(spans, "runtime.session")
    roots = S.pick(spans, "client.evaluate", in_run)

    def timed_ms(name: str) -> float:
        return S.median(S.seconds(S.pick(spans, name, in_run)), 1e3)

    out.update({
        "runtime.build_potential_ms": S.median(
            S.seconds(S.pick(spans, "runtime.build_potential")), 1e3),
        "runtime.session_hit_us": S.median(S.seconds(r for r in lookups if not r[S.TAG]), 1e6),
        "runtime.session_miss_ms": S.median(S.seconds(r for r in lookups if r[S.TAG]), 1e3),
        "runtime.pool_evaluate_ms": timed_ms("runtime.pool_evaluate"),
        "runtime.session_hits": pool_stats.session_hits,
        "runtime.session_misses": pool_stats.session_misses,
        "runtime.evictions": pool_stats.evictions,
        "runtime.share": shares.get("runtime", 0.0),
        "protocol.encode_req_ms": timed_ms("protocol.encode_req"),
        "protocol.decode_req_ms": timed_ms("protocol.decode_req"),
        "protocol.encode_resp_ms": timed_ms("protocol.encode_resp"),
        "protocol.decode_resp_ms": timed_ms("protocol.decode_resp"),
        "protocol.req_bytes": S.median(
            r[S.TAG] for r in S.pick(spans, "protocol.encode_req", in_run)),
        "protocol.resp_bytes": S.median(
            r[S.TAG] for r in S.pick(spans, "protocol.encode_resp", in_run)),
        "protocol.share": shares.get("serve.protocol", 0.0),
        "validate.ms": timed_ms("validate"),
        "validate.share": shares.get("serve.validate", 0.0),
        "server.start_s": S.median(S.seconds(S.pick(spans, "server.start"))),
        "server.close_s": S.median(S.seconds(S.pick(spans, "server.close"))),
        "server.cold_request_ms": S.median(cold_s, 1e3),
        # what a request waits beyond codec, validation and evaluation:
        # HTTP, socket, thread hand-off and the queue behind the other client
        "server.overhead_ms": S.median((own[id(r)] for r in roots), 1e3),
        "server.mean_batch": counters["fused_requests"] / max(counters["batches"], 1),
        "server.max_batch": counters["max_batch"],
        "server.rejected_backpressure": counters["rejected_backpressure"],
        "server.share": shares.get("serve.server", 0.0),
    })
    out["share_sum"] = sum(shares.values())
    out["nesting_errors"] = S.nesting_errors(spans)

    return out


# ---- entry -------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--toy", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    args = ap.parse_args()

    # the working directory is this child's own scratch directory
    w = workloads.sized(args.workload, seconds=args.seconds, toy=bool(args.toy))
    report: dict = {"workload": args.workload, "seed": args.seed}

    t0 = time.monotonic()
    import repro.runtime  # noqa: F401
    if w["kind"] == "serve":
        import repro.serve  # noqa: F401
    import_s = time.monotonic() - t0

    tr = S.NoTrace()
    if args.trace:
        tr = S.Tracer()
        S.install(tr, w["kind"])

    from repro.backends import BackendUnavailableError

    try:
        (run_md if w["kind"] == "md" else run_serve)(w, args, tr, report)
    except BackendUnavailableError as exc:
        print(f"{args.workload}: failed: {exc}", file=sys.stderr)
        return 3
    if "layers" in report:
        report["layers"]["cli.import_s"] = import_s
    report["peak_rss_mb"] = rss_mb(w.get("workers") is not None)

    # a few ms inside wall_s: at most 1.2 MB of arrays for the checks
    arrays = report.pop("arrays", None)
    if arrays is not None:
        np.savez("arrays.npz", **arrays)
    with open("report.json", "w") as fh:
        json.dump(report, fh, default=lambda o: o.item())
    return 0


if __name__ == "__main__":
    sys.exit(main())
