"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library, ISA and machine inventory.
``run``
    Run an MD simulation of Tersoff (or SW) silicon and print thermo.
``worker``
    Listen as a cluster worker (``repro run --hosts`` connects to it).
``serve``
    The batched evaluation service (HTTP over TCP or a unix socket).
``figure``
    Regenerate one of the paper's figures/tables (fig1..fig9, table1..3).
``sweep``
    The performance-portability sweep (modes x machines).
``validate``
    The correctness battery.
``profile``
    Cycle profile of the vectorized Tersoff kernel on a simulated ISA.
``telemetry``
    Aggregate the JSON-lines telemetry of ``run --telemetry``.
``lint``
    The contract static analyzer: kernel rules KA, determinism KB,
    lifecycle KC, state KD and the C-kernel pass KE (``--list-rules``).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.backends import available, cext, get, get_default
    from repro.md.neighbor import active_builder
    from repro.parallel.executor import EXECUTOR_NAMES
    from repro.host import processor_name, usable_cores
    from repro.perf.machines import list_machines
    from repro.vector.isa import ISA_REGISTRY

    print(f"repro {repro.__version__} — Tersoff vectorization reproduction (SC'16)")
    print("\ncompute backends:")
    for name, reason in available().items():
        status = "available" if reason is None else f"unavailable: {reason}"
        if name == "compiled" and reason is None:
            # what the probe loaded: a cache shared between hosts holds one
            # object per ISA tag
            built = cext.build_info()
            status += (f" — cext, scheme {built['scheme']}, {built['lanes']} lanes × "
                       f"{usable_cores()} threads, built for {built['isa']}")
        default = " (default)" if name == get_default() else ""
        print(f"  {name:8s} {status}{default}")
        print(f"           {get(name).description}")
    print(f"\nneighbor list builder: {active_builder()}")
    print(f"\nexecutors: {', '.join(EXECUTOR_NAMES)}")
    print(f"\nhost: {processor_name()} ({usable_cores()} usable cores)")
    print("\nvector backends:")
    for name, isa in sorted(ISA_REGISTRY.items()):
        feats = []
        if isa.has_native_gather:
            feats.append("gather")
        if isa.has_integer_vector:
            feats.append("int")
        if isa.has_conflict_detection:
            feats.append("cd")
        if isa.has_free_masking:
            feats.append("mask")
        if isa.has_warp_vote:
            feats.append("vote")
        print(f"  {name:8s} W(double)={isa.width_double:<3d} W(single)={isa.width_single:<3d} "
              f"[{', '.join(feats)}]")
    print("\nmodeled machines (Tables I-III):")
    for m in list_machines():
        print(f"  {m.describe()}")
    return 0


def _restart_run_spec(ck, args: argparse.Namespace):
    """The effective :class:`RunSpec` for ``--restart-from``.

    The checkpoint pins the full configuration — solver (potential,
    mode, cache, backend) *and* execution (executor, hosts, workers,
    ranks, skin).  Explicitly-given CLI flags override
    the execution knobs (resuming on different hardware is legitimate);
    the solver always comes from the checkpoint, so the physics cannot
    drift across a restart.
    """
    from repro.runtime.spec import RunSpec

    pinned = ck.run_spec()
    if pinned is None:
        # library-written checkpoint with no pinned config: fall back
        # to the CLI flags wholesale, as before the runtime layer
        return RunSpec.from_args(args)
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.ranks is not None:
        overrides["ranks"] = args.ranks
    if args.executor is not None:
        overrides["executor"] = args.executor
        overrides.setdefault("hosts", None)
    if args.hosts:
        overrides["hosts"] = tuple(
            h.strip() for h in args.hosts.split(",") if h.strip()
        )
        overrides.setdefault("executor", None)
    return pinned.with_overrides(**overrides) if overrides else pinned


def _report_comm(sim) -> None:
    """Print the measured-communication line for a parallel run."""
    eng = sim.engine
    if eng is None or not eng.comm_total.messages:
        return
    ct = eng.comm_total
    line = (f"comm: {ct.bytes / 1e6:.2f} MB halo traffic in {ct.messages} messages, "
            f"{ct.time_s * 1e3:.1f} ms measured")
    wire_fn = getattr(eng._exec, "wire_bytes", None)
    if wire_fn is not None and not eng.closed:
        sent, received = wire_fn()
        line += f"; wire {sent / 1e6:.2f} MB out / {received / 1e6:.2f} MB in"
    net = eng.calibrated_network()
    if net is not None:
        line += (f"\ncomm fit ({net.name}): latency {net.latency_s * 1e6:.1f} us, "
                 f"bandwidth {net.bandwidth_Bps / 1e6:.0f} MB/s")
    print(line)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.md.lattice import cells_for_atoms, diamond_lattice, seeded_velocities
    from repro.md.thermo import ThermoSample
    from repro.parallel.executor import ExecutorError
    from repro.runtime.session import build_potential, build_simulation, restore_run
    from repro.runtime.spec import RunSpec, SpecError
    from repro.state.checkpoint import CheckpointError, load_checkpoint

    ck = None
    if args.restart_from:
        # the checkpoint pins the full run spec — solver *and*
        # executor/workers/cache; explicit CLI flags override only the
        # execution knobs (see _restart_run_spec)
        try:
            ck = load_checkpoint(args.restart_from)
        except (OSError, ValueError) as exc:
            print(f"restart: cannot load checkpoint: {exc}", file=sys.stderr)
            return 2
    try:
        if args.steps < 0:
            raise ValueError("steps must be non-negative")
        for flag in ("traj_every", "telemetry_every", "checkpoint_every"):
            every = getattr(args, flag)
            if every is not None and every < 1:
                raise ValueError(f"--{flag.replace('_', '-')} must be >= 1, got {every}")
        run = RunSpec.from_args(args) if ck is None else _restart_run_spec(ck, args)
        pot = build_potential(run.solver)
    except (SpecError, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    if args.sanitize:
        from repro.analysis.sanitize import SanitizedPotential

        pot = SanitizedPotential(pot)
        print("sanitize: FP faults raise, force results NaN-guarded (debug mode)")
    if ck is not None:
        try:
            sim = restore_run(run, ck, potential=pot)
        except (CheckpointError, ExecutorError) as exc:
            print(f"restart: {exc}", file=sys.stderr)
            return 2
        print(f"restarted from {args.restart_from} at step {sim.step_index} "
              f"({sim.system.n} atoms, {run.solver.potential} ({run.solver.mode}))")
    else:
        try:
            system = diamond_lattice(*cells_for_atoms(args.atoms))
            seeded_velocities(system, args.temperature, seed=args.seed)
            # refused here, not by the first list build inside sim.run
            system.box.check_cutoff(run.solver.cutoff() + run.skin)
            sim = build_simulation(run, system, potential=pot)
        except (SpecError, ValueError, ExecutorError) as exc:
            print(f"run: {exc}", file=sys.stderr)
            return 2
    callbacks, sinks = _run_sinks(args, run, resume_step=sim.step_index)

    par = ""
    if sim.engine is not None:
        par = f", {sim.engine.workers} workers x {sim.engine.ranks} ranks"
    # the kernel that ran; the checkpoint's meta["backend"] is its one record
    be = f", backend {pot.backend_name}" if hasattr(pot, "backend_name") else ""
    print(f"{sim.system.n} Si atoms, {run.solver.potential} ({run.solver.mode}), "
          f"{args.steps} steps at {args.temperature:.0f} K{par}{be}")
    print(ThermoSample.format_header())
    result = sim.run(args.steps, thermo_every=max(args.steps // 10, 1), callback=callbacks)
    for t in result.thermo:
        print(t.format_row())
    print(f"\n{result.timers.breakdown()}")
    print(f"throughput: {result.ns_per_day(sim.dt):.3f} ns/day "
          f"({result.neighbor_builds} neighbor rebuilds)")
    last_stats = sim.last_result.stats if sim.last_result else {}
    cache_info = last_stats.get("cache", {})
    if cache_info.get("enabled"):
        print(f"interaction cache: {cache_info['hits']} hits, "
              f"{cache_info['invalidations']} invalidations (list v{cache_info['list_version']})")
    kernel_info = last_stats.get("backend", {})
    if "threads" in kernel_info:
        print(f"kernel: {kernel_info['name']} ({kernel_info['strategy']}), "
              f"{kernel_info['threads']} threads on the last call")
    summary = sim.workload_summary()
    if summary is not None:
        print(f"parallel: grid {summary['grid']}, "
              f"imbalance {summary.get('imbalance_measured', summary['imbalance']):.2f}, "
              f"efficiency {summary.get('parallel_efficiency', 0.0):.2f}, "
              f"{summary['generations']} decompositions over {summary['steps']} steps")
    _report_comm(sim)
    for line in _sink_report(sinks):
        print(line)
    for sink in sinks:
        close = getattr(sink, "close", None)
        if close is not None:
            close()
    sim.close()
    return 0


def _run_sinks(
    args: argparse.Namespace, run, *, resume_step: int = 0
) -> tuple[list, list]:
    """Build the durability callbacks for ``repro run``.

    `run` is the effective :class:`~repro.runtime.spec.RunSpec`; its
    canonical dict is pinned into checkpoints (``user_meta["run_spec"]``)
    and stamped onto the telemetry stream, so both round-trip the full
    configuration.
    """
    resuming = bool(args.restart_from)
    callbacks: list = []
    sinks: list = []
    if args.traj:
        from repro.state.trajectory import BinaryTrajectory

        # on resume, frames streamed past the checkpoint are rewound so
        # the appended run continues in strict step order
        traj = BinaryTrajectory(
            args.traj, every=args.traj_every, append=resuming,
            resume_step=resume_step if resuming else None,
        )
        callbacks.append(traj)
        sinks.append(traj)
    if args.telemetry:
        from repro.state.telemetry import TelemetrySink

        telem = TelemetrySink(
            args.telemetry, every=args.telemetry_every, append=resuming,
            meta=run.to_dict(),
        )
        callbacks.append(telem)
        sinks.append(telem)
    if args.checkpoint_every or args.checkpoint:
        from repro.state.checkpoint import Checkpointer

        every = args.checkpoint_every or max(args.steps, 1)
        ckpt = Checkpointer(
            args.checkpoint or "run.ckpt", every=every,
            user_meta={"run_spec": run.to_dict()},
        )
        callbacks.append(ckpt)
        sinks.append(ckpt)
    return callbacks, sinks


def _sink_report(sinks: list) -> list[str]:
    lines = []
    for sink in sinks:
        name = type(sink).__name__
        if name == "BinaryTrajectory":
            lines.append(f"trajectory: {sink.frames_written} frames -> {sink.path}")
        elif name == "TelemetrySink":
            lines.append(f"telemetry: {sink.records_written} records -> {sink.path}")
        elif name == "Checkpointer":
            lines.append(f"checkpoint: {sink.checkpoints_written} writes -> {sink.path} "
                         f"(last at step {sink.last_step_written})")
    return lines


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel.transport import TransportError, run_worker

    try:
        return run_worker(bind=args.bind, unix=args.unix, once=args.once)
    except TransportError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import EvalServer, ServeConfig

    listen = {"unix_path": args.unix}
    if not args.unix:
        host, _, port = args.bind.rpartition(":")
        try:
            listen = {"host": host or "127.0.0.1", "port": int(port)}
        except ValueError:
            print(f"serve: bad --bind {args.bind!r} (expected HOST:PORT)",
                  file=sys.stderr)
            return 2
    try:
        config = ServeConfig(
            **listen, max_sessions=args.max_sessions, per_tenant_cap=args.per_tenant_cap,
            skin=args.skin, backlog=args.backlog, max_atoms=args.max_atoms,
        )
        server = EvalServer(config)
    except (OSError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(f"serving on {server.address} "
          f"(pool {config.max_sessions}, backlog {config.backlog})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        server.close()
    return 0


def _cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    import json

    from repro.state.telemetry import render_telemetry_summary, summarize_telemetry

    try:
        summary = summarize_telemetry(args.file)
    except OSError as exc:
        print(f"telemetry summarize: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_telemetry_summary(summary))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness import experiments as E

    drivers = {
        "fig1": E.fig1_scheme_mappings,
        "fig2": E.fig2_masking,
        "fig3": E.fig3_precision_validation,
        "fig4": E.fig4_singlethread,
        "fig5": E.fig5_singlenode,
        "fig6": E.fig6_gpu,
        "fig7": E.fig7_xeonphi,
        "fig8": E.fig8_phi_nodes,
        "fig9": E.fig9_strong_scaling,
        "table1": lambda: E.table_rows("I"),
        "table2": lambda: E.table_rows("II"),
        "table3": lambda: E.table_rows("III"),
    }
    if args.which == "all":
        for name, driver in drivers.items():
            print(driver().render())
            print()
        return 0
    if args.which not in drivers:
        print(f"unknown artifact {args.which!r}; choose from {', '.join(drivers)} or 'all'",
              file=sys.stderr)
        return 2
    print(drivers[args.which]().render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validation import render_validation, run_validation

    checks = run_validation()
    print(render_validation(checks))
    return 0 if all(ok for _, ok, _ in checks) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.tersoff.parameters import tersoff_si
    from repro.core.tersoff.vectorized import TersoffVectorized
    from repro.md.lattice import diamond_lattice, perturbed
    from repro.md.neighbor import NeighborList, NeighborSettings
    from repro.perf.report import render_profile

    params = tersoff_si()
    system = perturbed(diamond_lattice(3, 3, 3), 0.1, seed=6)
    neigh = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    neigh.build(system.x, system.box)
    pot = TersoffVectorized(params, isa=args.isa, precision=args.precision, scheme=args.scheme)
    res = pot.compute(system, neigh)
    print(render_profile(res.stats["kernel_stats"], res.stats["isa"],
                         width=res.stats["width"],
                         label=f"{args.precision} scheme {res.stats['scheme']}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.experiments import PAPER_ATOMS, kernel_profile
    from repro.harness.reporting import format_table
    from repro.perf.machines import get_machine
    from repro.perf.model import PerformanceModel

    rows = []
    for name in args.machines:
        machine = get_machine(name)
        model = PerformanceModel(machine)
        row = {"machine": name, "ISA": machine.isa}
        for mode in ("Ref", "Opt-D", "Opt-S", "Opt-M"):
            if machine.isa == "neon" and mode == "Opt-M":
                row[mode] = "n/a"
                continue
            profile = kernel_profile(mode, machine.isa)
            cores = 1 if args.single_thread else machine.cores
            row[mode] = round(model.step_time(profile, PAPER_ATOMS["fig4"], cores=cores).ns_per_day(), 3)
        rows.append(row)
    print(format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.parallel.executor import EXECUTOR_NAMES

    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="library / ISA / machine inventory")
    p_info.set_defaults(func=_cmd_info)

    p_run = sub.add_parser("run", help="run an MD simulation")
    p_run.add_argument("--atoms", type=int, default=512)
    p_run.add_argument("--steps", type=int, default=200)
    p_run.add_argument("--temperature", type=float, default=600.0)
    p_run.add_argument("--mode", choices=("Ref", "Opt-D", "Opt-S", "Opt-M"), default="Opt-M")
    p_run.add_argument("--potential", choices=("tersoff", "sw"), default="tersoff")
    p_run.add_argument("--backend", choices=("numpy", "compiled"), default=None,
                       help="compute backend for the Tersoff and SW Opt-* production paths "
                            "(default: compiled where the C extension loads, else numpy, "
                            "the oracle; an explicit 'compiled' falls back with a warning)")
    p_run.add_argument("--skin", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=2016)
    p_run.add_argument("--workers", type=int, default=None,
                       help="run forces on a persistent pool of N workers (see --executor)")
    p_run.add_argument("--ranks", type=int, default=None,
                       help="domain-decomposition size for --workers (default: workers); "
                            "the physics depends only on ranks, never on workers")
    p_run.add_argument("--executor", choices=EXECUTOR_NAMES, default=None,
                       help="execution backend for --workers (default: process pool via "
                            "fork where available; tcp/unix spawn a local socket pool; "
                            "physics is bitwise identical across executors)")
    p_run.add_argument("--hosts", default=None, metavar="ADDR,ADDR,...",
                       help="connect to pre-started 'repro worker' listeners "
                            "(host:port for tcp, socket paths for unix); one worker "
                            "per address — the multi-node halo-exchange mode")
    p_run.add_argument("--sanitize", action="store_true",
                       help="debug: raise on FP faults and NaN-guard every force result")
    p_run.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="checkpoint file (default run.ckpt when --checkpoint-every is set)")
    p_run.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                       help="write a bitwise-resumable checkpoint every N steps "
                            "(plus once at run end)")
    p_run.add_argument("--restart-from", default=None, metavar="PATH",
                       help="resume from a checkpoint (bitwise-identical to the "
                            "uninterrupted run); potential config comes from the checkpoint")
    p_run.add_argument("--telemetry", default=None, metavar="PATH",
                       help="write per-step JSON-lines telemetry "
                            "(see 'repro telemetry summarize')")
    p_run.add_argument("--telemetry-every", type=int, default=1, metavar="N",
                       help="telemetry record stride (default 1)")
    p_run.add_argument("--traj", default=None, metavar="PATH",
                       help="stream an append-safe binary trajectory (.rtrj)")
    p_run.add_argument("--traj-every", type=int, default=10, metavar="N",
                       help="trajectory frame stride (default 10)")
    p_run.set_defaults(func=_cmd_run)

    p_worker = sub.add_parser("worker", help="serve engine sessions as a cluster worker")
    p_worker.add_argument("--bind", default=None, metavar="HOST:PORT",
                          help="listen on a TCP address (port 0 picks a free one)")
    p_worker.add_argument("--unix", default=None, metavar="PATH",
                          help="listen on a unix-domain socket path")
    p_worker.add_argument("--once", action="store_true",
                          help="exit after serving one engine session")
    p_worker.set_defaults(func=_cmd_worker)

    p_serve = sub.add_parser("serve", help="batched evaluation service (warm solver pool)")
    p_serve.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                         help="TCP listen address (port 0 = ephemeral)")
    p_serve.add_argument("--unix", default=None, metavar="PATH",
                         help="serve on an AF_UNIX socket instead of TCP")
    p_serve.add_argument("--max-sessions", type=int, default=32,
                         help="global warm-session cap (LRU eviction)")
    p_serve.add_argument("--per-tenant-cap", type=int, default=8,
                         help="warm-session cap per tenant")
    p_serve.add_argument("--skin", type=float, default=1.0,
                         help="neighbor skin for serve sessions")
    p_serve.add_argument("--backlog", type=int, default=64,
                         help="bounded queue depth; overflow answers 429")
    p_serve.add_argument("--max-atoms", type=int, default=65536,
                         help="refuse systems above this size (L2)")
    p_serve.set_defaults(func=_cmd_serve)

    p_fig = sub.add_parser("figure", help="regenerate a paper artifact")
    p_fig.add_argument("which", help="fig1..fig9, table1..table3, or 'all'")
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="performance-portability sweep")
    p_sweep.add_argument("--machines", nargs="+",
                         default=["ARM", "WM", "SB", "HW", "BW", "KNC", "KNL"])
    p_sweep.add_argument("--single-thread", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the correctness battery")
    p_val.set_defaults(func=_cmd_validate)

    p_prof = sub.add_parser("profile", help="cycle profile of the vector kernel")
    p_prof.add_argument("--isa", default="imci")
    p_prof.add_argument("--precision", default="mixed",
                        choices=("double", "single", "mixed"))
    p_prof.add_argument("--scheme", default="auto")
    p_prof.set_defaults(func=_cmd_profile)

    p_tel = sub.add_parser("telemetry", help="inspect structured run telemetry")
    tel_sub = p_tel.add_subparsers(dest="telemetry_command", required=True)
    pt_sum = tel_sub.add_parser("summarize", help="aggregate a telemetry JSONL stream")
    pt_sum.add_argument("file", help="telemetry JSONL file written by repro run --telemetry")
    pt_sum.add_argument("--json", action="store_true", help="emit the summary as JSON")
    pt_sum.set_defaults(func=_cmd_telemetry_summarize)

    from repro.analysis.cli import add_lint_parser

    add_lint_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
