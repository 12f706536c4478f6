"""Bitwise restart equivalence: the tentpole acceptance battery.

Claim under test: running N steps is indistinguishable — to the last
ULP of every position, velocity, force, the energy, and the thermostat
RNG stream — from running K steps, checkpointing, restarting and
running N-K steps.  The drift sequence is tuned so neighbor-list
rebuilds happen both before and after the checkpoint: restart must
reproduce the rebuild *decisions* (same steps) and the pair ordering,
or accumulation order diverges.

Covered here:
- serial, across double/single/mixed precision x cache on/off;
- parallel (ranks=2) resumed with workers in {1, 2}, including
  resuming with a different worker count than the original run;
- kill -9 durability: a SIGKILL'd CLI run leaves a loadable
  checkpoint, a recoverable trajectory and parseable telemetry, and
  both the API and the CLI can resume from it;
- checkpoints of older builds: ``sort: false`` resumes, ``sort: true``
  is refused.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.tersoff.production import TersoffProduction
from repro.md.integrate import Langevin
from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities
from repro.md.neighbor import NeighborSettings
from repro.md.simulation import Simulation
from repro.runtime import RunSpec, SolverSpec, SpecError
from repro.runtime.session import restore_run
from repro.state import CheckpointError, load_checkpoint, restore_simulation, save_checkpoint
from repro.state.telemetry import summarize_telemetry
from repro.state.trajectory import read_binary_trajectory
from test_state_checkpoint import rewrite

# the environment of every CLI child: this checkout's package first
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

# drift regime with neighbor rebuilds on both sides of the step-5
# checkpoint (verified by test_drift_sequence_rebuilds)
TEMP = 1500.0
DT = 0.002
SKIN = 0.1
N_STEPS = 12
K_STEPS = 5


def build_sim(si_params, *, precision="double", cache=True, workers=None, ranks=None):
    s = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
    seeded_velocities(s, TEMP, seed=11)
    pot = TersoffProduction(si_params, precision=precision, cache=cache)
    return Simulation(
        s,
        pot,
        dt=DT,
        thermostat=Langevin(temperature=TEMP, damping=0.1, dt=DT, seed=7),
        neighbor=NeighborSettings(cutoff=pot.cutoff, skin=SKIN, full=True),
        workers=workers,
        ranks=ranks,
    )


def assert_bitwise_equal(sim, truth):
    __tracebackhide__ = True
    for name in ("x", "v", "f"):
        a = getattr(sim.system, name)
        b = getattr(truth.system, name)
        assert a.tobytes() == b.tobytes(), f"{name} differs after restart"
    assert sim.last_result.energy == truth.last_result.energy
    assert sim.step_index == truth.step_index
    if sim.thermostat is not None:
        assert (
            sim.thermostat.rng.bit_generator.state
            == truth.thermostat.rng.bit_generator.state
        ), "thermostat RNG stream diverged"


def test_drift_sequence_rebuilds(si_params):
    """Guard: the battery's regime really rebuilds around the checkpoint."""
    sim = build_sim(si_params)
    builds = []
    sim.run(N_STEPS, callback=lambda sm, k: builds.append(sm.neigh.n_builds))
    assert builds[K_STEPS - 1] > 1, "no rebuild before the checkpoint step"
    assert builds[-1] > builds[K_STEPS - 1], "no rebuild after the checkpoint step"


class TestSerialRestartEquivalence:
    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    def test_bitwise(self, si_params, tmp_path, precision, cache):
        truth = build_sim(si_params, precision=precision, cache=cache)
        truth.run(N_STEPS)

        sim = build_sim(si_params, precision=precision, cache=cache)
        sim.run(K_STEPS)
        save_checkpoint(sim, tmp_path / "k.ckpt")

        ck = load_checkpoint(tmp_path / "k.ckpt")
        resumed = restore_simulation(
            ck, TersoffProduction(si_params, precision=precision, cache=cache)
        )
        resumed.run(N_STEPS - K_STEPS)
        assert_bitwise_equal(resumed, truth)

    def test_checkpoint_mid_callback_is_transparent(self, si_params, tmp_path):
        # saving a checkpoint every step must not perturb the run
        plain = build_sim(si_params)
        plain.run(N_STEPS)
        observed = build_sim(si_params)
        observed.run(N_STEPS, callback=lambda sm, k: save_checkpoint(sm, tmp_path / "s.ckpt"))
        assert_bitwise_equal(observed, plain)


def stored_rank_lists(meta, arrays):
    """What builds that stored rank lists added to a ranks=2 checkpoint:
    ``warm_ranks`` and one list reference per rank, rank 0's three rows short."""
    meta["engine"]["warm_ranks"] = [0, 1]
    arrays.update(engine_rank_0_x_ref=arrays["engine_x_ref"][:-3],
                  engine_rank_1_x_ref=arrays["engine_x_ref"])


class TestParallelRestartEquivalence:
    @pytest.mark.parametrize("resume_workers, edit", [(1, None), (2, None), (2, stored_rank_lists)],
                             ids=["1", "2", "stored-rank-lists"])
    def test_bitwise(self, si_params, tmp_path, resume_workers, edit):
        with build_sim(si_params, workers=2, ranks=2) as truth:
            truth.run(N_STEPS)

            with build_sim(si_params, workers=2, ranks=2) as sim:
                sim.run(K_STEPS)
                save_checkpoint(sim, tmp_path / "k.ckpt")
            if edit is not None:
                rewrite(tmp_path / "k.ckpt", edit)

            ck = load_checkpoint(tmp_path / "k.ckpt")
            with restore_simulation(
                ck, TersoffProduction(si_params), workers=resume_workers
            ) as resumed:
                assert resumed.engine.workers == resume_workers
                assert resumed.engine.ranks == 2  # physics follows ranks
                resumed.run(N_STEPS - K_STEPS)
                assert_bitwise_equal(resumed, truth)

    def test_parallel_matches_serial_truth(self, si_params, tmp_path):
        # ranks=1 parallel resume of a ranks=1 parallel run equals the
        # serial trajectory (the engine's standing bitwise contract),
        # so a restart preserves that equivalence too
        serial = build_sim(si_params)
        serial.run(N_STEPS)
        with build_sim(si_params, workers=1, ranks=1) as sim:
            sim.run(K_STEPS)
            save_checkpoint(sim, tmp_path / "k.ckpt")
        ck = load_checkpoint(tmp_path / "k.ckpt")
        with restore_simulation(ck, TersoffProduction(si_params)) as resumed:
            resumed.run(N_STEPS - K_STEPS)
            for name in ("x", "v", "f"):
                a = getattr(resumed.system, name)
                b = getattr(serial.system, name)
                assert a.tobytes() == b.tobytes()


class TestSigkillDurability:
    """Kill a real run with SIGKILL; everything on disk must remain usable."""

    def launch(self, tmp_path, *, steps=200000):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run",
                "--atoms", "64", "--steps", str(steps), "--seed", "3",
                "--checkpoint", "run.ckpt", "--checkpoint-every", "2",
                "--traj", "run.rtrj", "--traj-every", "1",
                "--telemetry", "run.jsonl",
            ],
            cwd=tmp_path,
            env=CLI_ENV,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def wait_for_progress(self, tmp_path, proc, *, min_bytes=2000, timeout=120.0):
        ckpt = tmp_path / "run.ckpt"
        traj = tmp_path / "run.rtrj"
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise AssertionError("run exited before it could be killed")
            if ckpt.exists() and traj.exists() and traj.stat().st_size > min_bytes:
                return
            time.sleep(0.05)
        raise AssertionError("run produced no checkpoint/trajectory within timeout")

    def test_sigkill_leaves_resumable_state(self, si_params, tmp_path):
        proc = self.launch(tmp_path)
        try:
            self.wait_for_progress(tmp_path, proc)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)

        # checkpoint loads (atomic writes: always a complete file)...
        ck = load_checkpoint(tmp_path / "run.ckpt")
        assert ck.step_index >= 2
        # ...and actually resumes
        resumed = restore_simulation(ck, TersoffProduction(si_params))
        e_before = resumed.last_result.energy
        resumed.run(2)
        assert np.isfinite(resumed.last_result.energy)
        assert resumed.last_result.energy != e_before

        # trajectory: complete frames recovered, torn tail reported not fatal
        scan = read_binary_trajectory(tmp_path / "run.rtrj")
        assert len(scan.frames) >= 1
        assert scan.steps == sorted(scan.steps)
        for frame in scan.frames:
            assert frame.system.n == 64
            assert np.all(np.isfinite(frame.system.x))

        # telemetry parses; at most the final line is torn
        summary = summarize_telemetry(tmp_path / "run.jsonl")
        assert summary["step_records"] >= 1
        assert summary["bad_lines"] <= 1

    def test_cli_restart_after_sigkill(self, tmp_path):
        proc = self.launch(tmp_path)
        try:
            self.wait_for_progress(tmp_path, proc)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)

        out = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--restart-from", "run.ckpt", "--steps", "3",
             "--traj", "run.rtrj", "--traj-every", "1", "--telemetry", "run.jsonl"],
            cwd=tmp_path, env=CLI_ENV, capture_output=True, text=True, timeout=600,
        )
        assert out.returncode == 0, out.stderr
        # appended trajectory is clean and strictly ordered
        scan = read_binary_trajectory(tmp_path / "run.rtrj")
        assert not scan.truncated
        assert scan.steps == sorted(scan.steps)
        # telemetry shows two run_start records (original + restart)
        summary = summarize_telemetry(tmp_path / "run.jsonl")
        assert summary["runs"] == 2

    def test_cli_restart_refuses_corrupt_checkpoint(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"REPROCK1" + b"\x00" * 32)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--restart-from", str(bad), "--steps", "1"],
            capture_output=True, text=True, env=CLI_ENV, timeout=600,
        )
        assert out.returncode == 2
        assert "checkpoint" in out.stderr.lower()


def test_restart_run_config_round_trip(tmp_path):
    """The CLI pins the full run spec; restart rebuilds it from the
    checkpoint rather than trusting the new command line."""
    run = subprocess.run(
        [
            sys.executable, "-m", "repro", "run",
            "--atoms", "64", "--steps", "4", "--seed", "3", "--mode", "Opt-S",
            "--workers", "2", "--executor", "thread",
            "--checkpoint", "a.ckpt", "--checkpoint-every", "4",
        ],
        cwd=tmp_path, env=CLI_ENV, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    ck = load_checkpoint(tmp_path / "a.ckpt")
    cfg = ck.user_meta["run_spec"]
    assert json.dumps(cfg)  # JSON-able by construction
    run_spec = ck.run_spec()
    assert run_spec is not None
    # the full spec round-trips: solver physics AND execution knobs
    assert run_spec.solver.mode == "Opt-S"
    assert run_spec.workers == 2
    assert run_spec.executor == "thread"
    assert run_spec.skin == 1.0
    from dataclasses import replace

    from repro.backends import get_default
    from repro.runtime import RunSpec

    # what was asked for is pinned (no --backend: the default); the kernel
    # that ran is recorded once, in meta["backend"], and the resolved spec
    # is the pinned one with that backend
    pinned = RunSpec.from_dict(cfg)
    assert pinned.solver.backend is None
    assert ck.meta["backend"] == run_spec.solver.backend == get_default()
    assert pinned.with_overrides(solver=replace(pinned.solver, backend=ck.meta["backend"])) == run_spec
    for skin, code in (("0.5", 2), ("1.0", 0)):  # the stored list keeps its skin, or refuses
        out = subprocess.run([sys.executable, "-m", "repro", "run", "--restart-from", "a.ckpt", "--steps",
                              "1", "--skin", skin], cwd=tmp_path, env=CLI_ENV, capture_output=True,
                             text=True, timeout=600)
        assert (out.returncode, "run: --skin 0.5 differs" in out.stderr,
                "steps at" in out.stdout) == (code, code == 2, False), out.stderr


class TestSortedDomainsRefused:
    """Morton-sorted domains are gone.  A checkpoint an older build wrote
    with ``sort: false`` resumes bitwise as before; one with ``sort:
    true`` summed in Morton order, so resuming it unsorted would change
    its bits, and it is refused with a typed error instead."""

    def checkpoint(self, si_params, tmp_path, sort):
        """A ranks=2 checkpoint in the older layout: ``sort`` in the
        pinned run spec and in the engine metadata."""
        run = RunSpec(solver=SolverSpec(mode="Opt-D"), workers=2, ranks=2, skin=SKIN)
        with build_sim(si_params, workers=2, ranks=2) as sim:
            sim.run(K_STEPS)
            save_checkpoint(sim, tmp_path / "k.ckpt", user_meta={"run_spec": run.to_dict()})

        def edit(meta, arrays):
            for where, value in sort.items():
                (meta["engine"] if where == "engine" else meta["user_meta"]["run_spec"])["sort"] = value
        rewrite(tmp_path / "k.ckpt", edit)
        return load_checkpoint(tmp_path / "k.ckpt")

    def test_sort_false_resumes_bitwise(self, si_params, tmp_path):
        with build_sim(si_params, workers=2, ranks=2) as truth:
            truth.run(N_STEPS)
        ck = self.checkpoint(si_params, tmp_path, {"engine": False, "run_spec": False})
        with restore_run(ck.run_spec(), ck) as resumed:
            resumed.run(N_STEPS - K_STEPS)
            assert_bitwise_equal(resumed, truth)

    @pytest.mark.parametrize("where", ["run_spec", "engine"])
    def test_sort_true_is_refused(self, si_params, tmp_path, where):
        ck = self.checkpoint(si_params, tmp_path, {where: True})
        if where == "run_spec":
            with pytest.raises(SpecError, match="Morton-sorted"):
                RunSpec.from_dict(ck.user_meta["run_spec"])
            with pytest.raises(CheckpointError, match="Morton-sorted"):
                ck.run_spec()
        else:
            with pytest.raises(CheckpointError, match="Morton-sorted"):
                restore_run(ck.run_spec(), ck)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--restart-from", "k.ckpt", "--steps", "1"],
            cwd=tmp_path, env=CLI_ENV, capture_output=True, text=True, timeout=600,
        )
        assert out.returncode == 2
        assert "Morton-sorted" in out.stderr
