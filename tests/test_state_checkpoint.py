"""Checkpoint codec round-trips, versioning and failure modes.

The bitwise restart-equivalence battery lives in
``test_state_restart.py``; this file covers the *format* contract:
save/load round-trips, schema-version rejection, corruption and
truncation detection with typed errors, forward-compat tolerance of
unknown fields, write atomicity and restore independence.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.tersoff.production import TersoffProduction
from repro.md.integrate import Langevin, NoseHoover, VelocityRescale
from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities
from repro.md.simulation import Simulation
from repro.runtime import RunSpec, SolverSpec
from repro.runtime.session import restore_run
from repro.state import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    Checkpointer,
    CheckpointError,
    load_checkpoint,
    restore_simulation,
    save_checkpoint,
)
from repro.state.checkpoint import CHECKPOINT_MAGIC
from repro.state.format import pack_arrays, pack_json, write_frame


def small_sim(si_params, *, steps=3, thermostat=True, cache=True):
    s = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
    seeded_velocities(s, 600.0, seed=11)
    th = Langevin(temperature=600.0, damping=0.1, dt=0.001, seed=7) if thermostat else None
    sim = Simulation(s, TersoffProduction(si_params, cache=cache), thermostat=th)
    if steps:
        sim.run(steps)
    return sim


class TestRoundTrip:
    def test_arrays_bitwise(self, si_params, tmp_path):
        sim = small_sim(si_params)
        path = save_checkpoint(sim, tmp_path / "a.ckpt")
        ck = load_checkpoint(path)
        for name, live in (("x", sim.system.x), ("v", sim.system.v), ("f", sim.system.f)):
            assert ck.arrays[name].tobytes() == live.tobytes()
        assert ck.step_index == 3
        assert ck.meta["dt"] == sim.dt
        assert not ck.parallel

    def test_restored_simulation_matches(self, si_params, tmp_path):
        sim = small_sim(si_params)
        save_checkpoint(sim, tmp_path / "a.ckpt")
        ck = load_checkpoint(tmp_path / "a.ckpt")
        sim2 = restore_simulation(ck, TersoffProduction(si_params))
        assert sim2.step_index == sim.step_index
        assert np.array_equal(sim2.system.x, sim.system.x)
        assert np.array_equal(sim2.system.v, sim.system.v)
        assert np.array_equal(sim2.system.f, sim.system.f)
        assert sim2.system.species == sim.system.species
        # neighbor identity: same CSR arrays, same build bookkeeping
        assert np.array_equal(sim2.neigh.neighbors, sim.neigh.neighbors)
        assert np.array_equal(sim2.neigh.offsets, sim.neigh.offsets)
        assert sim2.neigh.version == sim.neigh.version
        assert sim2.neigh.n_builds == sim.neigh.n_builds
        # thermostat RNG stream position
        assert (
            sim2.thermostat.rng.bit_generator.state == sim.thermostat.rng.bit_generator.state
        )
        # resume must not re-evaluate forces
        assert sim2.last_result is not None
        assert sim2.last_result.energy == sim.last_result.energy
        # timers carried over for telemetry continuity
        assert sim2.timers.pair == sim.timers.pair

    def test_restore_independence(self, si_params, tmp_path):
        # regression: restores used to alias ck.arrays via the no-copy
        # path of np.ascontiguousarray, so running one restored sim
        # corrupted the checkpoint for the next restore
        sim = small_sim(si_params)
        save_checkpoint(sim, tmp_path / "a.ckpt")
        ck = load_checkpoint(tmp_path / "a.ckpt")
        first = restore_simulation(ck, TersoffProduction(si_params))
        x0 = ck.arrays["x"].copy()
        first.run(2)
        assert np.array_equal(ck.arrays["x"], x0), "restored sim mutated the checkpoint"
        second = restore_simulation(ck, TersoffProduction(si_params))
        assert np.array_equal(second.system.x, x0)

    def test_user_meta_roundtrip(self, si_params, tmp_path):
        sim = small_sim(si_params, steps=0)
        save_checkpoint(sim, tmp_path / "a.ckpt", user_meta={"config": {"atoms": 64}})
        ck = load_checkpoint(tmp_path / "a.ckpt")
        assert ck.user_meta == {"config": {"atoms": 64}}

    def test_no_thermostat(self, si_params, tmp_path):
        sim = small_sim(si_params, thermostat=False)
        save_checkpoint(sim, tmp_path / "a.ckpt")
        sim2 = restore_simulation(load_checkpoint(tmp_path / "a.ckpt"),
                                  TersoffProduction(si_params))
        assert sim2.thermostat is None
        assert np.array_equal(sim2.system.x, sim.system.x)

    def test_cache_stats_continuity(self, si_params, tmp_path):
        sim = small_sim(si_params, cache=True)
        stats = sim.potential.cache_stats
        save_checkpoint(sim, tmp_path / "a.ckpt")
        pot = TersoffProduction(si_params, cache=True)
        sim2 = restore_simulation(load_checkpoint(tmp_path / "a.ckpt"), pot)
        assert sim2.potential.cache_stats.hits == stats.hits
        assert sim2.potential.cache_stats.misses == stats.misses


class TestThermostatState:
    def test_langevin_rng_stream(self):
        th = Langevin(temperature=300.0, damping=0.1, dt=0.001, seed=42)
        th.rng.standard_normal(17)  # advance the stream
        th2 = Langevin.from_state(th.state_dict())
        assert th2.rng.bit_generator.state == th.rng.bit_generator.state
        a = th.rng.standard_normal(8)
        b = th2.rng.standard_normal(8)
        assert a.tobytes() == b.tobytes()

    def test_nose_hoover_xi(self):
        th = NoseHoover(temperature=400.0, damping=0.2, dt=0.001)
        th.xi = 0.123456789
        th2 = NoseHoover.from_state(th.state_dict())
        assert th2.xi == th.xi and th2.temperature == th.temperature

    def test_velocity_rescale(self):
        th = VelocityRescale(temperature=500.0, every=7)
        th2 = VelocityRescale.from_state(th.state_dict())
        assert th2.temperature == th.temperature and th2.every == th.every


def rewrite(path, edit):
    """Re-frame the checkpoint at `path`, with valid CRCs, after
    ``edit(meta, arrays)``."""
    ck = load_checkpoint(path)
    edit(ck.meta, ck.arrays)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        write_frame(fh, pack_json(ck.meta))
        write_frame(fh, pack_arrays(ck.arrays))


# CRC-valid edits of a checkpoint this build wrote: (workers, edit, also via the CLI)
MALFORMED = {
    "neighbor": (None, lambda m, a: m.update(neighbor={}), True),
    "positions": (None, lambda m, a: a.update(x=a["x"][:5]), True),
    "thermostat": (None, lambda m, a: m["thermostat"].pop("temperature"), False),
    "species": (None, lambda m, a: m.update(species=5), False),
    "dt": (None, lambda m, a: m.update(dt=None), False),
    "neigh_x_ref": (None, lambda m, a: a.update(neigh_x_ref=a["neigh_x_ref"][:4]), False),
    "workers": (None, lambda m, a: m["user_meta"]["run_spec"].update(workers="2"), False),
    "skin": (None, lambda m, a: m["user_meta"]["run_spec"].update(skin="x"), False),
    "hosts": (None, lambda m, a: m["user_meta"]["run_spec"].update(hosts=5), False),
    "run_config": (None, lambda m, a: m.update(user_meta={"run_config": {"mode": "Opt-M"}}),
                   False),
}


class TestValidation:
    def corrupt(self, path, offset, xor=0xFF):
        data = bytearray(path.read_bytes())
        data[offset] ^= xor
        path.write_bytes(bytes(data))

    def saved(self, si_params, tmp_path):
        sim = small_sim(si_params, steps=1)
        return save_checkpoint(sim, tmp_path / "a.ckpt")

    def test_schema_version_bump_rejected(self, si_params, tmp_path):
        path = self.saved(si_params, tmp_path)
        rewrite(path, lambda m, a: m.update(schema_version=CHECKPOINT_SCHEMA_VERSION + 1))
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(path)

    def test_unknown_fields_tolerated(self, si_params, tmp_path):
        # forward-compat: same schema version, extra metadata keys
        path = self.saved(si_params, tmp_path)
        rewrite(path, lambda m, a: m.update(future_feature={"nested": [1, 2, 3]}))
        ck = load_checkpoint(path)
        sim = restore_simulation(ck, TersoffProduction(si_params))
        assert sim.step_index == 1

    @pytest.mark.parametrize("workers, edit, cli", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_content_refused(self, tmp_path, workers, edit, cli):
        """Each is one CheckpointError before anything is built (no
        worker outlives it), and on the CLI one line and exit 2."""
        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        run = RunSpec(solver=SolverSpec(mode="Opt-D"), workers=workers, ranks=workers)
        with run.build_simulation(system, thermostat=Langevin(600.0, 0.1, 0.001)) as sim:
            sim.run(2)
            save_checkpoint(sim, tmp_path / "a.ckpt", user_meta={"run_spec": run.to_dict()})
        rewrite(tmp_path / "a.ckpt", edit)
        with pytest.raises(CheckpointError):
            ck = load_checkpoint(tmp_path / "a.ckpt")
            restore_run(ck.run_spec(), ck)
        assert not multiprocessing.active_children()
        if cli:
            out = subprocess.run(
                [sys.executable, "-m", "repro", "run", "--restart-from", "a.ckpt", "--steps", "1"],
                cwd=tmp_path, capture_output=True, text=True, timeout=600,
                env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
            assert out.returncode == 2 and out.stdout == ""
            assert out.stderr.startswith(("restart: ", "run: ")) and out.stderr.count("\n") == 1

    def test_bad_magic(self, si_params, tmp_path):
        path = self.saved(si_params, tmp_path)
        self.corrupt(path, 0)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file(self, si_params, tmp_path):
        path = self.saved(si_params, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"REP")
        with pytest.raises(CheckpointError, match="too short"):
            load_checkpoint(path)

    def test_corrupted_array_block(self, si_params, tmp_path):
        path = self.saved(si_params, tmp_path)
        self.corrupt(path, path.stat().st_size - 10)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"#!/bin/sh\necho not a checkpoint\n")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_serial_checkpoint_refuses_workers(self, si_params, tmp_path):
        path = self.saved(si_params, tmp_path)
        ck = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="serial"):
            restore_simulation(ck, TersoffProduction(si_params), workers=2)

    def test_missing_required_array(self, si_params, tmp_path):
        path = self.saved(si_params, tmp_path)
        rewrite(path, lambda m, a: a.pop("v"))
        with pytest.raises(CheckpointError, match="missing arrays"):
            load_checkpoint(path)


class TestAtomicity:
    def test_overwrite_leaves_no_tmp(self, si_params, tmp_path):
        sim = small_sim(si_params, steps=1)
        path = tmp_path / "a.ckpt"
        save_checkpoint(sim, path)
        sim.run(1)
        save_checkpoint(sim, path)
        assert load_checkpoint(path).step_index == 2
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupted_write_preserves_old(self, si_params, tmp_path, monkeypatch):
        # simulate a kill between tmp write and publish: os.replace not
        # reached -> the original checkpoint must still load
        sim = small_sim(si_params, steps=1)
        path = tmp_path / "a.ckpt"
        save_checkpoint(sim, path)
        import os as _os

        def boom(src, dst):
            raise KeyboardInterrupt("killed mid-publish")

        monkeypatch.setattr(_os, "replace", boom)
        sim.run(1)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(sim, path)
        monkeypatch.undo()
        assert load_checkpoint(path).step_index == 1  # old state intact


class TestCheckpointer:
    def test_periodic_and_final(self, si_params, tmp_path):
        sim = small_sim(si_params, steps=0)
        ckpt = Checkpointer(tmp_path / "run.ckpt", every=4)
        sim.run(10, callback=[ckpt])
        # steps 4, 8 periodic + finalize at 10
        assert ckpt.checkpoints_written == 3
        assert load_checkpoint(tmp_path / "run.ckpt").step_index == 10

    def test_no_double_write_when_aligned(self, si_params, tmp_path):
        sim = small_sim(si_params, steps=0)
        ckpt = Checkpointer(tmp_path / "run.ckpt", every=5)
        sim.run(10, callback=[ckpt])
        assert ckpt.checkpoints_written == 2  # 5 and 10; finalize is a no-op

    def test_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path / "x.ckpt", every=0)


class TestCheckpointObject:
    def test_system_returns_fresh_arrays(self, si_params, tmp_path):
        sim = small_sim(si_params, steps=1)
        save_checkpoint(sim, tmp_path / "a.ckpt")
        ck = load_checkpoint(tmp_path / "a.ckpt")
        s1, s2 = ck.system(), ck.system()
        s1.x[0, 0] += 1.0
        assert s2.x[0, 0] != s1.x[0, 0]

    def test_checkpoint_class_exported(self):
        assert Checkpoint is not None
