"""Streaming durability: binary trajectory + JSONL telemetry.

The durability claim under test: a run killed at ANY byte boundary
leaves a trajectory whose complete frames are all recoverable, a
telemetry stream that still parses, and (elsewhere) a checkpoint that
still loads.  Plus the exactness claim: telemetry stage totals are
bit-equal to the run's StageTimers, because the summarizer reads the
last cumulative record instead of re-summing float deltas.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.tersoff.production import TersoffProduction
from repro.md.integrate import Langevin
from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities
from repro.md.simulation import Simulation
from repro.state.format import CorruptStateError
from repro.state.telemetry import (
    TelemetrySink,
    read_telemetry,
    render_telemetry_summary,
    summarize_telemetry,
)
from repro.state.trajectory import BinaryTrajectory, read_binary_trajectory, recover_trajectory


def make_sim(si_params, *, cache=True):
    s = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
    seeded_velocities(s, 600.0, seed=11)
    th = Langevin(temperature=600.0, damping=0.1, dt=0.001, seed=7)
    return Simulation(s, TersoffProduction(si_params, cache=cache), thermostat=th)


class TestBinaryTrajectory:
    def test_bitwise_roundtrip(self, si_params, tmp_path):
        sim = make_sim(si_params)
        path = tmp_path / "run.rtrj"
        frames_x = []
        with BinaryTrajectory(path, every=2, velocities=True) as traj:
            def snap(s, step):
                traj(s, step)
                if step % 2 == 0:
                    frames_x.append((step, s.system.x.copy(), s.system.v.copy()))
            sim.run(6, callback=[snap])
        scan = read_binary_trajectory(path)
        assert not scan.truncated
        assert scan.steps == [2, 4, 6]
        for frame, (step, x, v) in zip(scan.frames, frames_x):
            assert frame.step == step
            assert frame.system.x.tobytes() == x.tobytes()
            assert frame.system.v.tobytes() == v.tobytes()
            assert frame.system.species == sim.system.species

    def test_finalize_writes_last_frame(self, si_params, tmp_path):
        sim = make_sim(si_params)
        path = tmp_path / "run.rtrj"
        with BinaryTrajectory(path, every=4) as traj:
            sim.run(6, callback=[traj])  # 6 % 4 != 0
        assert read_binary_trajectory(path).steps == [4, 6]

    def test_torn_tail_recovered(self, si_params, tmp_path):
        sim = make_sim(si_params)
        path = tmp_path / "run.rtrj"
        with BinaryTrajectory(path, every=1) as traj:
            sim.run(3, callback=[traj])
        intact = path.read_bytes()
        path.write_bytes(intact[:-37])  # kill mid-frame 3
        scan = read_binary_trajectory(path)
        assert scan.truncated and scan.steps == [1, 2]
        kept, dropped = recover_trajectory(path)
        assert kept == 2 and dropped > 0
        scan2 = read_binary_trajectory(path)
        assert not scan2.truncated and scan2.steps == [1, 2]

    def test_append_after_kill(self, si_params, tmp_path):
        sim = make_sim(si_params)
        path = tmp_path / "run.rtrj"
        with BinaryTrajectory(path, every=1) as traj:
            sim.run(3, callback=[traj])
        path.write_bytes(path.read_bytes()[:-10])  # torn tail
        sim2 = make_sim(si_params)
        sim2.step_index = 2
        with BinaryTrajectory(path, every=1, append=True) as traj:
            sim2.run(2, callback=[traj])
        scan = read_binary_trajectory(path)
        assert not scan.truncated
        assert scan.steps == [1, 2, 3, 4]

    def test_every_byte_truncation_is_recoverable(self, si_params, tmp_path):
        # the strong durability property: cut the file at every byte
        # boundary; the reader must never crash and never lose a
        # complete frame
        sim = make_sim(si_params)
        path = tmp_path / "run.rtrj"
        with BinaryTrajectory(path, every=1) as traj:
            sim.run(2, callback=[traj])
        intact = path.read_bytes()
        boundaries = []
        with open(path, "rb") as fh:
            fh.seek(8)
            from repro.state.format import read_frame

            while read_frame(fh) is not None:
                boundaries.append(fh.tell())
        cut_path = tmp_path / "cut.rtrj"
        clean = {8, *boundaries}  # frame ends (and the bare magic) are clean cuts
        for cut in range(8, len(intact)):
            cut_path.write_bytes(intact[:cut])
            scan = read_binary_trajectory(cut_path)
            expected = sum(1 for b in boundaries if b <= cut)
            assert len(scan.frames) == expected, f"cut at {cut}"
            assert scan.truncated == (cut not in clean)

    def test_rewind_to_checkpoint_step(self, si_params, tmp_path):
        # a killed run can stream frames PAST its last checkpoint; a
        # resume must rewind them so appended frames stay step-ordered
        sim = make_sim(si_params)
        path = tmp_path / "run.rtrj"
        with BinaryTrajectory(path, every=1) as traj:
            sim.run(5, callback=[traj])
        from repro.state.trajectory import rewind_trajectory

        kept, dropped = rewind_trajectory(path, 3)
        assert (kept, dropped) == (3, 2)
        sim2 = make_sim(si_params)
        sim2.step_index = 3
        with BinaryTrajectory(path, every=1, append=True, resume_step=3) as traj:
            sim2.run(2, callback=[traj])
        scan = read_binary_trajectory(path)
        assert scan.steps == [1, 2, 3, 4, 5]

    def test_resume_step_rewinds_on_append(self, si_params, tmp_path):
        sim = make_sim(si_params)
        path = tmp_path / "run.rtrj"
        with BinaryTrajectory(path, every=1) as traj:
            sim.run(5, callback=[traj])
        path.write_bytes(path.read_bytes()[:-9])  # torn frame 5 too
        with BinaryTrajectory(path, every=1, append=True, resume_step=2):
            pass
        assert read_binary_trajectory(path).steps == [1, 2]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.rtrj"
        p.write_bytes(b"NOTATRAJ" + b"\x00" * 64)
        with pytest.raises(CorruptStateError, match="magic"):
            read_binary_trajectory(p)

    def test_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            BinaryTrajectory(tmp_path / "x.rtrj", every=0)


class TestTelemetry:
    def run_with_telemetry(self, si_params, tmp_path, *, steps=5, every=1):
        sim = make_sim(si_params)
        path = tmp_path / "run.jsonl"
        with TelemetrySink(path, every=every, meta={"tag": "unit"}) as telem:
            sim.run(steps, callback=[telem])
        return sim, path

    def test_records_parse_and_cover_run(self, si_params, tmp_path):
        sim, path = self.run_with_telemetry(si_params, tmp_path)
        records, bad = read_telemetry(path)
        assert bad == 0
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        steps = [r for r in records if r["kind"] == "step"]
        assert [r["step"] for r in steps] == [1, 2, 3, 4, 5]
        assert records[0]["meta"] == {"tag": "unit"}
        for r in steps:
            assert r["energy"] is not None
            json.dumps(r)  # strictly JSON-able

    def test_summary_timers_bit_equal_to_stage_timers(self, si_params, tmp_path):
        sim, path = self.run_with_telemetry(si_params, tmp_path)
        summary = summarize_telemetry(path)
        live = sim.timers.as_dict()
        for stage, seconds in summary["timers"].items():
            assert seconds == live[stage], f"stage {stage} drifted"
        assert summary["complete"]
        assert summary["step_records"] == 5
        assert summary["cache"]["hits"] == sim.potential.cache_stats.hits

    def test_torn_tail_tolerated(self, si_params, tmp_path):
        sim, path = self.run_with_telemetry(si_params, tmp_path)
        text = path.read_text()
        path.write_text(text[:-40])  # tear the final line
        records, bad = read_telemetry(path)
        assert bad == 1
        summary = summarize_telemetry(path)
        assert summary["bad_lines"] == 1
        assert not summary["complete"]

    def test_stride(self, si_params, tmp_path):
        sim, path = self.run_with_telemetry(si_params, tmp_path, steps=6, every=3)
        summary = summarize_telemetry(path)
        assert summary["step_records"] == 2  # steps 3 and 6

    def test_append_across_restart(self, si_params, tmp_path):
        sim, path = self.run_with_telemetry(si_params, tmp_path, steps=3)
        sim2 = make_sim(si_params)
        sim2.step_index = 3
        with TelemetrySink(path, append=True) as telem:
            sim2.run(2, callback=[telem])
        summary = summarize_telemetry(path)
        assert summary["runs"] == 2
        assert summary["last_step"] == 5

    def test_render_is_human_readable(self, si_params, tmp_path):
        _, path = self.run_with_telemetry(si_params, tmp_path)
        text = render_telemetry_summary(summarize_telemetry(path))
        assert "stage totals" in text and "energy" in text

    def test_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetrySink(tmp_path / "x.jsonl", every=0)

    def test_workload_summary_present_on_parallel_path(self, si_params, tmp_path):
        s = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        seeded_velocities(s, 600.0, seed=11)
        sim = Simulation(s, TersoffProduction(si_params), workers=1, ranks=2)
        path = tmp_path / "par.jsonl"
        try:
            with TelemetrySink(path) as telem:
                sim.run(2, callback=[telem])
        finally:
            sim.close()
        steps = [r for r in read_telemetry(path)[0] if r["kind"] == "step"]
        assert steps and all("workload" in r for r in steps)
        assert steps[0]["workload"]["ranks"] == 2


class TestMultiCallback:
    def test_sinks_compose(self, si_params, tmp_path):
        sim = make_sim(si_params)
        traj = BinaryTrajectory(tmp_path / "c.rtrj", every=2)
        telem = TelemetrySink(tmp_path / "c.jsonl")
        thermo_steps: list[int] = []
        sim.run(4, callback=[traj, telem, lambda s, k: thermo_steps.append(k)])
        traj.close()
        telem.close()
        assert read_binary_trajectory(tmp_path / "c.rtrj").steps == [2, 4]
        assert summarize_telemetry(tmp_path / "c.jsonl")["step_records"] == 4
        assert thermo_steps == [1, 2, 3, 4]

    def test_single_callable_still_works(self, si_params, tmp_path):
        sim = make_sim(si_params)
        seen: list[int] = []
        sim.run(3, callback=lambda s, k: seen.append(k))
        assert seen == [1, 2, 3]


def test_numpy_values_jsonable(si_params, tmp_path):
    from repro.state.telemetry import _jsonable

    out = _jsonable({"a": np.float64(1.5), "b": np.arange(3), "c": (np.int32(1), 2)})
    assert json.loads(json.dumps(out)) == {"a": 1.5, "b": [0, 1, 2], "c": [1, 2]}
