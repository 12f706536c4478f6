"""The runtime session layer: spec round-trips, bitwise construction,
forward compatibility, and the CLI flag adapter."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import backends
from repro.core.schemes import make_solver
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.runtime import RUNTIME_SCHEMA_VERSION, RunSpec, SolverSpec, SpecError, build_potential
from repro.runtime.spec import run_from_args
from repro.state import load_checkpoint, save_checkpoint


def _workload(spec, cells=2, seed=1):
    params = spec.build_params()
    system = perturbed(diamond_lattice(cells, cells, cells), 0.1, seed=seed)
    neigh = NeighborList(NeighborSettings(cutoff=spec.cutoff(params), skin=1.0))
    neigh.build(system.x, system.box)
    return params, system, neigh


ALL_MODES = ["Ref", "Opt-D", "Opt-S", "Opt-M"]


def restart_keeps_its_kernel(tmp_path, potential):
    """A default run's checkpoint restarts on the default backend; one
    whose pin is missing restores as numpy and continues bitwise."""
    from repro.md.lattice import seeded_velocities
    from repro.runtime.session import restore_run

    def start(backend):
        system = perturbed(diamond_lattice(3, 3, 3), 0.05, seed=7)
        seeded_velocities(system, 600.0, seed=7)
        spec = SolverSpec(potential=potential, mode="Opt-D", backend=backend)
        return RunSpec(solver=spec).build_simulation(system)

    default = start(None)
    default.run(1)
    pinned = RunSpec(solver=SolverSpec(potential=potential, mode="Opt-D"))
    save_checkpoint(default, tmp_path / "d.ckpt", user_meta={"run_spec": pinned.to_dict()})
    assert load_checkpoint(tmp_path / "d.ckpt").run_spec().solver.backend == backends.get_default()

    truth = start("numpy")
    truth.run(3)
    save_checkpoint(truth, tmp_path / "n.ckpt", user_meta={"run_spec": pinned.to_dict()})
    truth.run(3)
    ck = load_checkpoint(tmp_path / "n.ckpt")
    del ck.meta["backend"]  # as written before the pin
    resumed_spec = ck.run_spec()
    assert resumed_spec.solver.backend == "numpy"
    resumed = restore_run(resumed_spec, ck)
    resumed.run(3)
    assert np.array_equal(resumed.system.x, truth.system.x)
    assert np.array_equal(resumed.system.v, truth.system.v)


class TestSolverSpecRoundTrip:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("cache", [True, False])
    def test_dict_round_trip_is_identity(self, mode, cache):
        if mode == "Ref":
            spec = SolverSpec(potential="tersoff", mode=mode)
        else:
            spec = SolverSpec(potential="tersoff", mode=mode, cache=cache)
        again = SolverSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == spec.key()

    def test_json_round_trip_via_wire(self):
        spec = SolverSpec(potential="sw", mode="Opt-S", cache=False)
        wire = json.loads(spec.canonical_json())
        assert SolverSpec.from_dict(wire) == spec

    def test_canonical_json_is_stable_identity(self):
        a = SolverSpec(mode="Opt-D")
        b = SolverSpec(mode="Opt-D")
        c = SolverSpec(mode="Opt-S")
        assert a.key() == b.key()
        assert a.key() != c.key()

    @pytest.mark.parametrize("mode", ["Opt-D", "Opt-S", "Opt-M"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_rebuilt_spec_is_bitwise(self, mode, cache):
        """A spec serialized, restored and rebuilt produces bitwise
        identical forces — across cache on/off and every precision."""
        spec = SolverSpec(potential="tersoff", mode=mode, cache=cache)
        params, system, neigh = _workload(spec)
        ref = spec.build(params=params).compute(system, neigh)
        again = SolverSpec.from_dict(json.loads(spec.canonical_json()))
        res = again.build(params=params).compute(system, neigh)
        assert res.energy == ref.energy
        assert np.array_equal(res.forces, ref.forces)

    @pytest.mark.parametrize("mode", ["Ref", "Opt-M"])
    def test_build_matches_make_solver(self, mode):
        """The runtime path and the legacy scheme-selection entry point
        construct the same solver (make_solver now delegates)."""
        spec = SolverSpec(potential="tersoff", mode=mode)
        params, system, neigh = _workload(spec)
        a = build_potential(spec, params=params).compute(system, neigh)
        b = make_solver(params, mode).compute(system, neigh)
        assert a.energy == b.energy
        assert np.array_equal(a.forces, b.forces)

    def test_backend_spec_is_bitwise_when_available(self):
        if not backends.is_available("compiled"):
            pytest.skip("compiled backend unavailable")
        spec = SolverSpec(mode="Opt-D", backend="compiled")
        params, system, neigh = _workload(spec)
        ref = SolverSpec(mode="Opt-D", backend="numpy").build(params=params)
        got = SolverSpec.from_dict(spec.to_dict()).build(params=params)
        a = ref.compute(system, neigh)
        b = got.compute(system, neigh)
        assert np.allclose(a.forces, b.forces, atol=1e-10)

    def test_sw_round_trip_bitwise(self):
        spec = SolverSpec(potential="sw", mode="Opt-D")
        params, system, neigh = _workload(spec)
        ref = spec.build(params=params).compute(system, neigh)
        res = SolverSpec.from_dict(spec.to_dict()).build(params=params).compute(
            system, neigh
        )
        assert res.energy == ref.energy
        assert np.array_equal(res.forces, ref.forces)


class TestSpecValidation:
    def test_unknown_schema_version_rejected(self):
        data = SolverSpec().to_dict()
        data["schema"] = RUNTIME_SCHEMA_VERSION + 1
        with pytest.raises(SpecError, match="schema version"):
            SolverSpec.from_dict(data)

    def test_missing_schema_version_rejected(self):
        data = SolverSpec().to_dict()
        del data["schema"]
        with pytest.raises(SpecError, match="schema version"):
            SolverSpec.from_dict(data)

    def test_unknown_fields_tolerated(self):
        """Forward compatibility: same-version additions don't break
        old readers."""
        data = SolverSpec(mode="Opt-S").to_dict()
        data["future_knob"] = 42
        assert SolverSpec.from_dict(data) == SolverSpec(mode="Opt-S")

    def test_unknown_potential_rejected(self):
        with pytest.raises(SpecError, match="potential"):
            SolverSpec(potential="eam")

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecError, match="mode"):
            SolverSpec(mode="Opt-X")

    def test_backend_on_ref_rejected(self):
        with pytest.raises(SpecError, match="backend"):
            SolverSpec(mode="Ref", backend="numpy")

    def test_backend_on_sw_ref_rejected(self):
        """SW's Opt-* path takes a backend as Tersoff's does; its Ref has none."""
        assert SolverSpec(potential="sw", mode="Opt-D", backend="numpy").backend == "numpy"
        with pytest.raises(SpecError, match="Tersoff and SW Opt-"):
            SolverSpec(potential="sw", mode="Ref", backend="numpy")

    def test_unknown_params_set_rejected(self):
        with pytest.raises(SpecError, match="params_set"):
            SolverSpec(params_set="Unobtainium")

    def test_run_spec_schema_rejected(self):
        data = RunSpec().to_dict()
        data["schema"] = 99
        with pytest.raises(SpecError, match="schema version"):
            RunSpec.from_dict(data)

    @pytest.mark.parametrize("skin", [float("nan"), float("inf")])
    def test_run_spec_non_finite_skin_rejected(self, skin):
        with pytest.raises(SpecError, match="skin must be finite"):
            RunSpec(skin=skin)

    def test_run_spec_conflicting_selectors(self):
        with pytest.raises(SpecError, match="hosts"):
            RunSpec(executor="thread", hosts=("h1", "h2"))

    def test_executor_names_are_the_executor_modules(self):
        from repro.parallel.executor import EXECUTOR_NAMES

        for name in EXECUTOR_NAMES:
            assert RunSpec(executor=name).executor == name
        with pytest.raises(SpecError, match="unknown executor") as ei:
            RunSpec(executor="threads")
        assert all(name in str(ei.value) for name in EXECUTOR_NAMES)


class TestRunSpec:
    def test_round_trip(self):
        run = RunSpec(
            solver=SolverSpec(mode="Opt-S", cache=False),
            workers=4, ranks=8, executor="thread", skin=0.5,
        )
        assert RunSpec.from_dict(run.to_dict()) == run
        assert RunSpec.from_dict(json.loads(run.canonical_json())) == run

    def test_hosts_round_trip(self):
        run = RunSpec(hosts=["a:1", "b:2"])
        again = RunSpec.from_dict(run.to_dict())
        assert again.hosts == ("a:1", "b:2")
        assert again == run

    @pytest.mark.parametrize("transport", ["tcp", "unix"])
    def test_a_pinned_transport_is_ignored(self, transport, tmp_path):
        """``transport`` (a field since dropped) is an unknown field like
        any other: the restart runs on the default pool and continues
        bitwise (executors never define physics)."""
        from repro.md.lattice import seeded_velocities
        from repro.runtime.session import restore_run

        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=7)
        seeded_velocities(system, 300.0, seed=7)
        run = RunSpec(workers=2, ranks=2)
        with run.build_simulation(system) as sim:
            sim.run(2)
            pinned = {**run.to_dict(), "transport": transport}
            save_checkpoint(sim, tmp_path / "a.ckpt", user_meta={"run_spec": pinned})
            sim.run(2)
            x, v = sim.system.x.copy(), sim.system.v.copy()
        ck = load_checkpoint(tmp_path / "a.ckpt")
        assert ck.run_spec().build_executor() == (None, 2)
        with restore_run(ck.run_spec(), ck) as resumed:
            resumed.run(2)
            assert np.array_equal(resumed.system.x, x)
            assert np.array_equal(resumed.system.v, v)

    @pytest.mark.parametrize("retired", ["fork", "spawn", "forkserver"])
    def test_a_pinned_start_method_is_refused(self, retired):
        """A start method is no executor name: such a pin is refused."""
        with pytest.raises(SpecError, match="unknown executor"):
            RunSpec.from_dict({**RunSpec(workers=2).to_dict(), "executor": retired})

    def test_a_restart_keeps_its_kernel(self, tmp_path):
        """A checkpoint names the backend that ran, so a default run
        restarts on it; one from before that pin, whose spec says
        ``backend: null``, was written when null meant numpy and
        continues bitwise like an uninterrupted numpy run."""
        restart_keeps_its_kernel(tmp_path, "tersoff")

    def test_an_sw_restart_keeps_its_kernel(self, tmp_path):
        """The same for SW, whose checkpoints before its compiled kernel
        carry no backend at all; and `repro run --potential sw` pins the
        kernel that ran, which a CLI restart runs again."""
        restart_keeps_its_kernel(tmp_path, "sw")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        flags = ["--potential", "sw", "--atoms", "64", "--steps", "2", "--checkpoint", "a.ckpt",
                 "--checkpoint-every", "2"]
        for extra in ([], ["--restart-from", "a.ckpt"]):
            out = subprocess.run([sys.executable, "-m", "repro", "run", *flags, *extra],
                                 cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
            assert out.returncode == 0, out.stderr
            assert f"backend {backends.get_default()}" in out.stdout
        ck = load_checkpoint(tmp_path / "a.ckpt")
        assert ck.meta["backend"] == ck.run_spec().solver.backend == backends.get_default()

    def test_from_args_covers_the_flag_family(self):
        args = argparse.Namespace(
            potential="tersoff", mode="Opt-S", backend=None,
            workers=2, ranks=4, executor="thread",
            hosts=None, skin=2.0,
        )
        run, _ = run_from_args(args)
        assert run.solver == SolverSpec(mode="Opt-S")
        assert (run.workers, run.ranks) == (2, 4)
        assert run.executor == "thread"
        assert run.skin == 2.0

    def test_from_args_defaults_on_sparse_namespace(self):
        assert run_from_args(argparse.Namespace())[0] == RunSpec()
        assert run_from_args(argparse.Namespace(skin=None))[0] == RunSpec()  # no --skin

    def test_from_args_splits_host_strings(self):
        run, _ = run_from_args(argparse.Namespace(hosts="a:1, b:2,"))
        assert run.hosts == ("a:1", "b:2")

    def test_with_overrides(self):
        run = RunSpec(workers=2, executor="thread")
        over = run.with_overrides(workers=4, executor=None)
        assert over.workers == 4
        assert over.executor is None
        assert over.solver == run.solver

    def test_build_simulation_matches_direct_construction(self):
        """A RunSpec-built simulation steps bitwise with a hand-wired
        one (the pre-runtime construction path)."""
        from repro.md.lattice import seeded_velocities
        from repro.md.simulation import Simulation

        spec = SolverSpec(mode="Opt-M")
        params = spec.build_params()
        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=7)
        seeded_velocities(system, 300.0, seed=7)

        run = RunSpec(solver=spec)
        sim_a = run.build_simulation(system.copy())
        sim_b = Simulation(
            system.copy(), spec.build(params=params),
            neighbor=NeighborSettings(cutoff=spec.cutoff(params), skin=1.0),
        )
        sim_a.run(3)
        sim_b.run(3)
        assert np.array_equal(sim_a.system.x, sim_b.system.x)
        assert np.array_equal(sim_a.system.v, sim_b.system.v)
