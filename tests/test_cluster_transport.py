"""The cluster executor: real inter-process halo exchange over sockets.

Three contracts under test (executor conformance — FIFO futures,
remote tracebacks, dead workers, shutdown — is the shared battery in
``tests/test_executors.py``, which runs over ``tcp`` and ``unix`` too):

1. **What only the wire has** — every worker in a separate process
   behind a framed socket, payload arrays bit-exact through it, and a
   ``repro worker`` listener that outlives a stray or broken session.
2. **Bitwise physics over the wire** — a 2-rank engine on localhost TCP
   reproduces the serial executor's energy, forces, and virial to the
   byte, across precisions x cache on/off, through multiple
   redecomposition boundaries, and through a checkpoint/restart cycle.
3. **Crash containment** — SIGKILL of one rank surfaces as a typed
   failure, the engine closes, and nothing is orphaned: no socket
   files, no tmpdirs, no worker processes, no shared-memory segments.
"""

from __future__ import annotations

import glob
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import needs_compiled
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.md.integrate import Langevin
from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities
from repro.md.neighbor import NeighborSettings
from repro.md.simulation import Simulation
from repro.parallel.engine import ParallelEngine, WorkerCrash
from repro.parallel.executor import ExecutorError, WorkerFailure
from repro.parallel.transport import ClusterExecutor, encode_message, run_worker
from repro.perf.network import AlphaBetaFit, fit_network_model
from repro.state import load_checkpoint, restore_simulation, save_checkpoint
from test_executors import EchoFactory  # its "echo" replies (payload, call count)

SKIN = 1.0


def _shm_segments():
    return set(glob.glob("/dev/shm/repro_exec*"))


# ---------------------------------------------------------------------------
# 1. what only the wire has
# ---------------------------------------------------------------------------


@pytest.fixture(params=["tcp", "unix"])
def cluster2(request):
    ex = ClusterExecutor(2, transport=request.param)
    ex.start(EchoFactory(), {"scratch": ((4,), "float64")})
    yield ex
    ex.shutdown()


class TestClusterExecutorConformance:
    def test_workers_run_in_other_processes(self, cluster2):
        pids = {cluster2.submit(w, "pid", None).result() for w in range(2)}
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_arrays_roundtrip_bitwise(self, cluster2):
        arr = np.array([np.nan, -0.0, 5e-324, 1.0 / 3.0])
        out, _ = cluster2.submit(0, "echo", arr).result()
        assert out.tobytes() == arr.tobytes()

    def test_rejects_bad_configuration(self):
        with pytest.raises(ExecutorError):
            ClusterExecutor(0)
        with pytest.raises(ExecutorError):
            ClusterExecutor(2, transport="carrier-pigeon")
        with pytest.raises(ExecutorError):
            ClusterExecutor(3, hosts=["a:1", "b:2"])  # count disagrees


# ---------------------------------------------------------------------------
# 2. bitwise physics over the wire
# ---------------------------------------------------------------------------


def drift_with_kicks(system, rng_seed=9):
    """Positions with >=3 redecomposition boundaries after the first:
    tiny jitter punctuated by one >skin/2 kick per boundary."""
    rng = np.random.default_rng(rng_seed)
    xs = [system.x.copy()]
    for atom in (7, 23, 41):
        xs.append(xs[-1] + rng.normal(scale=1e-3, size=xs[-1].shape))
        kicked = xs[-1].copy()
        kicked[atom] += np.array([0.6, 0.0, 0.0])  # > skin/2 = 0.5
        xs.append(kicked)
    xs.append(xs[-1] + rng.normal(scale=1e-3, size=xs[-1].shape))
    return xs


def run_engine(executor, precision, cache, xs, system):
    pot = TersoffProduction(tersoff_si(), precision=precision, cache=cache)
    out = []
    redecompositions = 0
    with ParallelEngine(system.copy(), pot, workers=2, ranks=2,
                        executor=executor) as eng:
        for x in xs:
            step = eng.compute(x)
            out.append((step.energy, step.virial, step.forces.copy()))
            redecompositions += step.redecomposed
    return out, redecompositions


class TestClusterEngineBitwise:
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    def test_serial_vs_localhost_tcp(self, precision, cache):
        system = perturbed(diamond_lattice(3, 3, 3), 0.05, seed=3)
        xs = drift_with_kicks(system)
        ref, n_ref = run_engine("serial", precision, cache, xs, system)
        got, n_got = run_engine(
            ClusterExecutor(2, transport="tcp"), precision, cache, xs, system)
        assert n_got == n_ref >= 4  # initial decomposition + 3 kicks
        for (e0, v0, f0), (e1, v1, f1) in zip(ref, got):
            assert e1 == e0
            assert v1 == v0
            assert f1.tobytes() == f0.tobytes()

    def test_wire_traffic_is_measured_not_modeled(self):
        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        pot = TersoffProduction(tersoff_si())
        with ParallelEngine(system, pot, workers=2, ranks=2,
                            executor=ClusterExecutor(2, transport="tcp")) as eng:
            step = eng.compute(system.x)
            # real socket bytes moved in both directions, framing included
            assert step.bytes_wire is not None
            sent, received = step.bytes_wire
            assert sent > step.bytes_forward > 0
            assert received > 0
            # per-step CommRecord carries a measured (wall-clock) time
            assert step.comm is not None
            assert step.comm.time_s > 0.0
            assert eng.comm_total.messages > 0
            assert eng.comm_total.time_s > 0.0
            # enough samples to fit a measured fabric model
            net = eng.calibrated_network()
            assert net.bandwidth_Bps > 0.0
            assert net.latency_s >= 0.0


# restart battery: same regime as tests/test_state_restart.py (rebuilds
# on both sides of the checkpoint), but the ranks live behind sockets
TEMP = 1500.0
DT = 0.002
RESTART_SKIN = 0.1
N_STEPS = 12
K_STEPS = 5


def build_sim(si_params, *, workers=None, ranks=None, executor=None):
    s = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
    seeded_velocities(s, TEMP, seed=11)
    pot = TersoffProduction(si_params)
    return Simulation(
        s,
        pot,
        dt=DT,
        thermostat=Langevin(temperature=TEMP, damping=0.1, dt=DT, seed=7),
        neighbor=NeighborSettings(cutoff=pot.cutoff, skin=RESTART_SKIN, full=True),
        workers=workers,
        ranks=ranks,
        executor=executor,
    )


def assert_bitwise_equal(sim, truth):
    __tracebackhide__ = True
    for name in ("x", "v", "f"):
        a = getattr(sim.system, name)
        b = getattr(truth.system, name)
        assert a.tobytes() == b.tobytes(), f"{name} differs"
    assert sim.last_result.energy == truth.last_result.energy
    assert sim.step_index == truth.step_index
    if sim.thermostat is not None:
        assert (
            sim.thermostat.rng.bit_generator.state
            == truth.thermostat.rng.bit_generator.state
        )


class TestClusterRestartEquivalence:
    def test_restart_over_sockets_is_bitwise(self, si_params, tmp_path):
        # truth: the default shared-memory engine, straight through
        with build_sim(si_params, workers=2, ranks=2) as truth:
            truth.run(N_STEPS)

            # run K steps with ranks behind TCP sockets, checkpoint...
            with build_sim(si_params, workers=2, ranks=2, executor="tcp") as sim:
                sim.run(K_STEPS)
                save_checkpoint(sim, tmp_path / "k.ckpt")

            # ...and resume over sockets too: same trajectory, same bits
            ck = load_checkpoint(tmp_path / "k.ckpt")
            with restore_simulation(
                ck, TersoffProduction(si_params), workers=2, executor="tcp"
            ) as resumed:
                resumed.run(N_STEPS - K_STEPS)
                assert_bitwise_equal(resumed, truth)


class TestHostsMode:
    def test_prestarted_workers_serve_the_engine(self, tmp_path):
        # two `repro worker` listeners on unix sockets, one session each
        paths = [str(tmp_path / f"w{i}.sock") for i in range(2)]
        threads = []
        for path in paths:
            ready = threading.Event()
            t = threading.Thread(
                target=run_worker,
                kwargs={"unix": path, "once": True,
                        "_ready": lambda addr, ev=ready: ev.set()},
                daemon=True,
            )
            t.start()
            threads.append((t, ready))
        for _, ready in threads:
            assert ready.wait(10.0), "worker never bound its socket"

        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        with ParallelEngine(system.copy(), TersoffProduction(tersoff_si()),
                            workers=2, ranks=2, executor="serial") as eng:
            ref = eng.compute(system.x)
            ref_energy, ref_forces = ref.energy, ref.forces.copy()

        ex = ClusterExecutor(hosts=paths)
        with ParallelEngine(system.copy(), TersoffProduction(tersoff_si()),
                            workers=2, ranks=2, executor=ex) as eng:
            step = eng.compute(system.x)
            assert step.energy == ref_energy
            assert step.forces.tobytes() == ref_forces.tobytes()

        for t, _ in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        for path in paths:  # `once` sessions unlink their sockets
            assert not os.path.exists(path)

    def test_stray_sessions_are_rejected_and_the_listener_survives(self, tmp_path):
        """Well-framed messages that are not a session (a bare string,
        a non-``__init__`` command) abort that session with a printed
        line; the same ``repro worker`` then serves a real engine."""
        path = str(tmp_path / "w.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--unix", path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert "listening on" in proc.stdout.readline()
            for stray in ("nope", ("step", None)):
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                    raw.connect(path)
                    raw.sendall(encode_message(stray))
                    assert raw.recv(1) == b""  # dropped, no reply
                assert "session aborted" in proc.stdout.readline()
            system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
            energies = []
            for executor in ("serial", ClusterExecutor(hosts=[path])):
                with ParallelEngine(system.copy(), TersoffProduction(tersoff_si()),
                                    workers=1, ranks=1, executor=executor) as eng:
                    energies.append(eng.compute(system.x).energy)
            assert energies[1] == energies[0]
            assert proc.poll() is None  # still listening
        finally:
            proc.terminate()
            _, err = proc.communicate(timeout=10)
        assert "Traceback" not in err

    @needs_compiled
    def test_a_rank_host_without_the_extension_falls_back_loudly(self, tmp_path):
        """A no-flag run resolves compiled on its host; a `repro worker`
        whose host cannot load the extension (REPRO_NO_CEXT there) runs
        its ranks on numpy and says so, instead of failing the step."""
        rank_host_falls_back(tmp_path, lambda **kw: TersoffProduction(tersoff_si(), **kw))

    @needs_compiled
    def test_an_sw_rank_host_without_the_extension_falls_back_loudly(self, tmp_path):
        from repro.core.sw import StillingerWeberProduction, sw_silicon

        rank_host_falls_back(tmp_path, lambda **kw: StillingerWeberProduction(sw_silicon(), **kw))


def rank_host_falls_back(tmp_path, make):
    """One rank on a REPRO_NO_CEXT `repro worker` matches a serial numpy
    engine bit for bit, and the worker warns once that it fell back."""
    path = str(tmp_path / "w.sock")
    env = dict(os.environ, REPRO_NO_CEXT="1")
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--unix", path, "--once"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert "listening on" in proc.stdout.readline()
        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        results = []
        for pot, executor in ((make(), ClusterExecutor(hosts=[path])),
                              (make(backend="numpy"), "serial")):
            with ParallelEngine(system.copy(), pot, workers=1, ranks=1, executor=executor) as eng:
                step = eng.compute(system.x)
                results.append((step.energy, step.forces.tobytes()))
        assert results[0] == results[1]
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    assert err.count("compute backend 'compiled' unavailable") == 1
    assert "falling back to 'numpy'" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# 3. crash containment
# ---------------------------------------------------------------------------


class TestCrashContainment:
    def test_kill_one_rank_is_contained(self):
        shm_before = _shm_segments()
        ex = ClusterExecutor(2, transport="unix")
        ex.start(EchoFactory(), {})
        tmpdir = ex._tmpdir
        assert tmpdir is not None
        assert os.path.exists(os.path.join(tmpdir, "cluster.sock"))

        victim = ex._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)

        # the dead rank surfaces as a typed failure (at send or receive)
        with pytest.raises(WorkerFailure):
            ex.submit(0, "echo", 1).result()
        # the surviving rank keeps serving
        assert ex.submit(1, "echo", "ok").result()[0] == "ok"

        ex.shutdown()
        assert not os.path.exists(tmpdir), "orphan socket dir after shutdown"
        assert all(not p.is_alive() for p in ex._procs)
        assert _shm_segments() == shm_before, "orphan shared memory"

    def test_engine_closes_and_cleans_after_worker_death(self):
        shm_before = _shm_segments()
        ex = ClusterExecutor(2, transport="unix")
        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        eng = ParallelEngine(system, TersoffProduction(tersoff_si()),
                             workers=2, ranks=2, executor=ex)
        eng.compute(system.x)
        tmpdir = ex._tmpdir

        os.kill(ex._procs[1].pid, signal.SIGKILL)
        ex._procs[1].join(timeout=10.0)
        with pytest.raises(WorkerCrash):
            eng.compute(system.x)

        assert eng.closed
        assert not os.path.exists(tmpdir)
        assert all(not p.is_alive() for p in ex._procs)
        assert _shm_segments() == shm_before


# ---------------------------------------------------------------------------
# calibration: measured alpha-beta fabric models
# ---------------------------------------------------------------------------


class TestNetworkFit:
    def test_exact_alpha_beta_recovery(self):
        alpha, bandwidth = 2e-5, 5e8
        samples = [(n, alpha + n / bandwidth) for n in (1e3, 1e5, 1e6)]
        net = fit_network_model(samples)
        assert net.latency_s == pytest.approx(alpha, rel=1e-6)
        assert net.bandwidth_Bps == pytest.approx(bandwidth, rel=1e-6)

    def test_single_size_degrades_to_throughput(self):
        net = fit_network_model([(1000.0, 1e-3)])
        assert net.latency_s == 0.0
        assert net.bandwidth_Bps == pytest.approx(1e6)

    def test_rejects_unusable_samples(self):
        with pytest.raises(ValueError):
            fit_network_model([(100.0, 0.0), (200.0, -1.0)])

    def test_running_fit_is_the_least_squares_fit(self):
        """The engine keeps the fit's sufficient statistics, one
        ``add`` per step, instead of the samples: same model as the
        all-at-once least-squares solve."""
        alpha, bandwidth = 2e-5, 5e8
        rng = np.random.default_rng(5)
        cases = [
            ([(n, alpha + n / bandwidth) for n in (1e3, 1e5, 1e6)], 1e-12),
            ([(1000.0, 1e-3)], 1e-12),
            # halo traffic: thousands of near-equal sizes, noisy times
            ([(3_000_000 + 24 * int(k), 1e-3 + 3e-10 * 24 * int(k) + abs(rng.normal(0, 1e-6)))
              for k in rng.integers(0, 400, size=4000)], 1e-9),
        ]
        for samples, rel in cases:
            fit = AlphaBetaFit()
            for nbytes, seconds in samples:
                fit.add(nbytes, seconds)
            nb = np.array([s[0] for s in samples], dtype=np.float64)
            t = np.array([s[1] for s in samples], dtype=np.float64)
            if np.ptp(nb) > 0.0:
                (a_ref, b_ref), *_ = np.linalg.lstsq(
                    np.stack([np.ones_like(nb), nb], axis=1), t, rcond=None)
            else:
                a_ref, b_ref = 0.0, t.sum() / nb.sum()
            net = fit.model()
            assert net.latency_s == pytest.approx(max(a_ref, 0.0), rel=rel, abs=1e-18)
            assert net.bandwidth_Bps == pytest.approx(1.0 / b_ref, rel=rel)
            assert fit_network_model(samples) == net

    def test_calibrate_measures_a_positive_fabric(self):
        ex = ClusterExecutor(1, transport="unix")
        ex.start(EchoFactory(), {})
        try:
            net = ex.calibrate(sizes=(1 << 10, 1 << 14), repeats=2)
            assert net.latency_s >= 0.0
            assert net.bandwidth_Bps > 0.0
            assert net.name == "measured-unix"
        finally:
            ex.shutdown()
