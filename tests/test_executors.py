"""EngineExecutor conformance: one contract, many implementations.

Every executor (serial, thread pool, fork/spawn process pool, tcp/unix
socket pool) must satisfy identical semantics — per-worker FIFO
ordering, host exceptions surfaced as :class:`WorkerFailure` carrying
the remote traceback, a dead worker failing its futures, idempotent
shutdown, and (for all but the wire executors) named shared arrays
visible on both sides — so the parallel engine's physics cannot depend
on which one is plugged in.
"""

import multiprocessing as mp
import os
import socket

import numpy as np
import pytest

from repro.parallel import transport
from repro.parallel.executor import (
    EXECUTOR_NAMES,
    EngineExecutor,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerFailure,
    make_executor,
)
from repro.parallel.transport import ClusterExecutor

HAVE_FORK = "fork" in mp.get_all_start_methods()


class EchoHost:
    """Minimal host exercising every conformance axis."""

    def __init__(self, arrays):
        self.arrays = arrays
        self.calls = 0

    def handle(self, cmd, payload):
        self.calls += 1
        if cmd == "echo":
            return (payload, self.calls)
        if cmd == "boom":
            raise ValueError("intentional kaboom")
        if cmd == "write":
            slot, value = payload
            self.arrays["data"][slot] = value
            return None
        if cmd == "read":
            return float(self.arrays["data"][payload])
        if cmd == "pid":
            return os.getpid()
        if cmd == "die":  # simulate a hard crash (no reply ever comes)
            os._exit(3)
        raise KeyError(cmd)


class EchoFactory:
    """Module-level factory: picklable, as the spawn pool requires."""

    def __call__(self, arrays):
        return EchoHost(arrays)


class ScratchFactory:
    """A factory that owns a warmed `Workspace`, like the potential bound
    into the engine's worker factory, and is its own host: the copy that
    arrived in the worker reports what it arrived with."""

    def __init__(self):
        from repro.core.pipeline import Workspace

        self.ws = Workspace()
        self.ws.buf("partial", (1 << 17, 3), np.float64)  # 3 MiB of scratch

    def __call__(self, arrays):
        return self

    def handle(self, cmd, payload):
        return self.ws.nbytes, self.ws.grow_events


# battery labels: an executor name, or the process pool pinned to one
# start method (an argument of the pool, so built as an instance)
EXECUTORS = ["serial", "thread", "spawn"] + (["fork"] if HAVE_FORK else []) + ["tcp", "unix"]
OUT_OF_PROCESS = [name for name in EXECUTORS if name not in ("serial", "thread")]


def pool(label, workers=2):
    if label in ("spawn", "fork"):
        return ProcessExecutor(workers, start_method=label)
    return make_executor(label, workers=workers)


@pytest.fixture(params=EXECUTORS)
def started(request):
    """(executor, caller-side views) for each implementation, started
    with two workers and one 4-slot shared array."""
    ex = pool(request.param)
    views = ex.start(EchoFactory(), {"data": ((4,), "float64")})
    yield ex, views
    ex.shutdown()


@pytest.fixture
def shared(started):
    """The conformance cases about arrays both sides see: wire
    executors have none by design (data travels in the messages)."""
    ex, views = started
    if getattr(ex, "wire_data_plane", False):
        pytest.skip("wire executors share no arrays")
    return ex, views


class TestConformance:
    def test_satisfies_protocol(self, started):
        ex, _ = started
        assert isinstance(ex, EngineExecutor)
        assert ex.workers == 2

    def test_views_shape_dtype_zeroed(self, started):
        _, views = started
        assert set(views) == {"data"}
        assert views["data"].shape == (4,) and views["data"].dtype == np.float64
        assert np.all(views["data"] == 0.0)

    def test_echo_roundtrip(self, started):
        ex, _ = started
        value, calls = ex.submit(0, "echo", {"k": [1, 2]}).result()
        assert value == {"k": [1, 2]}
        assert calls == 1

    def test_per_worker_fifo_ordering(self, started):
        """Commands execute in submission order even when the caller
        collects the futures in reverse."""
        ex, _ = started
        futs = [ex.submit(0, "echo", i) for i in range(5)]
        last_payload, last_calls = futs[-1].result()  # drains everything before it
        assert (last_payload, last_calls) == (4, 5)
        for i, fut in enumerate(futs):
            assert fut.done()
            assert fut.result() == (i, i + 1)

    def test_host_state_is_per_worker(self, started):
        ex, _ = started
        ex.submit(0, "echo").result()
        ex.submit(0, "echo").result()
        _, calls_w1 = ex.submit(1, "echo").result()
        assert calls_w1 == 1  # worker 1's host never saw worker 0's commands

    def test_shared_array_worker_to_caller(self, shared):
        ex, views = shared
        ex.submit(0, "write", (1, 4.5)).result()
        ex.submit(1, "write", (2, -7.25)).result()
        assert views["data"][1] == 4.5 and views["data"][2] == -7.25

    def test_shared_array_caller_to_worker(self, shared):
        ex, views = shared
        views["data"][3] = 9.125
        assert ex.submit(0, "read", 3).result() == 9.125
        assert ex.submit(1, "read", 3).result() == 9.125

    def test_host_exception_becomes_worker_failure(self, started):
        ex, _ = started
        fut = ex.submit(1, "boom")
        with pytest.raises(WorkerFailure, match="intentional kaboom") as exc_info:
            fut.result()
        assert exc_info.value.worker == 1
        assert "ValueError" in exc_info.value.remote_traceback
        # the host survives its own exception; the worker stays usable
        assert ex.submit(1, "echo", "still alive").result()[0] == "still alive"

    def test_exception_accessor(self, started):
        ex, _ = started
        exc = ex.submit(0, "boom").exception()
        assert isinstance(exc, WorkerFailure)

    def test_submit_after_shutdown_raises(self, started):
        ex, _ = started
        ex.shutdown()
        with pytest.raises(ExecutorError):
            ex.submit(0, "echo")

    def test_shutdown_idempotent(self, started):
        ex, _ = started
        ex.shutdown()
        ex.shutdown()

    def test_start_twice_raises(self, started):
        ex, _ = started
        with pytest.raises(ExecutorError):
            ex.start(EchoFactory(), {"data": ((4,), "float64")})


def _hang_up_worker(family, address, token, worker):
    """A cluster worker that connects and exits before ``__hello__``."""
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(address)
    sock.close()


class TestProcessSpecific:
    @pytest.mark.parametrize("method", ["spawn"] + (["fork"] if HAVE_FORK else []))
    def test_work_runs_out_of_process(self, method):
        ex = ProcessExecutor(1, start_method=method)
        try:
            ex.start(EchoFactory(), {"data": ((1,), "float64")})
            assert ex.submit(0, "pid").result() != os.getpid()
        finally:
            ex.shutdown()

    def test_scratch_does_not_travel_to_spawned_workers(self):
        """A `Workspace` pickles as a fresh arena: a warmed kernel sent
        to a spawn (or socket) worker carries no megabytes of scratch."""
        factory = ScratchFactory()
        assert factory.ws.nbytes == 3 << 20
        ex = ProcessExecutor(1, start_method="spawn")
        try:
            ex.start(factory, {"data": ((1,), "float64")})
            assert ex.submit(0, "scratch").result() == (0, 0)
        finally:
            ex.shutdown()
        assert factory.ws.nbytes == 3 << 20  # the sender keeps its own

    @pytest.mark.parametrize("name", OUT_OF_PROCESS)
    def test_dead_worker_fails_its_futures(self, name):
        ex = pool(name)
        try:
            ex.start(EchoFactory(), {"data": ((1,), "float64")})
            dead = ex.submit(0, "die")
            behind = ex.submit(0, "echo", "queued behind the crash")
            # wait for the exit: the next submit then always finds the
            # channel closed, instead of racing the worker's last moments
            ex._procs[0].join(timeout=30)
            assert not ex._procs[0].is_alive()
            with pytest.raises(WorkerFailure, match="worker process died"):
                dead.result()
            assert behind.done()  # fanned out with the head of the queue
            with pytest.raises(WorkerFailure, match="worker process died"):
                behind.result()
            # a later submit fails through its future, on every pool
            late = ex.submit(0, "echo", "never")
            with pytest.raises(WorkerFailure, match="worker process died"):
                late.result()
            # the other worker is unaffected
            assert ex.submit(1, "echo", "ok").result()[0] == "ok"
        finally:
            ex.shutdown()

    @pytest.mark.parametrize("kind", ["tcp", "unix"])
    def test_worker_dead_before_hello_fails_the_start(self, kind, monkeypatch):
        monkeypatch.setattr(transport, "_socket_worker_main", _hang_up_worker)
        ex = ClusterExecutor(2, transport=kind)
        with pytest.raises(ExecutorError, match="worker lost"):
            ex.start(EchoFactory(), {})
        # torn down from what had been opened: nothing left behind
        assert all(not p.is_alive() for p in ex._procs)
        assert ex._tmpdir is None or not os.path.exists(ex._tmpdir)
        with pytest.raises(ExecutorError):
            ex.submit(0, "echo")

    def test_serial_runs_in_process(self):
        ex = SerialExecutor(1)
        try:
            ex.start(EchoFactory(), {"data": ((1,), "float64")})
            assert ex.submit(0, "pid").result() == os.getpid()
        finally:
            ex.shutdown()

    def test_thread_runs_in_process(self):
        ex = ThreadExecutor(1)
        try:
            ex.start(EchoFactory(), {"data": ((1,), "float64")})
            assert ex.submit(0, "pid").result() == os.getpid()
        finally:
            ex.shutdown()


class TestMakeExecutor:
    def test_names(self):
        assert isinstance(make_executor("serial", workers=2), SerialExecutor)
        ex = make_executor("process", workers=2)
        assert isinstance(ex, ProcessExecutor)
        assert ex.start_method == ("fork" if HAVE_FORK else "spawn")
        assert isinstance(make_executor("thread", workers=2), ThreadExecutor)
        assert isinstance(make_executor(None, workers=2), ProcessExecutor)
        ex = make_executor("unix", workers=2)
        assert isinstance(ex, ClusterExecutor) and ex.transport == "unix"

    def test_every_listed_name_resolves(self):
        for name in EXECUTOR_NAMES:
            assert make_executor(name, workers=1).workers == 1

    def test_unknown_name_rejected(self):
        # a start method is an argument of ProcessExecutor, not a name
        for bad in ("threads", "fork", "spawn", "forkserver"):
            with pytest.raises(ExecutorError, match="unknown executor") as ei:
                make_executor(bad, workers=2)
            assert all(name in str(ei.value) for name in EXECUTOR_NAMES)

    def test_instance_passthrough(self):
        inst = SerialExecutor(3)
        assert make_executor(inst, workers=2) is inst

    def test_bad_worker_counts(self):
        with pytest.raises(ExecutorError):
            SerialExecutor(0)
        with pytest.raises(ExecutorError):
            ProcessExecutor(0)
        with pytest.raises(ExecutorError):
            ThreadExecutor(0)


class TestEngineAcrossExecutors:
    def test_forces_bitwise_identical(self):
        """The engine's physics must not depend on the executor."""
        from repro.core.tersoff.parameters import tersoff_si
        from repro.core.tersoff.production import TersoffProduction
        from repro.md.lattice import diamond_lattice, perturbed
        from repro.parallel.engine import ParallelEngine

        system = perturbed(diamond_lattice(2, 2, 2), 0.1, seed=13)

        def run(executor):
            pot = TersoffProduction(tersoff_si())
            with ParallelEngine(system.copy(), pot, workers=2, ranks=2,
                                executor=pool(executor)) as eng:
                step = eng.compute(system.x)
                return step.energy, step.forces.copy()

        results = [run(ex) for ex in EXECUTORS]
        e0, f0 = results[0]
        for energy, forces in results[1:]:
            assert energy == e0
            assert np.array_equal(forces, f0)
