"""Executor abstraction behind :class:`~repro.parallel.engine.ParallelEngine`.

The engine used to own its worker-pool plumbing (fork/spawn processes,
pipes, shared-memory lifecycle) directly.  This module factors that
plumbing behind one small, ``concurrent.futures``-shaped interface so
serial in-process execution and process pools with either start method
are interchangeable — the engine talks to an :class:`EngineExecutor`
and never to ``multiprocessing`` itself.

The protocol (three methods):

- ``start(host_factory, array_specs)`` — allocate the named shared
  arrays, stand up ``workers`` hosts (``host_factory(arrays)`` builds
  one from its side's views), and return the caller-side views.
- ``submit(worker, cmd, payload)`` — dispatch one command to one
  worker's host; returns a :class:`concurrent.futures.Future` whose
  ``result()`` is the host's return value, or raises
  :class:`WorkerFailure` carrying the remote traceback.
- ``shutdown()`` — tear everything down; idempotent, also runs via a
  ``weakref.finalize`` safety net so dropped executors never leak
  processes or ``/dev/shm`` segments.

Four implementations:

- :class:`SerialExecutor` — hosts live in this process, ``submit``
  executes synchronously and returns an already-resolved future.  No
  shared memory, no pickling requirements; this is also what makes the
  engine runnable where ``multiprocessing`` is unavailable or unwanted.
- :class:`ThreadExecutor` — one persistent thread per worker, hosts
  sharing the process's arrays by reference.  Useful when the kernel
  releases the GIL (the compiled C backend does): rank evaluations then
  overlap without any process or serialization cost.
- :class:`ProcessExecutor` — one process per worker (``fork`` or
  ``spawn``), duplex pipes for control messages, and
  ``multiprocessing.shared_memory`` for the named arrays, so bulk data
  never crosses a pipe.  Futures are lazy: replies are drained from the
  pipe in FIFO order when ``result()`` is first called.
- :class:`~repro.parallel.transport.ClusterExecutor` — workers behind
  framed TCP/unix sockets (possibly on other hosts); it additionally
  sets ``wire_data_plane = True``, telling the engine to ship only
  ghost positions and owned-force slabs instead of sharing arrays.

Ordering guarantee (both implementations): commands submitted to the
same worker execute in submission order; there is no cross-worker
ordering.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
import uuid
import weakref
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Mapping, Protocol, runtime_checkable

import numpy as np

#: array_specs value: (shape tuple, numpy dtype string)
ArraySpec = tuple[tuple[int, ...], str]


class ExecutorError(RuntimeError):
    """The executor is unusable (bad configuration, not started, or shut down)."""


class WorkerFailure(RuntimeError):
    """A worker's host raised (or its process died); carries the remote traceback."""

    def __init__(self, worker: int, remote_traceback: str):
        self.worker = worker
        self.remote_traceback = remote_traceback
        super().__init__(
            f"worker {worker} failed\n--- remote traceback ---\n{remote_traceback}"
        )


@runtime_checkable
class EngineExecutor(Protocol):
    """What the parallel engine requires of an execution backend."""

    workers: int

    def start(
        self,
        host_factory: Callable[[Mapping[str, np.ndarray]], object],
        array_specs: Mapping[str, ArraySpec],
    ) -> dict[str, np.ndarray]: ...

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future: ...

    def shutdown(self) -> None: ...


def make_executor(
    spec: "str | EngineExecutor | None",
    *,
    workers: int,
    start_method: str | None = None,
) -> EngineExecutor:
    """Resolve an executor spec (name, instance, or ``None``).

    ``None`` keeps the historical default: a process pool using ``fork``
    where available, else ``spawn`` — ``start_method`` (the engine's
    back-compat parameter) selects the method explicitly.  Names:
    ``"serial"``, ``"thread"``, ``"fork"``, ``"spawn"``,
    ``"forkserver"``, ``"process"`` (= default start method), and
    ``"tcp"`` / ``"unix"`` (a spawned socket-transport cluster pool,
    see :class:`~repro.parallel.transport.ClusterExecutor`).
    """
    if spec is not None and not isinstance(spec, str):
        if start_method is not None:
            raise ExecutorError("pass start_method only with a named executor, not an instance")
        return spec
    if spec is None or spec == "process":
        return ProcessExecutor(workers, start_method=start_method)
    if start_method is not None and spec != start_method:
        raise ExecutorError(
            f"conflicting executor selection: executor={spec!r} vs start_method={start_method!r}"
        )
    if spec == "serial":
        return SerialExecutor(workers)
    if spec == "thread":
        return ThreadExecutor(workers)
    if spec in ("tcp", "unix"):
        from repro.parallel.transport import ClusterExecutor  # avoid import cycle

        return ClusterExecutor(workers, transport=spec)
    if spec in mp.get_all_start_methods():
        return ProcessExecutor(workers, start_method=spec)
    raise ExecutorError(
        f"unknown executor {spec!r}; expected 'serial', 'thread', 'process', "
        f"'tcp', 'unix', or a start method ({', '.join(mp.get_all_start_methods())})"
    )


# ---------------------------------------------------------------------------
# serial
# ---------------------------------------------------------------------------


class SerialExecutor:
    """In-process execution: ``workers`` hosts served synchronously.

    ``submit`` runs the command immediately on the calling thread and
    returns an already-resolved future, so the engine's dispatch loop is
    exactly a sequential loop over workers — bitwise the same reduction
    inputs as the process executors produce.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ExecutorError("need at least one worker")
        self.workers = int(workers)
        self._hosts: list | None = None

    def start(self, host_factory, array_specs):
        if self._hosts is not None:
            raise ExecutorError("executor already started")
        arrays = {
            name: np.zeros(shape, dtype=np.dtype(dtype))
            for name, (shape, dtype) in array_specs.items()
        }
        self._hosts = [host_factory(arrays) for _ in range(self.workers)]
        return arrays

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future:
        if self._hosts is None:
            raise ExecutorError("executor not started (or shut down)")
        fut: Future = Future()
        try:
            fut.set_result(self._hosts[worker].handle(cmd, payload))
        except Exception:
            fut.set_exception(WorkerFailure(worker, traceback.format_exc()))
        return fut

    def shutdown(self) -> None:
        self._hosts = None


# ---------------------------------------------------------------------------
# thread pool
# ---------------------------------------------------------------------------


class ThreadExecutor:
    """One persistent thread per worker, arrays shared by reference.

    Each worker gets its own single-thread
    :class:`~concurrent.futures.ThreadPoolExecutor`, which preserves the
    per-worker FIFO ordering guarantee while letting different workers'
    rank evaluations overlap.  Real overlap requires the kernel to
    release the GIL — the compiled C Tersoff backend does (its ctypes
    call drops the GIL for the whole force loop), so
    ``repro run --workers N --executor thread --backend compiled`` scales
    without any process, pickling or shared-memory cost.  With the
    pure-numpy backend the threads mostly serialize on the GIL; the
    physics is bitwise identical either way (each rank still owns a
    private potential copy, and the host reduction is rank-ordered).
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ExecutorError("need at least one worker")
        self.workers = int(workers)
        self._hosts: list | None = None
        self._pools: list | None = None

    def start(self, host_factory, array_specs):
        from concurrent.futures import ThreadPoolExecutor

        if self._hosts is not None:
            raise ExecutorError("executor already started")
        arrays = {
            name: np.zeros(shape, dtype=np.dtype(dtype))
            for name, (shape, dtype) in array_specs.items()
        }
        self._hosts = [host_factory(arrays) for _ in range(self.workers)]
        self._pools = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"repro-exec-{w}")
            for w in range(self.workers)
        ]
        return arrays

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future:
        if self._pools is None:
            raise ExecutorError("executor not started (or shut down)")
        host = self._hosts[worker]

        def call():
            try:
                return host.handle(cmd, payload)
            except Exception:
                raise WorkerFailure(worker, traceback.format_exc()) from None

        return self._pools[worker].submit(call)

    def shutdown(self) -> None:
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=True)
        self._pools = None
        self._hosts = None


# ---------------------------------------------------------------------------
# process pool
# ---------------------------------------------------------------------------


def _process_worker_main(conn, host_factory, shm_layout) -> None:
    """Worker loop: attach shared arrays, build the host, serve commands.

    ``shm_layout`` is ``[(array_name, shm_name, shape, dtype_str), ...]``.
    The host side owns the segments; workers only attach and close.
    """
    segments = []
    arrays = {}
    for array_name, shm_name, shape, dtype in shm_layout:
        shm = shared_memory.SharedMemory(name=shm_name)
        segments.append(shm)
        arrays[array_name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    host = host_factory(arrays)
    try:
        while True:
            cmd, payload = conn.recv()
            if cmd == "__exit__":
                break
            try:
                conn.send(("ok", host.handle(cmd, payload)))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        close = getattr(host, "close", None)
        if close is not None:
            close()
        # drop every view into the segments before closing them: a live
        # exported buffer would make SharedMemory.close() raise
        del host, close, arrays
        for shm in segments:
            shm.close()


def _cleanup_pool(procs, conns, shms) -> None:
    """Finalizer: stop workers, close pipes, unlink shared memory."""
    for conn in conns:
        try:
            conn.send(("__exit__", None))
        except (OSError, ValueError, BrokenPipeError):
            pass
    for p in procs:
        p.join(timeout=3.0)
        if p.is_alive():  # pragma: no cover - stuck worker safety net
            p.terminate()
            p.join(timeout=1.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
    for shm in shms:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class _ChannelFuture(Future):
    """Future bound to one worker's reply channel.

    Replies arrive strictly in submission order per worker, so
    ``result()`` drains the worker's pending queue up to and including
    this future.  Earlier futures resolved along the way become ``done``
    without anyone waiting on them — the engine is free to collect
    results in any order.  Any executor with a ``_drain_until(worker,
    fut)`` method can hand these out (the process pool and the socket
    cluster pool both do).
    """

    def __init__(self, executor, worker: int):
        super().__init__()
        self._executor = executor
        self._worker = worker

    def result(self, timeout=None):
        if not self.done():
            self._executor._drain_until(self._worker, self)
        return super().result(timeout)

    def exception(self, timeout=None):
        if not self.done():
            self._executor._drain_until(self._worker, self)
        return super().exception(timeout)


@dataclass
class _Segment:
    name: str
    shm: shared_memory.SharedMemory
    shape: tuple
    dtype: str


class ProcessExecutor:
    """One persistent process per worker, shared-memory data plane.

    Parameters
    ----------
    workers:
        Pool size.
    start_method:
        ``"fork"``, ``"spawn"`` or ``"forkserver"``; default is fork
        where the platform offers it (nothing pickled), else spawn (the
        host factory and everything it captures must then pickle).
    """

    def __init__(self, workers: int, start_method: str | None = None):
        if workers < 1:
            raise ExecutorError("need at least one worker")
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        if start_method not in mp.get_all_start_methods():
            raise ExecutorError(
                f"start method {start_method!r} not available on this platform "
                f"(have: {', '.join(mp.get_all_start_methods())})"
            )
        self.workers = int(workers)
        self.start_method = start_method
        self._conns: list = []
        self._procs: list = []
        self._pending: list[deque] = []
        self._segments: list[_Segment] = []
        self._started = False
        self._shutdown = False
        self._finalizer = None

    def start(self, host_factory, array_specs):
        if self._started:
            raise ExecutorError("executor already started")
        ctx = mp.get_context(self.start_method)
        token = uuid.uuid4().hex[:12]
        views: dict[str, np.ndarray] = {}
        try:
            for array_name, (shape, dtype) in array_specs.items():
                nbytes = max(int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize, 8)
                shm = shared_memory.SharedMemory(
                    create=True, size=nbytes,
                    name=f"repro_exec_{os.getpid()}_{token}_{array_name}")
                self._segments.append(_Segment(array_name, shm, tuple(shape), str(dtype)))
                view = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf)
                view[...] = 0
                views[array_name] = view
            layout = [(s.name, s.shm.name, s.shape, s.dtype) for s in self._segments]
            for w in range(self.workers):
                host_conn, worker_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_process_worker_main,
                    args=(worker_conn, host_factory, layout),
                    daemon=True,
                    name=f"repro-exec-{w}",
                )
                proc.start()
                worker_conn.close()
                self._conns.append(host_conn)
                self._procs.append(proc)
                self._pending.append(deque())
        except Exception:
            _cleanup_pool(self._procs, self._conns, [s.shm for s in self._segments])
            raise
        self._started = True
        self._finalizer = weakref.finalize(
            self, _cleanup_pool, self._procs, self._conns,
            [s.shm for s in self._segments])
        return views

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future:
        if not self._started or self._shutdown:
            raise ExecutorError("executor not started (or shut down)")
        fut = _ChannelFuture(self, worker)
        try:
            self._conns[worker].send((cmd, payload))
        except (BrokenPipeError, ConnectionResetError) as exc:
            # the worker is already gone: nothing was sent, so no reply
            # will ever pair with this future — fail it here, and what
            # is still queued ahead of it fails when it is drained
            fut.set_exception(WorkerFailure(worker, f"worker process died: {exc!r}"))
            return fut
        self._pending[worker].append(fut)
        return fut

    def _drain_until(self, worker: int, fut: _ChannelFuture) -> None:
        """Receive replies (FIFO) until `fut` is resolved."""
        pending = self._pending[worker]
        while not fut.done():
            if not pending:  # pragma: no cover - internal invariant
                raise ExecutorError("future already drained but not done")
            head = pending.popleft()
            try:
                status, value = self._conns[worker].recv()
            except (EOFError, ConnectionResetError) as exc:
                failure = WorkerFailure(worker, f"worker process died: {exc!r}")
                head.set_exception(failure)
                # everything queued behind a dead worker fails too
                while pending:
                    pending.popleft().set_exception(
                        WorkerFailure(worker, f"worker process died: {exc!r}"))
                return
            if status == "error":
                head.set_exception(WorkerFailure(worker, value))
            else:
                head.set_result(value)

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        if self._finalizer is not None:
            self._finalizer.detach()
        _cleanup_pool(self._procs, self._conns, [s.shm for s in self._segments])
