"""Executor abstraction behind :class:`~repro.parallel.engine.ParallelEngine`.

The engine talks to an :class:`EngineExecutor` and never to
``multiprocessing`` or sockets itself.  The protocol (three methods):

- ``start(host_factory, array_specs)`` — allocate the named arrays,
  stand up ``workers`` hosts (``host_factory(arrays)`` builds one from
  its side's views), and return the caller-side views.
- ``submit(worker, cmd, payload)`` — dispatch one command to one
  worker's host; returns a :class:`concurrent.futures.Future` whose
  ``result()`` is the host's return value, or raises
  :class:`WorkerFailure` carrying the remote traceback.  A dead worker
  fails the returned future the same way; ``submit`` itself raises
  only :class:`ExecutorError` (not started / shut down).
- ``shutdown()`` — tear everything down; idempotent, also runs via a
  ``weakref.finalize`` safety net so dropped executors never leak
  processes, ``/dev/shm`` segments or socket files.

Implementations, by name (:data:`EXECUTOR_NAMES`): :class:`SerialExecutor`,
:class:`ThreadExecutor`, :class:`ProcessExecutor` (``"process"``; its
start method is an argument of the pool, derived from the platform, not
a name) and, for ``"tcp"`` / ``"unix"``,
:class:`~repro.parallel.transport.ClusterExecutor`.  The two
out-of-process pools are one :class:`_ChannelPool` (pipelined
``submit``, lazy FIFO futures, dead-peer fan-out, one teardown) plus
:func:`_serve`, the worker-side command loop, over a channel each
supplies.  Ordering guarantee (every implementation): commands
submitted to the same worker execute in submission order; there is no
cross-worker ordering.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
import uuid
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from multiprocessing import shared_memory
from typing import Callable, Mapping, Protocol, runtime_checkable

import numpy as np

#: array_specs value: (shape tuple, numpy dtype string)
ArraySpec = tuple[tuple[int, ...], str]

#: Every name :func:`make_executor` resolves — the one list `RunSpec`
#: validation and the CLI's ``--executor`` choices read.
EXECUTOR_NAMES = ("serial", "thread", "process", "tcp", "unix")


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


class PeerGone(RuntimeError):
    """The other end of a worker channel is gone, or what it sent is unusable."""


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


def make_executor(spec: "str | EngineExecutor | None", *, workers: int) -> EngineExecutor:
    """Resolve an executor spec: one of :data:`EXECUTOR_NAMES`, a ready
    instance (returned as is), or ``None`` (= ``"process"``: a process
    pool using ``fork`` where available, else ``spawn``)."""
    if spec is not None and not isinstance(spec, str):
        return spec
    if spec is None or spec == "process":
        return ProcessExecutor(workers)
    if spec == "serial":
        return SerialExecutor(workers)
    if spec == "thread":
        return ThreadExecutor(workers)
    if spec in ("tcp", "unix"):
        from repro.parallel.transport import ClusterExecutor  # avoid import cycle

        return ClusterExecutor(workers, transport=spec)
    raise ExecutorError(
        f"unknown executor {spec!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
    )


def _local_arrays(array_specs: Mapping[str, ArraySpec]) -> dict[str, np.ndarray]:
    """Zeroed process-local arrays for `array_specs`."""
    return {
        name: np.zeros(tuple(shape), dtype=np.dtype(dtype))
        for name, (shape, dtype) in array_specs.items()
    }


# ---------------------------------------------------------------------------
# in-process: serial and thread
# ---------------------------------------------------------------------------


class _LocalExecutor:
    """Hosts living in this process, sharing plain arrays by reference."""

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ExecutorError("need at least one worker")
        self.workers = int(workers)
        self._hosts: list | None = None

    def start(self, host_factory, array_specs):
        if self._hosts is not None:
            raise ExecutorError("executor already started")
        arrays = _local_arrays(array_specs)
        self._hosts = [host_factory(arrays) for _ in range(self.workers)]
        return arrays

    def _call(self, worker: int, cmd: str, payload: object):
        if self._hosts is None:
            raise ExecutorError("executor not started (or shut down)")
        try:
            return self._hosts[worker].handle(cmd, payload)
        except Exception:
            raise WorkerFailure(worker, traceback.format_exc()) from None

    def shutdown(self) -> None:
        self._hosts = None


class SerialExecutor(_LocalExecutor):
    """In-process execution: ``workers`` hosts served synchronously.

    ``submit`` runs the command immediately on the calling thread and
    returns an already-resolved future, so the engine's dispatch loop is
    exactly a sequential loop over workers — bitwise the same reduction
    inputs as the process executors produce.
    """

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(self._call(worker, cmd, payload))
        except WorkerFailure as exc:
            fut.set_exception(exc)
        return fut


class ThreadExecutor(_LocalExecutor):
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
        super().__init__(workers)
        self._pools: list = []

    def start(self, host_factory, array_specs):
        arrays = super().start(host_factory, array_specs)
        self._pools = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"repro-exec-{w}")
            for w in range(self.workers)
        ]
        return arrays

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future:
        if self._hosts is None:
            raise ExecutorError("executor not started (or shut down)")
        return self._pools[worker].submit(self._call, worker, cmd, payload)

    def shutdown(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        self._pools = []
        super().shutdown()


# ---------------------------------------------------------------------------
# out-of-process: workers behind reply channels — anything with
# ``send(obj)``, ``recv()`` and ``close()`` whose send/recv raise PeerGone
# (_PipeChannel here, transport.WireChannel for framed sockets)
# ---------------------------------------------------------------------------


def _message(msg) -> tuple:
    """`msg` as the ``(kind, body)`` pair every channel message is."""
    if not (isinstance(msg, tuple) and len(msg) == 2 and isinstance(msg[0], str)):
        raise PeerGone(f"peer sent a {type(msg).__name__}, not a (kind, body) message")
    return msg


def _serve(channel, host) -> None:
    """Worker side of a channel: ``recv → handle → reply`` until ``__exit__``.

    A host exception goes back as its traceback and the worker keeps
    serving; ``__ping__`` echoes its payload without touching the host
    (calibration).  :class:`PeerGone` propagates to the caller.
    """
    try:
        while True:
            cmd, payload = _message(channel.recv())
            if cmd == "__exit__":
                return
            if cmd == "__ping__":
                channel.send(("ok", payload))
                continue
            try:
                channel.send(("ok", host.handle(cmd, payload)))
            except Exception:
                channel.send(("error", traceback.format_exc()))
    finally:
        close = getattr(host, "close", None)
        if close is not None:
            close()


def _close_pool(channels, procs, release) -> None:
    """Pool teardown (``shutdown`` and the finalizer safety net): ask every
    worker to exit, close the channels, reap the processes, then run the
    owner's `release` callbacks (shared memory, socket files)."""
    for channel in channels:
        try:
            channel.send(("__exit__", None))
        except PeerGone:
            pass
    for channel in channels:
        channel.close()
    for proc in procs:
        proc.join(timeout=3.0)
        if proc.is_alive():  # pragma: no cover - stuck worker safety net
            proc.terminate()
            proc.join(timeout=1.0)
    for fn in release:
        fn()


class _ChannelFuture(Future):
    """Future bound to one worker's reply channel.

    Replies arrive strictly in submission order per worker, so
    ``result()`` drains the worker's pending queue up to and including
    this future.  Earlier futures resolved along the way become ``done``
    without anyone waiting on them — the engine is free to collect
    results in any order.
    """

    def __init__(self, pool: "_ChannelPool", worker: int):
        super().__init__()
        self._pool = pool
        self._worker = worker

    def result(self, timeout=None):
        if not self.done():
            self._pool._drain_until(self._worker, self)
        return super().result(timeout)

    def exception(self, timeout=None):
        if not self.done():
            self._pool._drain_until(self._worker, self)
        return super().exception(timeout)


class _ChannelPool:
    """One worker per channel: everything the process pool and the
    socket cluster pool have in common.

    A subclass implements ``_open(host_factory, array_specs)``: append
    one channel per worker to ``self._channels`` (in worker order by the
    time it returns), processes spawned with ``self.start_method`` to
    ``self._procs`` and zero-argument cleanup callbacks to
    ``self._release`` *as each resource comes to exist* — a start that
    fails half way is torn down from exactly those lists — and return
    the caller-side arrays.
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
        self._channels: list = []
        self._procs: list = []
        self._release: list = []
        self._pending: list[deque] = []
        self._finalizer = None

    def start(self, host_factory, array_specs):
        if self._finalizer is not None:
            raise ExecutorError("executor already started")
        # armed before anything is opened: a failed start runs it at once
        self._finalizer = weakref.finalize(
            self, _close_pool, self._channels, self._procs, self._release)
        try:
            views = self._open(host_factory, array_specs)
        except Exception as exc:
            self._finalizer()
            if isinstance(exc, PeerGone):
                raise ExecutorError(f"worker lost while the pool was starting: {exc}") from exc
            raise
        self._pending = [deque() for _ in self._channels]
        return views

    def _require_live(self) -> None:
        if self._finalizer is None or not self._finalizer.alive:
            raise ExecutorError("executor not started (or shut down)")

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future:
        self._require_live()
        fut = _ChannelFuture(self, worker)
        try:
            self._channels[worker].send((cmd, payload))
        except PeerGone as exc:
            # nothing was sent, so no reply will ever pair with this
            # future — fail it here; what is still queued ahead of it
            # fails when it is drained
            fut.set_exception(_died(worker, exc))
            return fut
        self._pending[worker].append(fut)
        return fut

    def _drain_until(self, worker: int, fut: _ChannelFuture) -> None:
        """Receive replies (FIFO per worker) until `fut` is resolved."""
        pending = self._pending[worker]
        while not fut.done():
            if not pending:  # pragma: no cover - internal invariant
                raise ExecutorError("future already drained but not done")
            try:
                status, value = _message(self._channels[worker].recv())
            except PeerGone as exc:
                # everything queued on a dead worker fails with it
                while pending:
                    pending.popleft().set_exception(_died(worker, exc))
                return
            head = pending.popleft()
            if status == "error":
                head.set_exception(WorkerFailure(worker, value))
            else:
                head.set_result(value)

    def shutdown(self) -> None:
        if self._finalizer is not None:
            self._finalizer()  # runs _close_pool once; later calls are no-ops


def _died(worker: int, exc: PeerGone) -> WorkerFailure:
    return WorkerFailure(worker, f"worker process died (or its channel broke): {exc}")


class _PipeChannel:
    """One end of an ``mp.Pipe`` as a channel."""

    def __init__(self, conn):
        self._conn = conn

    def send(self, obj) -> None:
        try:
            self._conn.send(obj)
        except OSError as exc:  # BrokenPipe, ConnectionReset, closed handle
            raise PeerGone(repr(exc)) from exc

    def recv(self):
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise PeerGone(repr(exc)) from exc

    def close(self) -> None:
        self._conn.close()


def _process_worker_main(conn, host_factory, shm_layout) -> None:
    """Process-pool worker: attach shared arrays, build the host, serve.

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
        _serve(_PipeChannel(conn), host)
    except (PeerGone, KeyboardInterrupt):
        pass
    finally:
        # drop every view into the segments before closing them: a live
        # exported buffer would make SharedMemory.close() raise
        del host, arrays
        for shm in segments:
            shm.close()


def _unlink_segments(segments) -> None:
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def _create_segments(array_specs: Mapping[str, ArraySpec]) -> tuple[list, dict, list]:
    """One zeroed shared segment per spec, all of them or none: the
    segments, the caller-side views and the layout workers attach from."""
    token = uuid.uuid4().hex[:12]
    segments: list[shared_memory.SharedMemory] = []
    views: dict[str, np.ndarray] = {}
    layout = []
    try:
        for array_name, (shape, dtype) in array_specs.items():
            nbytes = max(int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize, 8)
            shm = shared_memory.SharedMemory(
                create=True, size=nbytes,
                name=f"repro_exec_{os.getpid()}_{token}_{array_name}")
            segments.append(shm)
            view = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf)
            view[...] = 0
            views[array_name] = view
            layout.append((array_name, shm.name, tuple(shape), str(dtype)))
    except Exception:
        _unlink_segments(segments)
        raise
    return segments, views, layout


class ProcessExecutor(_ChannelPool):
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

    def _open(self, host_factory, array_specs):
        ctx = mp.get_context(self.start_method)
        self._segments, views, layout = _create_segments(array_specs)
        self._release.append(partial(_unlink_segments, self._segments))
        for w in range(self.workers):
            host_conn, worker_conn = ctx.Pipe(duplex=True)
            self._channels.append(_PipeChannel(host_conn))
            proc = ctx.Process(
                target=_process_worker_main,
                args=(worker_conn, host_factory, layout),
                daemon=True,
                name=f"repro-exec-{w}",
            )
            proc.start()
            worker_conn.close()
            self._procs.append(proc)
        return views
