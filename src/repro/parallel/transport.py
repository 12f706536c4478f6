"""Socket transport and the cluster executor: real inter-process halo
exchange under the :class:`~repro.parallel.executor.EngineExecutor`
protocol.

The process pool moves bulk data through
``multiprocessing.shared_memory`` — which only works on one host.  This
module supplies the multi-node counterpart: ranks run in separate
processes (same host or not) connected by length-prefixed, CRC-framed
messages over TCP or unix-domain sockets, and the engine ships the same
**ghost-region positions and owned-force slabs** inside them.

Wire format
-----------
Every message is exactly one :mod:`repro.state.format` frame (magic
``RSF1``, flags, length, CRC32) whose payload is a pickled
``(kind, body)`` tuple.  Pickle round-trips numpy float64 arrays
bit-exactly (``tobytes`` semantics), which is what makes the cluster
data plane satisfy the engine's bitwise determinism contract; the frame
CRC turns line corruption into a typed error instead of silently wrong
physics.  Compression is off — positions/forces are high-entropy and
the hot path is latency-bound.

Corruption semantics reuse :mod:`repro.state.format`'s taxonomy:

- :class:`TornFrameError` — the stream ended mid-frame (peer died,
  connection reset, short read); maps ``TruncatedStateError``.
- :class:`CorruptFrameError` — bytes arrived complete but wrong (bad
  magic, CRC mismatch, undecodable payload); maps
  ``CorruptStateError``.

Security note: the handshake ships a pickled host factory, so a worker
will execute code from whoever connects to it.  This is the same trust
model as MPI — run workers only on hosts you control, bound to
interfaces you trust (the spawned-pool mode binds loopback/unix sockets
only).
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import pickle
import shutil
import socket
import tempfile
import time
import traceback
from functools import partial

from repro.parallel.executor import (
    ExecutorError,
    PeerGone,
    WorkerFailure,
    _ChannelPool,
    _local_arrays,
    _message,
    _serve,
)
from repro.state.format import (
    CorruptStateError,
    TruncatedStateError,
    read_frame,
    write_frame,
)


class TransportError(PeerGone):
    """The socket transport is unusable or received unusable bytes."""


class TornFrameError(TransportError):
    """The stream ended mid-frame: short read, reset, or dead peer."""


class CorruptFrameError(TransportError):
    """A complete frame arrived with wrong bytes (magic/CRC/payload)."""


#: Sentinel returned by :meth:`FramedConnection.recv` at a clean EOF
#: *between* messages (peer closed the connection deliberately).
CLOSED = object()


def encode_message(obj) -> bytes:
    """The full wire bytes of one message (frame + pickled payload)."""
    buf = io.BytesIO()
    write_frame(buf, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                compress=False)
    return buf.getvalue()


def decode_message(data: bytes):
    """Inverse of :func:`encode_message` (one message from its bytes)."""
    conn = io.BytesIO(data)
    payload = _read_frame_typed(conn)
    if payload is None:
        raise TornFrameError("empty buffer where a message frame was expected")
    return _loads_typed(payload)


def _read_frame_typed(fh):
    """`read_frame` with errors mapped to the transport taxonomy."""
    try:
        return read_frame(fh)
    except TruncatedStateError as exc:
        raise TornFrameError(str(exc)) from exc
    except CorruptStateError as exc:
        raise CorruptFrameError(str(exc)) from exc


def _loads_typed(payload: bytes):
    try:
        return pickle.loads(payload)
    except Exception as exc:  # CRC passed but content is not a message
        raise CorruptFrameError(f"message payload does not unpickle: {exc!r}") from exc


class _CountingReader:
    """File-like read adapter over a socket that counts received bytes."""

    def __init__(self, fh):
        self._fh = fh
        self.count = 0

    def read(self, n: int = -1) -> bytes:
        try:
            data = self._fh.read(n)
        except (OSError, ValueError) as exc:
            raise TornFrameError(f"connection lost while receiving: {exc!r}") from exc
        self.count += len(data)
        return data


class FramedConnection:
    """One duplex, framed, byte-counted connection.

    ``send`` writes one frame; ``recv`` reads one, returning
    :data:`CLOSED` at a clean EOF between messages and raising
    :class:`TornFrameError` / :class:`CorruptFrameError` otherwise.
    ``bytes_sent`` / ``bytes_received`` count actual wire bytes
    (headers included) — the engine's *measured* traffic numbers.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        if sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = _CountingReader(sock.makefile("rb"))
        self.bytes_sent = 0

    @property
    def bytes_received(self) -> int:
        return self._reader.count

    def send(self, obj) -> int:
        data = encode_message(obj)
        try:
            self._sock.sendall(data)
        except (OSError, ValueError) as exc:
            raise TornFrameError(f"connection lost while sending: {exc!r}") from exc
        self.bytes_sent += len(data)
        return len(data)

    def recv(self):
        pos = self._reader.count
        payload = _read_frame_typed(self._reader)
        if payload is None:
            if self._reader.count != pos:  # pragma: no cover - defensive
                raise TornFrameError("stream ended inside a frame header")
            return CLOSED
        return _loads_typed(payload)

    def close(self) -> None:
        for closer in (self._reader._fh.close, self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover
                pass


class WireChannel(FramedConnection):
    """A :class:`FramedConnection` as a pool channel: a close between
    messages is :class:`PeerGone` too, not the :data:`CLOSED` sentinel."""

    def recv(self):
        msg = super().recv()
        if msg is CLOSED:
            raise PeerGone("connection closed by the peer")
        return msg


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def serve_worker_connection(conn: WireChannel) -> None:
    """Serve one engine session on an established connection.

    Protocol: the host sends ``("__init__", {worker, factory, specs})``;
    the worker allocates its local arrays, builds the host object, acks,
    then serves ``(cmd, payload)`` messages until ``__exit__``.  A
    session that ends any other way raises :class:`PeerGone`.
    """
    kind, body = _message(conn.recv())
    if kind != "__init__":
        raise TransportError(f"expected __init__ handshake, got {kind!r}")
    try:
        host = body["factory"](_local_arrays(body["specs"]))
        ack = {"worker": body["worker"], "pid": os.getpid()}
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    conn.send(("ok", ack))
    _serve(conn, host)


def _socket_worker_main(family: int, address, token: str, worker: int) -> None:
    """Entry point of a spawned cluster worker: dial home and serve."""
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(address)
    conn = WireChannel(sock)
    try:
        conn.send(("__hello__", {"worker": worker, "token": token}))
        serve_worker_connection(conn)
    except PeerGone:
        pass  # host died or stream broke; nothing to report to
    finally:
        conn.close()


def _address(spec: str):
    """``(family, address)`` of a worker address: ``host:port`` is TCP,
    anything without a colon a unix socket path."""
    if ":" in spec:
        host, _, port = spec.rpartition(":")
        return socket.AF_INET, (host or "127.0.0.1", int(port))
    return socket.AF_UNIX, spec


def run_worker(*, bind: str | None = None, unix: str | None = None,
               once: bool = False, _ready=None) -> int:
    """``repro worker``: listen and serve engine sessions sequentially.

    ``bind`` is ``"host:port"`` for TCP (port 0 picks a free one);
    ``unix`` is a filesystem socket path.  Each accepted connection is
    one engine session (``__init__`` ... ``__exit__``); sessions are
    served one at a time, and one that breaks off or sends anything
    else is reported and dropped without stopping the listener.
    ``once`` exits after the first session — what the CI
    cluster-equivalence job uses.
    """
    if (bind is None) == (unix is None):
        raise TransportError("exactly one of bind='host:port' or unix=path required")
    family, address = (socket.AF_UNIX, unix) if bind is None else _address(bind)
    listener = socket.socket(family, socket.SOCK_STREAM)
    if family == socket.AF_INET:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(address)
    where = unix or "%s:%d" % listener.getsockname()[:2]
    listener.listen(1)
    print(f"repro worker listening on {where}", flush=True)
    if _ready is not None:  # test hook: report the bound address
        _ready(listener.getsockname())
    try:
        while True:
            sock, _ = listener.accept()
            conn = WireChannel(sock)
            try:
                serve_worker_connection(conn)
            except PeerGone as exc:
                print(f"repro worker: session aborted: {exc}", flush=True)
            finally:
                conn.close()
            if once:
                return 0
    finally:
        listener.close()
        if unix is not None and os.path.exists(unix):
            os.unlink(unix)


# ---------------------------------------------------------------------------
# host side: the cluster executor
# ---------------------------------------------------------------------------


class ClusterExecutor(_ChannelPool):
    """:class:`EngineExecutor` over framed sockets — the wire data plane.

    Two deployment modes:

    - **Spawned pool** (default): ``workers`` local processes are
      spawned and dial back over loopback TCP (``transport="tcp"``) or
      a unix-domain socket (``transport="unix"``).  Functionally the
      multi-node layout, with every byte crossing a real socket —
      this is what the equivalence tests and CI pin down.
    - **Pre-started listeners** (``hosts=[...]``): connect to
      ``repro worker`` processes already listening, one worker per
      address — the actual multi-host mode.  The socket family is read
      off each address (``host:port`` is TCP, anything else a unix
      socket path); ``transport`` plays no part.

    Unlike the shared-memory executors, ``start`` allocates *host-local*
    plain arrays (the engine's staging/reduction buffers); workers
    allocate their own from the same specs.  The engine detects
    ``wire_data_plane`` and switches to ghost-only step payloads with
    owned-force-slab replies, so per step only halo-sized messages
    cross the sockets.
    """

    wire_data_plane = True

    def __init__(
        self,
        workers: int | None = None,
        *,
        transport: str = "tcp",
        hosts: list[str] | None = None,
        start_method: str | None = None,
        connect_timeout: float = 30.0,
    ):
        if transport not in ("tcp", "unix"):
            raise ExecutorError(f"unknown transport {transport!r}; expected 'tcp' or 'unix'")
        self.hosts = list(hosts) if hosts else None
        if self.hosts:
            if workers is not None and workers != len(self.hosts):
                raise ExecutorError(
                    f"workers={workers} disagrees with {len(self.hosts)} --hosts addresses")
            workers = len(self.hosts)
        elif workers is None:
            raise ExecutorError("need at least one worker (or a hosts list)")
        super().__init__(workers, start_method)
        self.transport = transport
        self.connect_timeout = float(connect_timeout)
        self._tmpdir: str | None = None

    # -- lifecycle ----------------------------------------------------------------

    def _open(self, host_factory, array_specs):
        if self.hosts:
            self._connect_listeners()
        else:
            self._spawn_pool()
        for w, conn in enumerate(self._channels):
            conn.send(("__init__", {"worker": w, "factory": host_factory,
                                    "specs": dict(array_specs)}))
        for w, conn in enumerate(self._channels):
            status, value = _message(conn.recv())
            if status != "ok":
                raise WorkerFailure(w, value)
        return _local_arrays(array_specs)

    def _spawn_pool(self) -> None:
        """Spawn local workers that dial back through a real socket."""
        if self.transport == "tcp":
            family, address = socket.AF_INET, ("127.0.0.1", 0)
        else:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-cluster-")
            self._release.append(partial(shutil.rmtree, self._tmpdir, ignore_errors=True))
            family, address = socket.AF_UNIX, os.path.join(self._tmpdir, "cluster.sock")
        listener = socket.socket(family, socket.SOCK_STREAM)
        listener.bind(address)
        address = listener.getsockname()  # with the port the kernel picked
        listener.listen(self.workers)
        listener.settimeout(self.connect_timeout)
        token = os.urandom(8).hex()
        ctx = mp.get_context(self.start_method)
        try:
            for w in range(self.workers):
                proc = ctx.Process(
                    target=_socket_worker_main,
                    args=(int(family), address, token, w),
                    daemon=True,
                    name=f"repro-cluster-{w}",
                )
                proc.start()
                self._procs.append(proc)
            by_worker: dict[int, WireChannel] = {}
            for _ in range(self.workers):
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    raise ExecutorError(
                        f"cluster workers did not connect within {self.connect_timeout}s")
                conn = WireChannel(sock)
                self._channels.append(conn)  # owned from here on, whatever it says
                kind, hello = _message(conn.recv())
                if (kind != "__hello__" or not isinstance(hello, dict)
                        or hello.get("token") != token):
                    raise ExecutorError("unexpected peer on the cluster listener")
                by_worker[int(hello["worker"])] = conn
            self._channels[:] = [by_worker[w] for w in range(self.workers)]
        finally:
            listener.close()

    def _connect_listeners(self) -> None:
        """Dial pre-started ``repro worker`` listeners (hosts mode)."""
        for w, spec in enumerate(self.hosts):
            family, address = _address(spec)
            deadline = time.monotonic() + self.connect_timeout
            while True:
                sock = socket.socket(family, socket.SOCK_STREAM)
                try:
                    sock.connect(address)
                    break
                except OSError:
                    sock.close()
                    if time.monotonic() >= deadline:
                        raise ExecutorError(
                            f"cannot reach worker {w} at {spec!r} "
                            f"within {self.connect_timeout}s")
                    time.sleep(0.05)
            self._channels.append(WireChannel(sock))

    # -- measurement --------------------------------------------------------------

    def wire_bytes(self) -> tuple[int, int]:
        """Cumulative ``(sent, received)`` wire bytes over all workers."""
        sent = sum(c.bytes_sent for c in self._channels)
        received = sum(c.bytes_received for c in self._channels)
        return sent, received

    def calibrate(self, *, sizes=(1 << 10, 1 << 16, 1 << 20), repeats: int = 3):
        """Fit an alpha-beta :class:`~repro.perf.network.NetworkModel`
        from measured ping round-trips at several payload sizes.

        This is the measured replacement for the analytic fabric
        constants: one-way time is taken as RTT/2 over the actual frame
        bytes on the wire.
        """
        from repro.perf.network import fit_network_model

        self._require_live()
        conn = self._channels[0]
        samples = []
        for size in sizes:
            blob = b"\x00" * int(size)
            for _ in range(repeats):
                sent0 = conn.bytes_sent
                t0 = time.perf_counter()
                fut = self.submit(0, "__ping__", blob)
                fut.result()
                rtt = time.perf_counter() - t0
                samples.append((conn.bytes_sent - sent0, rtt / 2.0))
        return fit_network_model(samples, name=f"measured-{self.transport}")
