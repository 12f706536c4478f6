"""The ``repro serve`` HTTP server.

Architecture (one box, no third-party dependencies):

- a :class:`ThreadingHTTPServer` (TCP) or its AF_UNIX twin accepts
  connections.  A handler thread does what needs no solver: it refuses
  an oversized body unread, decodes it (frame or JSON), validates it
  once, on arrays (L0-L3), and later encodes the answer as it was asked;
- a request that finds the FIFO empty, its ``(tenant, spec)`` session
  idle and fewer sessions busy than there are dispatchers is evaluated
  *inline*, on its handler thread, which claims and releases the session
  as a dispatcher does: no thread hand-off at all;
- every other request becomes a job on one **bounded** FIFO — when it is
  full the handler answers ``429`` with the typed ``backpressure`` error
  *immediately* instead of stacking latency;
- one **dispatcher** thread per usable core evaluates queued jobs on the
  warm :class:`~repro.runtime.SolverPool`: validated arrays in, a detached
  force array out, never a Python list.  A free dispatcher claims the
  oldest job whose ``(tenant, spec)`` session is not busy, with every
  queued job of that session (up to :data:`BATCH_MAX`), in arrival
  order.  A busy session is never claimed twice, so each session sees
  its requests in order, one at a time — the bitwise serve-equivalence
  contract — while different sessions evaluate at once (the C layers
  release the interpreter lock).  Fusion is *dispatch* fusion only:
  concatenating systems into one neighbor build would change summation
  order and break that contract;
- handler threads block on a queued job's event and write the response,
  head and body in one write; ``/v1/stats`` counts the inline requests
  and sums each job's queue wait, evaluation and response time.
  A handler that gives up (``504``) abandons its job: the dispatcher
  skips it and counts it failed.

:meth:`EvalServer.close` (or leaving its ``with`` block) stops every
dispatcher with one flag, shuts the listener down, and unlinks the unix
socket path; a server still open at interpreter exit is cleaned up then.
SIGKILL leaves the socket path behind; the next server on it rebinds.
"""

from __future__ import annotations

import email.utils
import functools
import math
import os
import socket
import socketserver
import threading
import time
import weakref
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.host import usable_cores
from repro.md.units import DEFAULT_SKIN
from repro.runtime.pool import SolverPool
from repro.serve.protocol import (
    CONTENT_TYPES,
    JSON_CONTENT_TYPE,
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    decode_payload,
    encode_payload,
    wire_type,
)
from repro.serve.validate import DEFAULT_MAX_ATOMS, RequestError, validate_request

#: jobs of one session a dispatcher claims at once
BATCH_MAX = 16


@dataclass(frozen=True)
class ServeConfig:
    """Everything the server needs, declaratively.

    Exactly one of TCP (``host``/``port``) or ``unix_path`` is used:
    setting ``unix_path`` selects the AF_UNIX listener.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    unix_path: str | None = None
    max_sessions: int = 32
    per_tenant_cap: int = 8
    skin: float = DEFAULT_SKIN
    backlog: int = 64  # bounded queue depth; overflow answers 429
    max_atoms: int = DEFAULT_MAX_ATOMS
    request_timeout: float = 120.0  # handler wait for a queued job; inline ones never wait

    def __post_init__(self) -> None:
        # refused here, not by every request's neighbor build
        if not (math.isfinite(self.skin) and self.skin >= 0.0):
            raise ValueError(f"skin must be finite and non-negative, got {self.skin}")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in 0..65535, got {self.port}")
        for name in ("backlog", "max_atoms"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.request_timeout) and self.request_timeout > 0.0):
            raise ValueError(f"request_timeout must be finite and positive, "
                             f"got {self.request_timeout}")


class _Job:
    """One accepted request travelling handler → dispatcher → handler."""

    __slots__ = ("spec", "system", "tenant", "key", "event", "response", "error",
                 "abandoned", "enqueued", "evaluated")

    def __init__(self, spec, system, tenant):
        self.spec = spec
        self.system = system
        self.tenant = tenant
        self.key = (tenant, spec.key())  # its session in the pool
        self.event = threading.Event()
        self.response = None
        self.error = None
        self.abandoned = False  # its handler answered 504 and left
        self.enqueued = self.evaluated = 0.0  # perf_counter stamps


@dataclass
class _ServerCounters:
    """Dispatcher/queue counters (merged into ``/v1/stats``)."""

    received: int = 0
    inline: int = 0  # evaluated on their handler thread, never queued
    completed: int = 0
    failed: int = 0
    rejected_backpressure: int = 0
    rejected_invalid: int = 0
    batches: int = 0
    fused_requests: int = 0
    max_batch: int = 0
    # summed per job: enqueue → pick-up → evaluate-done → response-written
    queue_wait_us: float = 0.0
    evaluate_us: float = 0.0
    respond_us: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def as_dict(self) -> dict:
        with self.lock:
            return {k: round(v) for k, v in vars(self).items() if k != "lock"}


class _UnixHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer over an AF_UNIX stream socket."""

    address_family = socket.AF_UNIX

    def server_bind(self):
        # a path left by a dead server would make bind fail; the live
        # server holds the listening socket, so an existing path here
        # is always stale
        try:
            os.unlink(self.server_address)
        except FileNotFoundError:
            pass
        socketserver.TCPServer.server_bind(self)

    def get_request(self):
        request, _ = self.socket.accept()
        # BaseHTTPRequestHandler logs client_address[0]; AF_UNIX peers
        # have no (host, port), so fake a stable one
        return request, ("unix", 0)


def _cleanup(httpd, unix_path, claim, stop, dispatchers, started) -> None:
    """Idempotent teardown shared by close() and interpreter exit."""
    with claim:  # a dispatcher drains what it can still claim, then returns
        stop.set()
        claim.notify_all()
    if started.is_set():
        # shutdown() handshakes with a serve_forever loop; on a server
        # that never served it would wait forever
        httpd.shutdown()
    httpd.server_close()
    for dispatcher in dispatchers:
        if dispatcher.is_alive():
            dispatcher.join(timeout=5.0)
    if unix_path is not None:
        try:
            os.unlink(unix_path)
        except FileNotFoundError:
            pass


class EvalServer:
    """Long-lived evaluation service over a warm solver pool.

    Usable embedded (tests, the bench suite) or via the CLI::

        server = EvalServer(ServeConfig(unix_path="/tmp/repro.sock"))
        server.start()          # background accept + dispatch threads
        ...                     # talk to it with ServeClient
        server.close()

    or as a context manager.  :meth:`serve_forever` is the blocking
    foreground variant the CLI uses.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.pool = SolverPool(
            max_sessions=self.config.max_sessions,
            per_tenant_cap=self.config.per_tenant_cap,
            skin=self.config.skin,
        )
        self.counters = _ServerCounters()
        self._jobs: list[_Job] = []  # the FIFO, at most config.backlog long
        self._busy: set[tuple] = set()  # sessions a dispatcher has claimed
        self._claim = threading.Condition()  # guards both, and _stop
        self._stop = threading.Event()
        self._httpd = self._make_httpd()
        self._dispatchers = [
            threading.Thread(target=self._dispatch_loop, name="serve-dispatcher", daemon=True)
            for _ in range(usable_cores())
        ]
        self._accept_thread: threading.Thread | None = None
        self._closed = False
        self._started = threading.Event()
        # runs once: from close(), or at interpreter exit if still open
        self._finalizer = weakref.finalize(
            self, _cleanup, self._httpd, self.config.unix_path,
            self._claim, self._stop, self._dispatchers, self._started,
        )

    # ---- wiring -------------------------------------------------------------

    def _make_httpd(self):
        handler = _make_handler(self)
        if self.config.unix_path is not None:
            return _UnixHTTPServer(self.config.unix_path, handler)
        return ThreadingHTTPServer((self.config.host, self.config.port), handler)

    @property
    def address(self) -> str:
        """Connectable address: ``host:port`` or the socket path."""
        if self.config.unix_path is not None:
            return self.config.unix_path
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "EvalServer":
        """Run accept loop + dispatchers in background threads."""
        self._started.set()
        for dispatcher in self._dispatchers:
            dispatcher.start()
        self._accept_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="serve-accept", daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking foreground serve (the CLI path)."""
        self._started.set()
        for dispatcher in self._dispatchers:
            dispatcher.start()
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._finalizer()  # runs _cleanup exactly once
        if self._accept_thread is not None and self._accept_thread.is_alive():
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "EvalServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- dispatch -----------------------------------------------------------

    def submit(self, job: _Job) -> bool:
        """Enqueue a job; False means the backlog is full (429)."""
        job.enqueued = time.perf_counter()
        with self._claim:
            if len(self._jobs) >= self.config.backlog:
                return False
            self._jobs.append(job)
            if job.key not in self._busy:
                self._claim.notify()  # one dispatcher per claimable job
        return True

    def evaluate_inline(self, job: _Job) -> bool:
        """Evaluate ``job`` on the calling thread when nothing is queued, its
        session is idle and a dispatcher's core is free; False: queue it."""
        with self._claim:
            if self._jobs or job.key in self._busy or len(self._busy) >= len(self._dispatchers):
                return False
            self._busy.add(job.key)
        with self.counters.lock:
            self.counters.inline += 1
        job.enqueued = time.perf_counter()
        try:
            self._run_batch([job])
        finally:
            with self._claim:
                self._busy.discard(job.key)
                if self._claimable() is not None:
                    self._claim.notify()  # a job of this session queued meanwhile
        return True

    def _claimable(self):
        """The session of the oldest job no dispatcher holds, or None."""
        return next((job.key for job in self._jobs if job.key not in self._busy), None)

    def _dispatch_loop(self) -> None:
        while True:
            with self._claim:
                while (key := self._claimable()) is None:
                    if self._stop.is_set():
                        return
                    self._claim.wait()
                batch = [job for job in self._jobs if job.key == key][:BATCH_MAX]
                self._jobs = [job for job in self._jobs if job not in batch]
                self._busy.add(key)
                if self._claimable() is not None:
                    self._claim.notify()  # pass on what this one leaves
            self._run_batch(batch)
            with self._claim:
                self._busy.discard(key)

    def _run_batch(self, batch: list[_Job]) -> None:
        size = len(batch)
        with self.counters.lock:
            self.counters.batches += 1
            self.counters.fused_requests += size
            self.counters.max_batch = max(self.counters.max_batch, size)
        for i, job in enumerate(batch):
            picked_up = time.perf_counter()
            if not job.abandoned:
                try:
                    result = self.pool.evaluate(job.spec, job.system, tenant=job.tenant)
                    job.response = {
                        "schema": SERVE_SCHEMA_VERSION,
                        "energy": float(result.energy),
                        "virial": float(result.virial),
                        "forces": result.forces,
                        "n": int(job.system.n),
                        "batch": {"index": i, "size": size},
                    }
                except Exception as exc:  # evaluation failure → typed 500
                    job.error = f"{type(exc).__name__}: {exc}"
            job.evaluated = time.perf_counter()
            with self.counters.lock:
                ok = job.error is None and not job.abandoned
                self.counters.completed += ok
                self.counters.failed += not ok
                self.counters.queue_wait_us += (picked_up - job.enqueued) * 1e6
                self.counters.evaluate_us += (job.evaluated - picked_up) * 1e6
                # under the lock: a handler that times out sees either this
                # answer or none, never one it already reported as a 504
                job.event.set()

    # ---- introspection ------------------------------------------------------

    def stats(self) -> dict:
        return {
            "schema": SERVE_SCHEMA_VERSION,
            "server": self.counters.as_dict(),
            "queue_depth": len(self._jobs),
            "backlog": self.config.backlog,
            "content_types": list(CONTENT_TYPES),
            "pool": self.pool.snapshot(),
        }


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header RFC 9110 asks of a server with a clock, formatted
    once per second."""
    return email.utils.formatdate(second, usegmt=True)


def _make_handler(server: EvalServer):
    """The request handler class, closed over its EvalServer."""
    # JSON spends under 80 bytes on an atom's three doubles and type, a frame 28
    body_cap = 65536 + 128 * server.config.max_atoms

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # quiet: the access log is telemetry's job, not stderr's
        def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
            pass

        def _send(self, status: int, obj: dict, ctype: str = JSON_CONTENT_TYPE,
                  close: bool = False) -> None:
            """Status line, headers and body in one write."""
            body = encode_payload(obj, ctype)
            head = (f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                    f"Date: {_http_date(int(time.time()))}\r\nContent-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n")
            if close:
                self.close_connection = True
                head += "Connection: close\r\n"
            self.wfile.write(f"{head}\r\n".encode("latin-1") + body)

        def _fail(self, status: int, code: str, message: str, tier: str | None = None,
                  close: bool = False) -> None:
            """A typed error, always JSON; with a tier it is a request refused."""
            if tier is not None:
                with server.counters.lock:
                    server.counters.rejected_invalid += 1
            error = {"tier": tier, "code": code, "message": message}
            self._send(status, {"schema": SERVE_SCHEMA_VERSION, "error": error}, close=close)

        def do_GET(self):  # noqa: N802 - stdlib casing
            if self.path == "/healthz":
                self._send(200, {"schema": SERVE_SCHEMA_VERSION, "ok": True})
            elif self.path == "/v1/stats":
                self._send(200, server.stats())
            else:
                self._fail(404, "not_found", f"no route {self.path}")

        def do_POST(self):  # noqa: N802 - stdlib casing
            if self.path != "/v1/evaluate":
                self._fail(404, "not_found", f"no route {self.path}")
                return
            with server.counters.lock:
                server.counters.received += 1
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            # either way the body stays unread, so the connection cannot go on
            if length < 0:
                self._fail(400, "bad_length", "missing/invalid Content-Length", "L0", close=True)
                return
            if length > body_cap:
                self._fail(413, "body_too_large",
                           f"Content-Length {length} is above the {body_cap} bytes a "
                           f"{server.config.max_atoms}-atom system can need", "L0", close=True)
                return
            body = self.rfile.read(length)
            try:
                ctype = wire_type(self.headers.get("Content-Type", ""))
                payload = decode_payload(body, ctype)
            except ProtocolError as exc:
                self._fail(400, "undecodable", str(exc), "L0")
                return
            try:
                spec, system, tenant = validate_request(
                    payload, max_atoms=server.config.max_atoms,
                    skin=server.config.skin,
                )
            except RequestError as exc:
                self._fail(400, exc.code, str(exc), exc.tier)
                return
            job = _Job(spec, system, tenant)
            if server.evaluate_inline(job):
                pass  # answered below: it never queued, so it never waits
            elif not server.submit(job):
                with server.counters.lock:
                    server.counters.rejected_backpressure += 1
                self._fail(429, "backpressure", f"queue full ({server.config.backlog} "
                                                "pending); retry with backoff")
                return
            elif not job.event.wait(timeout=server.config.request_timeout):
                with server.counters.lock:
                    job.abandoned = not job.event.is_set()
                if job.abandoned:
                    self._fail(504, "timeout", "evaluation timed out")
                    return
            if job.error is None:
                try:
                    self._send(200, job.response, ctype)
                except ValueError as exc:  # non-finite forces are no wire value
                    job.error = f"unencodable result: {exc}"
            if job.error is not None:
                self._fail(500, "evaluation_failed", job.error)
            with server.counters.lock:
                server.counters.respond_us += (time.perf_counter() - job.evaluated) * 1e6

    return Handler
