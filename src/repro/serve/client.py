"""Stdlib client for the evaluation service (TCP and unix socket).

One :class:`ServeClient` holds one keep-alive HTTP/1.1 connection —
the load generator opens one per worker thread.  Request bodies are
always frames (:mod:`repro.serve.protocol`); an answer is decoded by the
content type it arrives with, which is frames for an evaluation and
JSON for errors, health and stats.  Addresses:

- ``"host:port"`` or ``"http://host:port"`` — TCP;
- a filesystem path (contains ``/`` or exists) — AF_UNIX.
"""

from __future__ import annotations

import http.client
import socket

from repro.serve.protocol import (
    FRAME_CONTENT_TYPE,
    SERVE_SCHEMA_VERSION,
    decode_payload,
    encode_payload,
    system_payload,
)


class ServeError(RuntimeError):
    """Non-200 response from the service.

    Attributes
    ----------
    status:
        HTTP status code.
    error:
        The decoded ``error`` object (``tier``/``code``/``message``);
        its ``code`` and ``tier`` are attributes too.
    """

    def __init__(self, status: int, error: dict):
        self.status = status
        self.error = error
        self.code: str = error.get("code", "unknown")
        self.tier: str | None = error.get("tier")
        super().__init__(f"HTTP {status}: {self.code}: {error.get('message', '')}")


class _UnixHTTPConnection(http.client.HTTPConnection):
    def __init__(self, path: str, timeout: float | None = None):
        super().__init__("localhost", timeout=timeout)
        self._unix_path = path

    def connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._unix_path)
        self.sock = sock


def _is_unix_address(address: str) -> bool:
    return "/" in address and ":" not in address.split("/")[-1]


class ServeClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(self, address: str, *, timeout: float = 120.0):
        self.address = address
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            addr = self.address
            if addr.startswith("http://"):
                addr = addr[len("http://"):]
            if _is_unix_address(addr):
                self._conn = _UnixHTTPConnection(addr, timeout=self.timeout)
            else:
                host, _, port = addr.rpartition(":")
                self._conn = http.client.HTTPConnection(
                    host or "127.0.0.1", int(port), timeout=self.timeout
                )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- requests -----------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        conn = self._connection()
        body = None
        headers = {}
        if payload is not None:
            body = encode_payload(payload, FRAME_CONTENT_TYPE)
            headers["Content-Type"] = FRAME_CONTENT_TYPE
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        except (http.client.HTTPException, OSError):
            # a dropped keep-alive connection is retryable once
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        decoded = decode_payload(data, resp.headers.get("Content-Type", ""))
        if resp.status != 200:
            raise ServeError(resp.status, decoded.get("error", {}))
        return decoded

    def evaluate(self, solver: dict, system, *, tenant: str = "default") -> dict:
        """Evaluate one system.

        Parameters
        ----------
        solver:
            A :meth:`SolverSpec.to_dict` dict (or equivalent literal).
        system:
            An :class:`~repro.md.atoms.AtomSystem` or an
            already-built system payload dict.
        """
        payload = {
            "schema": SERVE_SCHEMA_VERSION,
            "solver": solver,
            "tenant": tenant,
            "system": system if isinstance(system, dict) else system_payload(system),
        }
        return self._request("POST", "/v1/evaluate", payload)

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def health(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (ServeError, OSError):
            return False
