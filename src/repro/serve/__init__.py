"""Batched evaluation service on the :mod:`repro.runtime` layer.

``repro serve`` exposes warm, pooled solvers over HTTP (TCP or unix
socket).  The service contract is *bitwise*: the forces a serve
request returns are identical, bit for bit, to constructing the same
:class:`~repro.runtime.SolverSpec` locally and evaluating it directly
— across cache on/off, every precision, and repeat requests on a warm
session (asserted in ``tests/test_serve.py`` and gated by the CI
``serve-equivalence`` job).

Layers, bottom up:

- :mod:`repro.serve.protocol`  — the envelope's two bitwise encodings:
  CRC-framed array buffers and JSON;
- :mod:`repro.serve.validate`  — the L0-L3 request validation tiers;
- :mod:`repro.serve.server`    — the HTTP server: bounded backpressure
  queue, one session-claiming dispatcher per usable core over a
  :class:`~repro.runtime.SolverPool`;
- :mod:`repro.serve.client`    — a thin stdlib client (TCP + unix).
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    SERVE_SCHEMA_VERSION,
    decode_payload,
    encode_payload,
    system_payload,
)
from repro.serve.server import EvalServer, ServeConfig
from repro.serve.validate import RequestError, validate_request

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "EvalServer",
    "RequestError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "decode_payload",
    "encode_payload",
    "system_payload",
    "validate_request",
]
