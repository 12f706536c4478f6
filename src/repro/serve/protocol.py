"""Wire format for the evaluation service: two encodings of one envelope.

**Frames** (``application/x-repro-frame``) are what :class:`ServeClient`
speaks.  A body is exactly one stored CRC32 frame of
:mod:`repro.state.format` holding one record: the envelope without its
arrays as the JSON head, the arrays as raw little-endian buffers —
``system.x`` (``<f8``, ``(n, 3)``) and optionally ``system.types``
(``<i4``, ``(n,)``) in a request, ``forces`` (``<f8``, ``(n, 3)``) in an
answer.  **JSON** (``application/json``) is the curl-able form of the
same envelope, arrays as nested lists; errors, ``/healthz`` and
``/v1/stats`` are always JSON.  Both are bitwise: buffers by
construction, JSON because :mod:`json` writes a double by ``repr``, its
shortest round-tripping form.

Neither encoder lets NaN/Infinity out: non-finite geometry is a
validation error, not a wire value.  A frame built by other hands can
carry them, so the server's L2 ``nonfinite`` is the guard.  Both
decoders feed one validator, and what the server accepts never depends
on what happens to be installed on the host.
"""

from __future__ import annotations

import json

import numpy as np

from repro.state.format import StateFormatError, decode_wire_record, encode_wire_record

#: Version of the request/response envelope; requests carrying a
#: different version are rejected at validation tier L0.
SERVE_SCHEMA_VERSION = 1

JSON_CONTENT_TYPE = "application/json"
FRAME_CONTENT_TYPE = "application/x-repro-frame"
CONTENT_TYPES = (FRAME_CONTENT_TYPE, JSON_CONTENT_TYPE)

#: An envelope's arrays by their name in a frame, and the dtype the
#: encoder gives them.  ``None``: as the sender holds them (``<i4`` in an
#: :class:`AtomSystem`), so that a float index is refused, not cast.
FRAME_ARRAYS = {"system.x": "<f8", "system.types": None, "forces": "<f8"}


class ProtocolError(ValueError):
    """Undecodable body or unsupported content type."""


def wire_type(header: str) -> str:
    """The encoding a ``Content-Type`` header names (none means JSON)."""
    base = header.split(";", 1)[0].strip().lower() or JSON_CONTENT_TYPE
    if base not in CONTENT_TYPES:
        raise ProtocolError(f"unsupported content type {header!r}")
    return base


def encode_payload(obj, content_type: str = JSON_CONTENT_TYPE) -> bytes:
    """Serialize an envelope for the wire, bitwise in either encoding.
    Raises :class:`ValueError` on a non-finite number."""
    if wire_type(content_type) == JSON_CONTENT_TYPE:
        return json.dumps(
            obj, allow_nan=False, separators=(",", ":"), default=np.ndarray.tolist).encode()
    head, arrays = dict(obj), {}
    for name, dtype in FRAME_ARRAYS.items():
        # "system.x" is obj["system"]["x"]; the head gets a copy without it
        where, _, key = name.rpartition(".")
        source = head.get(where) if where else head
        if isinstance(source, dict) and source.get(key) is not None:
            if where:
                source = head[where] = dict(source)
            arrays[name] = np.asarray(source.pop(key), dtype=dtype)
    if any(a.dtype.kind == "f" and not np.isfinite(a).all() for a in arrays.values()):
        raise ValueError("Out of range float values are not frame compliant")
    return encode_wire_record(head, arrays)


def decode_payload(data: bytes, content_type: str = JSON_CONTENT_TYPE):
    """Deserialize a wire body; raises :class:`ProtocolError` on junk."""
    if wire_type(content_type) == JSON_CONTENT_TYPE:
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"undecodable JSON body: {exc}") from exc
    try:
        head, arrays = decode_wire_record(data)
    except StateFormatError as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    for name, array in arrays.items():
        where, _, key = name.rpartition(".")  # back where the encoder took it from
        target = head.setdefault(where, {}) if where else head
        if name not in FRAME_ARRAYS or not isinstance(target, dict):
            raise ProtocolError(f"undecodable frame: no place for an array {name!r}")
        target[key] = array
    return head


def system_payload(system) -> dict:
    """The wire representation of an :class:`~repro.md.atoms.AtomSystem`.

    Velocities/forces are evaluation *outputs* here, not inputs, so only
    geometry, types and the species table travel.  Arrays stay arrays:
    the encoder decides whether they leave as buffers or as lists.
    """
    payload = {
        "x": system.x,
        "box": {
            "lo": system.box.lo.tolist(),
            "hi": system.box.hi.tolist(),
            "periodic": list(system.box.periodic),
        },
        "species": list(system.species),
    }
    if np.any(system.type):
        payload["types"] = system.type
    return payload
