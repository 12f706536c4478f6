"""Wire format for the evaluation service.

JSON is the canonical encoding.  Python floats are IEEE-754 doubles
and :mod:`json` serializes them via ``repr`` (shortest round-tripping
form since Python 3.1), so every float64 coordinate and force survives
an encode/decode cycle *bitwise* — the property the serve-equivalence
contract rests on.  NaN/Infinity are rejected on encode (``allow_nan``
off): non-finite geometry is a validation error, not a wire value.
It is the only encoding: what the server accepts never depends on what
happens to be installed on the host.
"""

from __future__ import annotations

import json

import numpy as np

#: Version of the request/response envelope; requests carrying a
#: different version are rejected at validation tier L0.
SERVE_SCHEMA_VERSION = 1

JSON_CONTENT_TYPE = "application/json"


class ProtocolError(ValueError):
    """Undecodable body or unsupported content type."""


def encode_payload(obj, content_type: str = JSON_CONTENT_TYPE) -> bytes:
    """Serialize `obj` for the wire.  JSON floats round-trip bitwise."""
    if content_type == JSON_CONTENT_TYPE:
        return json.dumps(obj, allow_nan=False, separators=(",", ":")).encode()
    raise ProtocolError(f"unsupported content type {content_type!r}")


def decode_payload(data: bytes, content_type: str = JSON_CONTENT_TYPE):
    """Deserialize a wire body; raises :class:`ProtocolError` on junk."""
    base = content_type.split(";", 1)[0].strip().lower()
    if base in ("", JSON_CONTENT_TYPE, "text/json"):
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"undecodable JSON body: {exc}") from exc
    raise ProtocolError(f"unsupported content type {content_type!r}")


def system_payload(system) -> dict:
    """The wire representation of an :class:`~repro.md.atoms.AtomSystem`.

    Positions go out as nested float lists (bitwise via JSON repr);
    velocities/forces are evaluation *outputs* here, not inputs, so
    only geometry, types and the species table travel.
    """
    payload = {
        "x": system.x.tolist(),
        "box": {
            "lo": system.box.lo.tolist(),
            "hi": system.box.hi.tolist(),
            "periodic": list(system.box.periodic),
        },
        "species": list(system.species),
    }
    if np.any(system.type):
        payload["types"] = system.type.tolist()
    return payload


def system_from_payload(payload: dict):
    """Rebuild an :class:`~repro.md.atoms.AtomSystem` from its wire
    form.  Inverse of :func:`system_payload`; construction is bitwise
    (no wrapping or rescaling happens here)."""
    from repro.md.atoms import AtomSystem
    from repro.md.box import Box

    box = payload["box"]
    return AtomSystem(
        box=Box(
            np.asarray(box["lo"], dtype=np.float64),
            np.asarray(box["hi"], dtype=np.float64),
            tuple(bool(p) for p in box.get("periodic", (True, True, True))),
        ),
        x=np.asarray(payload["x"], dtype=np.float64),
        type=(
            np.asarray(payload["types"], dtype=np.int32)
            if payload.get("types") is not None
            else None
        ),
        species=tuple(payload.get("species") or ("Si",)),
    )
