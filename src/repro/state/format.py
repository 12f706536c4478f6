"""Framed binary container shared by checkpoints and trajectories.

A *frame* is the atomic unit of durability: a fixed header carrying the
payload length and a CRC32, followed by the (optionally zlib-deflated)
payload bytes.  Readers can always classify a file suffix as either a
complete frame, a *truncated tail* (the writer was killed mid-append —
recoverable, drop the tail) or *corruption* (CRC mismatch inside the
stream — refuse).  Appending a frame never rewrites earlier bytes, so a
trajectory produced by a SIGKILL'd run loses at most its final partial
frame.

Frame layout (little-endian)::

    offset  size  field
    0       4     magic  b"RSF1"
    4       1     flags  (bit 0: payload is zlib-deflated)
    5       4     stored length  (bytes following the header)
    9       4     CRC32 of the stored bytes
    13      ...   stored bytes

On top of frames, :func:`pack_arrays` / :func:`unpack_arrays` give a
bit-exact numpy array codec: a JSON manifest (name, dtype, shape,
byte length) followed by the concatenated raw buffers.  ``tobytes`` /
``frombuffer`` round-trip every IEEE bit pattern, including NaN
payloads, so checkpoint restore is bitwise by construction.  A *record*
(:func:`pack_record`) is a JSON head in front of such a block: a
trajectory frame, or — through :func:`decode_wire_record`, the only way
in for bytes a peer sent — a ``repro serve`` request or answer.
"""

from __future__ import annotations

import io
import json
import math
import operator
import struct
import zlib
from typing import BinaryIO

import numpy as np

FRAME_MAGIC = b"RSF1"
_HEADER = struct.Struct("<4sBII")  # magic, flags, stored_len, crc32
FLAG_ZLIB = 0x01


class StateFormatError(ValueError):
    """The bytes are not a valid repro.state container."""


class TruncatedStateError(StateFormatError):
    """The file ends mid-frame (killed writer); earlier frames are intact."""


class CorruptStateError(StateFormatError):
    """A frame's CRC does not match its bytes."""


def write_frame(fh: BinaryIO, payload: bytes, *, compress: bool = True) -> int:
    """Append one frame; returns the number of bytes written."""
    flags = 0
    stored = payload
    if compress:
        deflated = zlib.compress(payload, 6)
        if len(deflated) < len(payload):
            stored, flags = deflated, FLAG_ZLIB
    header = _HEADER.pack(FRAME_MAGIC, flags, len(stored), zlib.crc32(stored) & 0xFFFFFFFF)
    fh.write(header)
    fh.write(stored)
    return len(header) + len(stored)


def read_frame(fh: BinaryIO, *, inflate: bool = True) -> bytes | None:
    """Read the frame at the current offset.

    Returns ``None`` at a clean end-of-file, raises
    :class:`TruncatedStateError` on a partial frame and
    :class:`CorruptStateError` on a CRC mismatch — and, with ``inflate``
    off, on a deflated frame, whose inflated size is the sender's choice.
    """
    header = fh.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise TruncatedStateError(f"partial frame header ({len(header)} bytes) at end of file")
    magic, flags, stored_len, crc = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise CorruptStateError(f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r})")
    stored = fh.read(stored_len)
    if len(stored) < stored_len:
        raise TruncatedStateError(
            f"frame declares {stored_len} payload bytes but only {len(stored)} remain"
        )
    if (zlib.crc32(stored) & 0xFFFFFFFF) != crc:
        raise CorruptStateError("frame CRC32 mismatch")
    if flags & FLAG_ZLIB:
        if not inflate:
            raise CorruptStateError("deflated frame where only stored frames are accepted")
        try:
            return zlib.decompress(stored)
        except zlib.error as exc:  # pragma: no cover - CRC catches this first
            raise CorruptStateError(f"frame inflate failed: {exc}") from exc
    return stored


def scan_frames(fh: BinaryIO) -> tuple[list[bytes], bool]:
    """Read every complete frame, tolerating a truncated tail.

    Returns ``(payloads, truncated)`` where ``truncated`` reports
    whether a partial frame was dropped from the end, and leaves `fh`
    at the end of the last complete frame.  CRC mismatches on the
    *last* frame are treated as a torn tail write; a mismatch with
    complete frames after it is real corruption and raises.
    """
    payloads: list[bytes] = []
    truncated = False
    while True:
        pos = fh.tell()
        try:
            payload = read_frame(fh)
        except TruncatedStateError:
            truncated = True
            break
        except CorruptStateError:
            # only the final frame may be excused as a torn write
            fh.seek(pos)
            _skip_frame(fh)
            if fh.read(1):
                raise
            truncated = True
            break
        if payload is None:
            break
        payloads.append(payload)
    if truncated:
        fh.seek(pos)
    return payloads, truncated


def _skip_frame(fh: BinaryIO) -> None:
    """Advance past one frame without validating its CRC."""
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        return
    _, _, stored_len, _ = _HEADER.unpack(header)
    fh.seek(stored_len, 1)


def pack_json(obj: dict) -> bytes:
    """Canonical JSON payload bytes for a metadata frame."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def unpack_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptStateError(f"metadata frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorruptStateError("metadata frame must decode to a JSON object")
    return obj


def _pack_head(obj: dict) -> bytes:
    """A JSON object behind its little-endian uint32 length."""
    head = pack_json(obj)
    return struct.pack("<I", len(head)) + head


def _unpack_head(payload: bytes, what: str) -> tuple[dict, int]:
    """Inverse of :func:`_pack_head` at the start of `payload`, and where it ends."""
    if len(payload) < 4:
        raise CorruptStateError(f"{what} too short for its length field")
    (head_len,) = struct.unpack_from("<I", payload, 0)
    if 4 + head_len > len(payload):
        raise CorruptStateError(f"{what} extends past the frame")
    return unpack_json(payload[4 : 4 + head_len]), 4 + head_len


def pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize named arrays bit-exactly (manifest + raw buffers)."""
    manifest = []
    buffers = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        shape = list(arr.shape)  # before ascontiguousarray, which promotes 0-d to 1-d
        raw = np.ascontiguousarray(arr).tobytes()
        manifest.append(
            {"name": name, "dtype": arr.dtype.str, "shape": shape, "nbytes": len(raw)}
        )
        buffers.append(raw)
    return _pack_head({"arrays": manifest}) + b"".join(buffers)


def unpack_arrays(payload: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays`; unknown manifest keys are ignored."""
    manifest, offset = _unpack_head(payload, "array manifest")
    entries = manifest.get("arrays")
    if not isinstance(entries, list):
        raise CorruptStateError("array manifest missing its 'arrays' list")
    out: dict[str, np.ndarray] = {}
    for entry in entries:
        try:
            name, dtype = entry["name"], np.dtype(entry["dtype"])
            shape = tuple(operator.index(d) for d in entry["shape"])
            nbytes = operator.index(entry["nbytes"])
        except (KeyError, TypeError, ValueError, SyntaxError) as exc:  # np.dtype(",")
            raise CorruptStateError(f"malformed array manifest entry: {entry!r}") from exc
        if not isinstance(name, str) or name in out:
            raise CorruptStateError(f"array name {name!r} is not a string or appears twice")
        count = math.prod(shape)
        # frombuffer / reshape would refuse these too, with a bare ValueError
        if (dtype.hasobject or not dtype.itemsize or min(shape, default=0) < 0
                or count * dtype.itemsize != nbytes):
            raise CorruptStateError(
                f"array {name!r}: shape {shape} of dtype {dtype.str} is not {nbytes} bytes")
        if offset + nbytes > len(payload):
            raise CorruptStateError(f"array {name!r} extends past the frame")
        out[name] = np.frombuffer(
            payload, dtype=dtype, count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    return out


def pack_record(head: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """A JSON head in front of an array block, as one frame payload."""
    return _pack_head(head) + pack_arrays(arrays)


def unpack_record(payload: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of :func:`pack_record`."""
    head, end = _unpack_head(payload, "record head")
    return head, unpack_arrays(payload[end:])


def encode_wire_record(head: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """One record as one stored (never deflated) frame, for a socket."""
    out = io.BytesIO()
    write_frame(out, pack_record(head, arrays), compress=False)
    return out.getvalue()


def decode_wire_record(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of :func:`encode_wire_record`, for bytes a peer sent:
    exactly one frame, its CRC verified before a byte of the payload is
    parsed, refused without inflating if it is deflated."""
    fh = io.BytesIO(data)
    payload = read_frame(fh, inflate=False)
    if payload is None or fh.read(1):
        raise CorruptStateError("a body must be one frame with nothing behind it")
    return unpack_record(payload)
