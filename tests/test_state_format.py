"""Framed container + bit-exact array codec (`repro.state.format`).

Property tests (hypothesis) for the round-trip guarantees, plus
explicit corruption/truncation cases: every defect must raise a
*typed* error with a useful message, and a torn tail (killed writer)
must be distinguishable from mid-file corruption.
"""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state.format import (
    FRAME_MAGIC,
    CorruptStateError,
    StateFormatError,
    TruncatedStateError,
    decode_wire_record,
    encode_wire_record,
    pack_arrays,
    pack_json,
    read_frame,
    scan_frames,
    unpack_arrays,
    unpack_json,
    write_frame,
)


def roundtrip(payload: bytes, **kw) -> bytes:
    buf = io.BytesIO()
    write_frame(buf, payload, **kw)
    buf.seek(0)
    out = read_frame(buf)
    assert read_frame(buf) is None  # clean EOF after the frame
    return out


class TestFrame:
    @given(st.binary(max_size=4096))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_any_payload(self, payload):
        assert roundtrip(payload) == payload

    def test_roundtrip_uncompressed(self):
        assert roundtrip(b"abc" * 100, compress=False) == b"abc" * 100

    def test_incompressible_payload_stored_raw(self):
        # high-entropy payload: zlib would grow it, writer must store raw
        payload = np.random.default_rng(0).bytes(512)
        buf = io.BytesIO()
        write_frame(buf, payload, compress=True)
        header = buf.getvalue()[: struct.calcsize("<4sBII")]
        magic, flags, stored, _crc = struct.unpack("<4sBII", header)
        assert magic == FRAME_MAGIC
        assert flags == 0 and stored == len(payload)

    def test_eof_returns_none(self):
        assert read_frame(io.BytesIO()) is None

    def test_truncated_header(self):
        buf = io.BytesIO()
        write_frame(buf, b"hello world")
        data = buf.getvalue()
        with pytest.raises(TruncatedStateError, match="header"):
            read_frame(io.BytesIO(data[:7]))

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_frame(buf, b"hello world" * 20)
        data = buf.getvalue()
        with pytest.raises(TruncatedStateError, match="payload bytes"):
            read_frame(io.BytesIO(data[:-5]))

    def test_bad_magic(self):
        buf = io.BytesIO()
        write_frame(buf, b"payload")
        data = bytearray(buf.getvalue())
        data[0] ^= 0xFF
        with pytest.raises(CorruptStateError, match="magic"):
            read_frame(io.BytesIO(bytes(data)))

    def test_crc_mismatch(self):
        buf = io.BytesIO()
        write_frame(buf, b"payload payload payload")
        data = bytearray(buf.getvalue())
        data[-1] ^= 0xFF  # flip a payload byte, header CRC now stale
        with pytest.raises(CorruptStateError, match="CRC"):
            read_frame(io.BytesIO(bytes(data)))

    def test_errors_are_valueerrors(self):
        # callers can catch the whole family as ValueError
        assert issubclass(TruncatedStateError, StateFormatError)
        assert issubclass(CorruptStateError, StateFormatError)
        assert issubclass(StateFormatError, ValueError)


class TestScanFrames:
    def write_stream(self, payloads):
        buf = io.BytesIO()
        for p in payloads:
            write_frame(buf, p)
        return buf

    def test_scan_intact(self):
        buf = self.write_stream([b"a", b"bb", b"ccc"])
        buf.seek(0)
        payloads, truncated = scan_frames(buf)
        assert payloads == [b"a", b"bb", b"ccc"]
        assert not truncated

    def test_torn_tail_is_excused(self):
        buf = self.write_stream([b"one" * 30, b"two" * 30])
        torn = buf.getvalue()[:-7]  # kill mid-write of frame 2
        stream = io.BytesIO(torn)
        stream.seek(0)
        payloads, truncated = scan_frames(stream)
        assert payloads == [b"one" * 30]
        assert truncated

    def test_corrupt_midfile_raises(self):
        buf = self.write_stream([b"one" * 30, b"two" * 30])
        data = bytearray(buf.getvalue())
        data[20] ^= 0xFF  # inside frame 1's payload — NOT a torn tail
        with pytest.raises(CorruptStateError):
            scan_frames(io.BytesIO(bytes(data)))


ARRAY_DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8]


class TestArrayCodec:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(ARRAY_DTYPES),
                st.lists(st.integers(0, 5), min_size=0, max_size=3),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_bitwise(self, specs, seed):
        rng = np.random.default_rng(seed)
        arrays = {}
        for k, (dtype, shape) in enumerate(specs):
            raw = rng.bytes(int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize)
            arrays[f"a{k}"] = np.frombuffer(raw, dtype=dtype).reshape(shape)
        out = unpack_arrays(pack_arrays(arrays))
        assert set(out) == set(arrays)
        for name, a in arrays.items():
            b = out[name]
            assert b.dtype == a.dtype and b.shape == a.shape
            # bitwise, not value, equality: NaN payloads must survive
            assert a.tobytes() == b.tobytes()

    def test_float_specials_roundtrip(self):
        a = np.array([np.nan, np.inf, -np.inf, -0.0, np.nextafter(0.0, 1.0)])
        out = unpack_arrays(pack_arrays({"x": a}))["x"]
        assert a.tobytes() == out.tobytes()

    def test_output_owns_its_memory(self):
        out = unpack_arrays(pack_arrays({"x": np.arange(4.0)}))["x"]
        assert out.flags.owndata and out.flags.writeable
        out[0] = 99.0  # must not raise

    def test_unknown_manifest_keys_tolerated(self):
        # forward-compat: a newer writer may annotate entries
        payload = pack_arrays({"x": np.arange(3.0)})
        (mlen,) = struct.unpack_from("<I", payload, 0)
        manifest = unpack_json(payload[4 : 4 + mlen])
        manifest["arrays"][0]["future_field"] = "ignored"
        manifest["future_section"] = {"also": "ignored"}
        head = pack_json(manifest)
        patched = struct.pack("<I", len(head)) + head + payload[4 + mlen:]
        out = unpack_arrays(patched)
        assert np.array_equal(out["x"], np.arange(3.0))

    def test_truncated_buffer_detected(self):
        payload = pack_arrays({"x": np.arange(16.0)})
        with pytest.raises(StateFormatError):
            unpack_arrays(payload[:-8])

    @pytest.mark.parametrize("patch", [
        {"dtype": "|O"}, {"dtype": "|V0"}, {"dtype": ","}, {"dtype": "no such type"},
        {"dtype": ["<f8"]}, {"shape": [5]}, {"shape": [-4]}, {"shape": [2, -2]},
        {"shape": [2.0, 2]}, {"shape": "4"}, {"shape": [2**62, 2**62]}, {"nbytes": 31},
        {"nbytes": -32}, {"nbytes": "32"}, {"name": ["x"]}, {"name": None},
    ])
    def test_bad_manifest_entry_is_a_typed_error(self, patch):
        """dtype, shape and byte count are a stranger's claims: whatever
        they say, the error is CorruptStateError — never the bare
        ValueError (or SyntaxError, or ZeroDivisionError) of numpy."""
        payload = pack_arrays({"x": np.arange(4.0)})
        (mlen,) = struct.unpack_from("<I", payload, 0)
        manifest = unpack_json(payload[4 : 4 + mlen])
        manifest["arrays"][0].update(patch)
        head = pack_json(manifest)
        with pytest.raises(CorruptStateError):
            unpack_arrays(struct.pack("<I", len(head)) + head + payload[4 + mlen:])

    def test_duplicate_array_name_refused(self):
        payload = pack_arrays({"x": np.arange(4.0)})
        (mlen,) = struct.unpack_from("<I", payload, 0)
        manifest = unpack_json(payload[4 : 4 + mlen])
        manifest["arrays"] *= 2
        head = pack_json(manifest)
        with pytest.raises(CorruptStateError, match="twice"):
            unpack_arrays(struct.pack("<I", len(head)) + head + payload[4 + mlen:] * 2)


class TestWireRecord:
    """The one way in for bytes a peer sent."""

    HEAD, ARRAYS = {"n": 3, "e": -0.0}, {"x": np.array([[np.nan, -0.0, 5e-324]])}

    def test_roundtrip_bitwise(self):
        head, arrays = decode_wire_record(encode_wire_record(self.HEAD, self.ARRAYS))
        assert head == self.HEAD and list(arrays) == ["x"]
        assert arrays["x"].tobytes() == self.ARRAYS["x"].tobytes()

    def test_never_deflated_never_inflated(self, monkeypatch):
        body = encode_wire_record({}, {"x": np.zeros(4096)})
        assert len(body) > 8 * 4096  # stored, however well it would deflate
        buf = io.BytesIO()
        write_frame(buf, bytes(1 << 20))
        assert len(buf.getvalue()) < 2048  # a deflated frame: fine for a file
        assert read_frame(io.BytesIO(buf.getvalue())) == bytes(1 << 20)
        monkeypatch.setattr(zlib, "decompress", None)  # calling it would be a TypeError
        with pytest.raises(CorruptStateError, match="deflated"):
            decode_wire_record(buf.getvalue())
        with pytest.raises(CorruptStateError, match="deflated"):
            read_frame(io.BytesIO(buf.getvalue()), inflate=False)

    def test_exactly_one_frame(self):
        body = encode_wire_record(self.HEAD, self.ARRAYS)
        for bad in (b"", body + b"\0", body + body):
            with pytest.raises(CorruptStateError, match="one frame"):
                decode_wire_record(bad)
        with pytest.raises(TruncatedStateError):
            decode_wire_record(body[:-1])
        with pytest.raises(CorruptStateError, match="CRC"):
            decode_wire_record(body[:-1] + bytes([body[-1] ^ 1]))


class TestJsonCodec:
    @given(st.floats(allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_floats_roundtrip_bitwise(self, v):
        out = unpack_json(pack_json({"v": v}))["v"]
        assert struct.pack("<d", out) == struct.pack("<d", v)

    def test_big_ints_roundtrip(self):
        # PCG64 state is a 128-bit integer
        v = 2**127 + 12345
        assert unpack_json(pack_json({"v": v}))["v"] == v


def test_zlib_flag_actually_compresses():
    payload = b"\x00" * 4096
    buf = io.BytesIO()
    write_frame(buf, payload)
    assert len(buf.getvalue()) < 128
    assert zlib  # imported for documentation: format uses raw zlib
