"""The evaluation service: bitwise serve-equivalence in both encodings,
the validation taxonomy, the frame refusal battery, warm-pool behavior,
batch fusion, the session-parallel dispatch contract, backpressure, and
clean death.  This file is the substance behind the CI
``serve-equivalence`` job."""

import json
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_compiled

from repro.host import usable_cores
from repro.md.box import Box
from repro.md.lattice import diamond_lattice, perturbed
from repro.runtime import SolverPool, SolverSpec
from repro.runtime.pool import SolverSession, copy_forces
from repro.serve import (
    EvalServer,
    RequestError,
    ServeClient,
    ServeConfig,
    ServeError,
    system_payload,
    validate_request,
)
from repro.serve.protocol import (
    CONTENT_TYPES,
    FRAME_CONTENT_TYPE,
    JSON_CONTENT_TYPE,
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    decode_payload,
    encode_payload,
)
from repro.state.format import FLAG_ZLIB, FRAME_MAGIC, pack_arrays, pack_json

SPEC = SolverSpec(potential="tersoff", mode="Opt-M")


def _system(cells=2, seed=1):
    return perturbed(diamond_lattice(cells, cells, cells), 0.1, seed=seed)


def _request(spec=SPEC, system=None, **over):
    payload = {
        "schema": SERVE_SCHEMA_VERSION,
        "solver": spec.to_dict(),
        "system": system_payload(system if system is not None else _system()),
    }
    payload.update(over)
    return payload


@pytest.fixture()
def server(tmp_path):
    srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "serve.sock")))
    srv.start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    with ServeClient(server.address) as c:
        yield c


def _post(address, body: bytes, ctype: str, length=None):
    """One raw POST on its own connection: ``(response, decoded body)``.
    ``length`` overrides the Content-Length the body would get."""
    with ServeClient(address, timeout=30) as c:
        conn = c._connection()
        conn.putrequest("POST", "/v1/evaluate")
        conn.putheader("Content-Type", ctype)
        conn.putheader("Content-Length", str(len(body) if length is None else length))
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp, decode_payload(resp.read(), resp.headers["Content-Type"])


def _refusal(address, body: bytes, ctype: str = FRAME_CONTENT_TYPE, length=None):
    """``(status, tier, code)`` of a request the server must refuse."""
    resp, out = _post(address, body, ctype, length)
    assert resp.headers["Content-Type"] == JSON_CONTENT_TYPE  # errors are always JSON
    return resp.status, out["error"]["tier"], out["error"]["code"]


class JsonClient(ServeClient):
    """What ``curl`` does: the documented JSON form of a request.
    :class:`ServeClient` itself has one path, and that one sends frames."""

    def _request(self, method, path, payload=None):
        if payload is None:
            return super()._request(method, path)
        resp, out = _post(self.address, encode_payload(payload, JSON_CONTENT_TYPE),
                          JSON_CONTENT_TYPE)
        assert resp.headers["Content-Type"] == JSON_CONTENT_TYPE  # answered as asked
        if resp.status != 200:
            raise ServeError(resp.status, out["error"])
        out["forces"] = np.asarray(out["forces"], dtype=np.float64)
        return out


def _seal(payload: bytes, flags: int = 0) -> bytes:
    """`payload` as one frame with a true length and CRC."""
    return struct.pack("<4sBII", FRAME_MAGIC, flags, len(payload),
                       zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _record(head: dict, manifest: list, blob: bytes) -> bytes:
    """A record payload with a hand-written array manifest."""
    head, manifest = pack_json(head), pack_json({"arrays": manifest})
    return (struct.pack("<I", len(head)) + head
            + struct.pack("<I", len(manifest)) + manifest + blob)


def _frame_parts(system=None):
    """Head, manifest and buffer of a valid frame request, for tampering."""
    system = system if system is not None else _system()
    head = _request(system=system)
    head["system"] = {k: v for k, v in head["system"].items() if k not in ("x", "types")}
    manifest = [{"name": "system.x", "dtype": "<f8", "shape": list(system.x.shape),
                 "nbytes": system.x.nbytes}]
    return head, manifest, system.x.tobytes()


# ---- wire format -------------------------------------------------------------


class TestProtocol:
    def test_json_floats_round_trip_bitwise(self):
        system = _system()
        _, again, _ = validate_request(decode_payload(encode_payload(_request(system=system))))
        assert np.array_equal(again.x, system.x)
        assert np.array_equal(again.box.lo, system.box.lo)
        assert np.array_equal(again.box.hi, system.box.hi)

    @pytest.mark.parametrize("ctype", CONTENT_TYPES)
    def test_every_bit_pattern_round_trips(self, ctype):
        """-0.0, subnormals and the largest double keep their bits in
        both encodings, requests and answers alike."""
        system = _system()
        system.x[0] = [-0.0, 5e-324, -2.5e-310]
        system.x[1, 0] = 1.7976931348623157e308
        system.type[:] = 0
        system.type[2] = 1  # a non-zero type makes `types` travel
        req = decode_payload(encode_payload(_request(system=system), ctype), ctype)
        assert np.asarray(req["system"]["x"]).tobytes() == system.x.tobytes()
        assert np.array_equal(req["system"]["types"], system.type)
        assert req["solver"] == SPEC.to_dict() and req["system"]["species"] == ["Si"]
        answer = {"schema": 1, "energy": -0.1, "virial": 5e-324, "n": system.n,
                  "batch": {"index": 0, "size": 1}, "forces": -system.x}
        back = decode_payload(encode_payload(answer, ctype), ctype)
        assert np.asarray(back.pop("forces")).tobytes() == (-system.x).tobytes()
        assert back == {k: v for k, v in answer.items() if k != "forces"}

    def test_nan_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_payload({"x": float("nan")})
        req = _request()
        req["system"]["x"] = np.full((8, 3), np.inf)
        for ctype in CONTENT_TYPES:
            with pytest.raises(ValueError):
                encode_payload(req, ctype)


# ---- validation tiers --------------------------------------------------------


class TestValidationTaxonomy:
    """Every malformed-request family maps to a stable (tier, code)."""

    @pytest.mark.parametrize("mutate,tier,code", [
        (lambda r: [], "L0", "not_object"),
        (lambda r: {**r, "schema": 99}, "L0", "schema_version"),
        (lambda r: {k: v for k, v in r.items() if k != "solver"},
         "L0", "missing_field"),
        (lambda r: {**r, "solver": "Opt-M"}, "L0", "bad_field"),
        (lambda r: {**r, "tenant": ""}, "L0", "bad_field"),
        (lambda r: {**r, "solver": {**r["solver"], "mode": "Opt-X"}},
         "L0", "bad_solver"),
        (lambda r: {**r, "solver": {**r["solver"], "schema": 99}},
         "L0", "bad_solver"),
        (lambda r: {**r, "system": {**r["system"], "x": "atoms"}},
         "L1", "bad_positions"),
        (lambda r: {**r, "system": {**r["system"], "x": [[1.0, 2.0]]}},
         "L1", "bad_positions"),
        (lambda r: {**r, "system": {**r["system"], "box": [0, 10]}},
         "L1", "bad_box"),
        (lambda r: {**r, "system": {**r["system"],
                                    "types": [0.5] * len(r["system"]["x"])}},
         "L1", "bad_types"),
        (lambda r: {**r, "system": {**r["system"], "types": [0, 1]}},
         "L1", "bad_types"),
        (lambda r: {**r, "system": {**r["system"], "x": []}},
         "L1", "bad_positions"),
        (lambda r: {**r, "system": {**r["system"],
                                    "x": [[1e400 if j == 0 else 0.0 for j in range(3)]
                                          for _ in r["system"]["x"]]}},
         "L2", "nonfinite"),
        (lambda r: {**r, "system": {**r["system"],
                                    "box": {"lo": [0, 0, 0], "hi": [10, -1, 10]}}},
         "L2", "bad_box_extent"),
        (lambda r: {**r, "system": {**r["system"],
                                    "types": [7] * len(r["system"]["x"])}},
         "L2", "type_range"),
        (lambda r: {**r, "system": {**r["system"],
                                    "box": {"lo": [0, 0, 0], "hi": [3, 3, 3]}}},
         "L3", "cutoff_box"),
        # found by the mutated-frame property as a 500: "Si" one byte off
        (lambda r: {**r, "system": {**r["system"], "species": ["S "]}},
         "L3", "species_mismatch"),
    ])
    def test_tier_and_code(self, mutate, tier, code):
        with pytest.raises(RequestError) as info:
            validate_request(mutate(_request()))
        assert (info.value.tier, info.value.code) == (tier, code)

    def test_empty_system_is_l2(self):
        # JSON can't distinguish (0,) from (0,3); hand the validator a
        # true (0,3) array to reach the L2 emptiness check
        req = _request()
        req["system"]["x"] = np.zeros((0, 3))
        req["system"].pop("types", None)
        with pytest.raises(RequestError) as info:
            validate_request(req)
        assert (info.value.tier, info.value.code) == ("L2", "empty")

    def test_too_large_is_l2(self):
        with pytest.raises(RequestError) as info:
            validate_request(_request(), max_atoms=8)
        assert (info.value.tier, info.value.code) == ("L2", "too_large")

    def test_valid_request_passes(self):
        spec, system, tenant = validate_request(_request())
        assert spec == SPEC
        assert tenant == "default"
        assert system.n == _system().n

    def test_http_taxonomy(self, server):
        """Over the wire each family keeps its typed 400, in either encoding."""
        for ctype in CONTENT_TYPES:
            for req, want in [
                ({**_request(), "schema": 99}, ("L0", "schema_version")),
                ({**_request(), "system": {"x": [[1, 2]], "box": {"lo": [0, 0, 0],
                                                                  "hi": [9, 9, 9]}}},
                 ("L1", "bad_positions")),
                ({**_request(), "system": {**_request()["system"], "types": [0.5] * 64}},
                 ("L1", "bad_types")),
                ({**_request(), "system": {**_request()["system"], "types": [2**32] * 64}},
                 ("L2", "type_range")),
            ]:
                assert _refusal(server.address, encode_payload(req, ctype), ctype) \
                    == (400, *want), ctype

    def test_http_undecodable_body(self, server):
        for ctype, body in [(JSON_CONTENT_TYPE, b"{nope"), (FRAME_CONTENT_TYPE, b"{nope"),
                            (FRAME_CONTENT_TYPE, b"")]:
            assert _refusal(server.address, body, ctype) == (400, "L0", "undecodable")

    def test_http_unknown_content_type(self, server):
        """Two codecs on every host: any other content type, whatever
        happens to be installed, is the same typed L0 reject."""
        body = encode_payload(_request())
        with ServeClient(server.address) as c:
            for ctype in ("application/msgpack", "application/x-unknown", "text/json"):
                conn = c._connection()
                conn.request("POST", "/v1/evaluate", body=body,
                             headers={"Content-Type": ctype})
                resp = conn.getresponse()
                error = json.loads(resp.read())["error"]
                assert resp.status == 400
                assert (error["tier"], error["code"]) == ("L0", "undecodable")
                assert "unsupported content type" in error["message"]
                with pytest.raises(ProtocolError, match="unsupported content type"):
                    encode_payload({}, ctype)
            assert c.stats()["content_types"] == [
                "application/x-repro-frame", "application/json"]

    def test_http_not_found(self, client):
        with pytest.raises(ServeError) as info:
            client._request("GET", "/v1/nope")
        assert info.value.status == 404


# ---- serve-equivalence (the bitwise contract) --------------------------------


class TestServeEquivalence:
    @pytest.mark.parametrize("mode", ["Opt-D", "Opt-S", "Opt-M"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_bitwise_vs_direct(self, client, mode, cache):
        """A serve response is bit-for-bit the direct local evaluation
        of the same spec — across precisions and cache on/off."""
        spec = SolverSpec(potential="tersoff", mode=mode, cache=cache)
        system = _system()
        direct = SolverSession(spec, skin=1.0)
        ref = direct.evaluate(system)
        ref_forces = copy_forces(ref)
        out = client.evaluate(spec.to_dict(), system)
        assert out["energy"] == ref.energy
        assert out["virial"] == ref.virial
        assert np.array_equal(out["forces"], ref_forces)

    def test_bitwise_sw(self, client):
        spec = SolverSpec(potential="sw", mode="Opt-D")
        system = _system()
        direct = SolverSession(spec, skin=1.0)
        ref_forces = copy_forces(direct.evaluate(system))
        out = client.evaluate(spec.to_dict(), system)
        assert np.array_equal(out["forces"], ref_forces)

    def test_warm_repeat_is_bitwise_and_hits_pool(self, client):
        """Repeat requests reuse the warm session (pool hit + cache
        hits) and still answer bitwise identically."""
        system = _system()
        direct = SolverSession(SPEC, skin=1.0)
        ref = copy_forces(direct.evaluate(system))
        outs = [client.evaluate(SPEC.to_dict(), system) for _ in range(3)]
        for out in outs:
            assert np.array_equal(out["forces"], ref)
        stats = client.stats()
        assert stats["pool"]["session_misses"] == 1
        assert stats["pool"]["session_hits"] == 2
        (sess,) = stats["pool"]["sessions"]
        assert sess["requests"] == 3
        # the interaction cache actually fired on the warm session
        assert sess["cache"] is None or sess["cache"]["hits"] >= 1

    def test_drift_sequence_matches_md_semantics(self, client):
        """A sequence of drifting geometries through serve equals the
        same sequence through a local session (ensure()-gated rebuild
        decisions are deterministic, so the histories align)."""
        rng = np.random.default_rng(5)
        base = _system()
        direct = SolverSession(SPEC, skin=1.0)
        for step in range(4):
            drifted = base.copy()
            drifted.x = base.x + 0.02 * step * rng.standard_normal(base.x.shape)
            ref = copy_forces(direct.evaluate(drifted))
            out = client.evaluate(SPEC.to_dict(), drifted)
            assert np.array_equal(out["forces"], ref), f"diverged at step {step}"

    def test_same_n_requests_in_different_boxes(self, client):
        """Two same-`n` requests on one warm session, a (T, T, F) slab and
        then the same positions fully periodic: each answers what a fresh
        direct session answers for its own box."""
        bulk = _system()
        slab = bulk.copy()
        slab.box = Box(bulk.box.lo, bulk.box.hi, (True, True, False))
        for system in (slab, bulk):
            ref = SolverSession(SPEC, skin=1.0).evaluate(system)
            out = client.evaluate(SPEC.to_dict(), system)
            assert out["energy"] == ref.energy
            assert np.array_equal(out["forces"], copy_forces(ref))

    def test_cache_on_off_sessions_agree(self, client):
        """Cold and cached serve sessions answer identically (the
        PR-2/5 bitwise cache contract, observed end to end)."""
        system = _system()
        on = client.evaluate(SolverSpec(mode="Opt-M", cache=True).to_dict(), system)
        off = client.evaluate(SolverSpec(mode="Opt-M", cache=False).to_dict(), system)
        assert on["energy"] == off["energy"]
        assert np.array_equal(on["forces"], off["forces"])


    def test_encodings_agree_bitwise(self, server):
        """One system, asked in JSON and in a frame (each on its own
        tenant, so on its own fresh list): the same bits as each other
        and as direct evaluation, -0.0 and subnormal coordinates included."""
        system = _system()
        system.x[0] = [-0.0, 5e-324, -2.5e-310]
        ref = SolverSession(SPEC, skin=1.0).evaluate(system)
        with ServeClient(server.address) as frames, JsonClient(server.address) as curl:
            for tenant, c in (("frames", frames), ("curl", curl)):
                out = c.evaluate(SPEC.to_dict(), system, tenant=tenant)
                assert (out["energy"], out["virial"], out["n"]) \
                    == (ref.energy, ref.virial, system.n)
                assert out["forces"].tobytes() == copy_forces(ref).tobytes()


class TestServeEquivalenceJson(TestServeEquivalence):
    """The same battery through the JSON encoding."""

    @pytest.fixture()
    def client(self, server):
        with JsonClient(server.address) as c:
            yield c

    def test_the_battery_speaks_json(self, client):
        assert type(client) is JsonClient


@pytest.mark.parametrize("backend", [
    "numpy", pytest.param("compiled", marks=needs_compiled)])
def test_a_session_answers_for_the_box_it_is_given(backend):
    """The same 512 positions as a (T, T, F) slab, then fully periodic:
    the warm session used to keep the slab's list and answer the slab's
    energy again (-2198.36 eV against -2330.16 eV).  It answers what a
    fresh session answers."""
    spec = SolverSpec(mode="Opt-D", backend=backend)
    bulk = _system(cells=4)
    slab = bulk.copy()
    slab.box = Box(bulk.box.lo, bulk.box.hi, (True, True, False))
    session = SolverSession(spec, skin=1.0)
    e_slab = session.evaluate(slab).energy
    warm = session.evaluate(bulk)
    warm_forces = copy_forces(warm)
    fresh = SolverSession(spec, skin=1.0).evaluate(bulk)
    assert warm.energy == fresh.energy != e_slab
    assert np.array_equal(warm_forces, copy_forces(fresh))


# ---- frames from a hostile peer -----------------------------------------------


def _tampered(case: str) -> bytes:
    head, manifest, blob = _frame_parts()
    (x,) = manifest
    good = _seal(_record(head, manifest, blob))
    if case == "crc":
        return good[:-9] + bytes([good[-9] ^ 0x10]) + good[-8:]
    if case == "truncated":
        return good[:-7]
    if case == "trailing":
        return good + b"\0"
    if case == "deflated":
        return _seal(zlib.compress(_record(head, manifest, blob)), FLAG_ZLIB)
    if case == "bomb":  # 64 MiB of zeros in 64 KiB: refused by its flag, not its size
        return _seal(zlib.compress(bytes(1 << 26)), FLAG_ZLIB)
    if case == "object_dtype":
        manifest = [{**x, "dtype": "|O"}]
    elif case == "nbytes_lies":
        manifest = [{**x, "shape": [x["shape"][0] + 1, 3]}]
    elif case == "negative_dim":
        manifest = [{**x, "shape": [-x["shape"][0], -3]}]
    elif case == "unknown_name":
        manifest = [x, {**x, "name": "system.v"}]
        blob += blob
    elif case == "duplicate_name":
        manifest = [x, x]
        blob += blob
    elif case == "x_is_f4":
        manifest = [{**x, "dtype": "<f4", "shape": [2 * x["shape"][0], 3]}]
    elif case == "x_is_str":
        manifest = [{**x, "dtype": "<U2"}]
    elif case == "types_are_floats":
        n = x["shape"][0]
        manifest = [x, {"name": "system.types", "dtype": "<f8", "shape": [n], "nbytes": 8 * n}]
        blob += bytes(8 * n)
    elif case == "nan":
        blob = np.full(x["shape"], np.nan).tobytes()
    elif case == "inf":
        blob = blob[:-8] + np.array([-np.inf]).tobytes()
    return _seal(_record(head, manifest, blob))


class TestFrameRefusals:
    """A frame is bytes a stranger wrote.  Each way to get one wrong has
    its typed ``(tier, code)``, returned over the socket as a 400."""

    @pytest.mark.parametrize("case,tier,code", [
        ("crc", "L0", "undecodable"),
        ("truncated", "L0", "undecodable"),
        ("trailing", "L0", "undecodable"),
        ("deflated", "L0", "undecodable"),
        ("bomb", "L0", "undecodable"),
        ("object_dtype", "L0", "undecodable"),
        ("nbytes_lies", "L0", "undecodable"),
        ("negative_dim", "L0", "undecodable"),
        ("unknown_name", "L0", "undecodable"),
        ("duplicate_name", "L0", "undecodable"),
        ("x_is_f4", "L1", "bad_positions"),
        ("x_is_str", "L1", "bad_positions"),
        ("types_are_floats", "L1", "bad_types"),
        # JSON could not carry these; in a frame only L2 stands in the way
        ("nan", "L2", "nonfinite"),
        ("inf", "L2", "nonfinite"),
    ])
    def test_typed_refusal(self, server, monkeypatch, case, tier, code):
        def inflate(*args, **kwargs):
            raise AssertionError("the server inflated a frame it had not measured")

        monkeypatch.setattr(zlib, "decompress", inflate)
        assert _refusal(server.address, _tampered(case)) == (400, tier, code)
        assert server.stats()["server"]["rejected_invalid"] == 1

    def test_untampered_frame_is_served(self, server):
        """The battery's starting point is a request the server answers."""
        resp, out = _post(server.address, _seal(_record(*_frame_parts())), FRAME_CONTENT_TYPE)
        assert resp.status == 200 and resp.headers["Content-Type"] == FRAME_CONTENT_TYPE
        ref = SolverSession(SPEC, skin=1.0).evaluate(_system())
        assert out["forces"].tobytes() == copy_forces(ref).tobytes()

    @pytest.mark.parametrize("ctype", CONTENT_TYPES)
    def test_oversized_content_length_is_refused_unread(self, tmp_path, ctype):
        """The header alone is enough: a typed 413, the connection
        closed, nothing allocated for the body that was announced."""
        with EvalServer(ServeConfig(unix_path=str(tmp_path / "s.sock"), max_atoms=64)) as srv:
            body = encode_payload(_request(), ctype)  # 64 atoms: fits
            assert _post(srv.address, body, ctype)[0].status == 200
            resp, out = _post(srv.address, b"", ctype, length=10**15)
            assert resp.status == 413 and resp.headers["Connection"] == "close"
            assert (out["error"]["tier"], out["error"]["code"]) == ("L0", "body_too_large")
            with ServeClient(srv.address) as c:
                assert c.health()
                assert c.stats()["server"]["rejected_invalid"] == 1

    def test_no_mutation_crashes_the_handler(self, tmp_path):
        """ROADMAP 3(e) for this boundary: whatever is done to a frame's
        bytes or manifest, the answer is a typed 4xx or a 200 that is
        bitwise what a local pool gives for the request as decoded —
        never a 500, a dropped connection or a hang."""
        head, (x,), blob = _frame_parts()
        n = x["shape"][0]
        types = {"name": "system.types", "dtype": "<i4", "shape": [n], "nbytes": 4 * n}
        blob += bytes(8 * n)  # room for a type array of zeros, up to <i8
        junk = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.text(max_size=8),
                         st.floats(allow_nan=False), st.lists(st.integers(-3, 3), max_size=3))
        field = st.one_of(
            st.tuples(st.just("dtype"), st.one_of(junk, st.sampled_from(
                ["<f8", ">f8", "<f4", "<i4", "<i8", "<u1", "|O", "<U4", "|V8", "|S0", "<M8[ns]",
                 "f8,i4", "<c16", "|b1", "", "O8", "(2,3)f8", ",", "4)"]))),
            st.tuples(st.just("shape"), st.one_of(junk, st.lists(st.one_of(
                junk, st.sampled_from([0, 1, 3, n, 3 * n, -1, -n, 2**31, 2**63, 2**64])),
                max_size=3))),
            st.tuples(st.just("nbytes"), st.one_of(junk, st.sampled_from(
                [0, 4 * n, 8 * n, 24 * n, 24 * n + 1, -24 * n, 2**40]))),
            st.tuples(st.just("name"), st.one_of(junk, st.sampled_from(
                ["system.x", "system.types", "forces", "system", "system.box", ".x"]))),
        )
        entry = st.tuples(st.sampled_from([x, types]), st.lists(field, max_size=2)).map(
            lambda pair: {**pair[0], **dict(pair[1])})
        system_patch = st.tuples(
            st.sampled_from(["box", "species", "x", "types"]),
            st.one_of(junk, st.fixed_dictionaries({}, optional={
                "lo": junk, "hi": junk, "periodic": junk}).map(
                    lambda sub: {**head["system"]["box"], **sub}))).map(
                        lambda kv: {"system": {**head["system"], kv[0]: kv[1]}})
        mutation = st.one_of(
            st.tuples(st.just("manifest"), st.lists(st.one_of(entry, junk), max_size=3)),
            st.tuples(st.just("head"), st.one_of(system_patch, st.tuples(
                st.sampled_from(["schema", "solver", "tenant", "system"]), junk).map(
                    lambda kv: {kv[0]: kv[1]}))),
            # bytes of the sealed payload: the CRC holds, so the parsers see them
            st.tuples(st.just("payload"), st.lists(
                st.tuples(st.integers(0, len(blob) + 600), st.integers(0, 255)),
                min_size=1, max_size=3)),
            # the frame itself: magic, flags, length, CRC, a cut or a padded tail
            st.tuples(st.just("frame"), st.tuples(
                st.integers(0, 12), st.integers(0, 255), st.integers(-40, 40))),
        )

        with EvalServer(ServeConfig(unix_path=str(tmp_path / "s.sock"))) as srv:
            mirror = SolverPool(skin=1.0)

            @given(mutation)
            @settings(max_examples=400, deadline=None)
            def mutate(mutation):
                kind, arg = mutation
                payload = bytearray(_record(
                    {**head, **(arg if kind == "head" else {})},
                    arg if kind == "manifest" else [x, types], blob))
                if kind == "payload":
                    for at, byte in arg:
                        payload[at % len(payload)] = byte
                body = _seal(bytes(payload))
                if kind == "frame":
                    at, byte, cut = arg
                    body = body[:at] + bytes([byte]) + body[at + 1:]
                    body = body[:cut] if cut < 0 else body + bytes(cut)
                resp, out = _post(srv.address, body, FRAME_CONTENT_TYPE)
                if resp.status == 200:
                    spec, system, tenant = validate_request(
                        decode_payload(body, FRAME_CONTENT_TYPE))
                    ref = mirror.evaluate(spec, system, tenant=tenant)
                    assert out["energy"] == ref.energy
                    assert out["forces"].tobytes() == copy_forces(ref).tobytes()
                else:
                    assert 400 <= resp.status < 500, out
                    assert out["error"]["tier"] in ("L0", "L1", "L2", "L3")
                    assert isinstance(out["error"]["code"], str)

            mutate()
            stats = srv.stats()["server"]
            assert stats["failed"] == 0
            assert stats["completed"] >= 1  # some mutations are harmless, and were served


# ---- pool behavior -----------------------------------------------------------


class TestPool:
    def test_lru_eviction_global_cap(self):
        pool = SolverPool(max_sessions=2, per_tenant_cap=2)
        system = _system()
        specs = [SolverSpec(mode=m) for m in ("Opt-D", "Opt-S", "Opt-M")]
        for spec in specs:
            pool.evaluate(spec, system)
        assert len(pool) == 2
        assert pool.stats.evictions == 1
        # Opt-D was LRU; re-requesting it is a miss
        pool.session(specs[0])
        assert pool.stats.session_misses == 4

    def test_per_tenant_cap_protects_others(self):
        pool = SolverPool(max_sessions=8, per_tenant_cap=1)
        system = _system()
        pool.evaluate(SolverSpec(mode="Opt-D"), system, tenant="a")
        pool.evaluate(SolverSpec(mode="Opt-S"), system, tenant="a")  # evicts a's
        pool.evaluate(SolverSpec(mode="Opt-D"), system, tenant="b")
        assert pool.stats.tenant_evictions == 1
        snap = pool.snapshot()
        tenants = sorted(s["tenant"] for s in snap["sessions"])
        assert tenants == ["a", "b"]

    def test_tenants_isolated_sessions(self, client):
        system = _system()
        client.evaluate(SPEC.to_dict(), system, tenant="alice")
        client.evaluate(SPEC.to_dict(), system, tenant="bob")
        stats = client.stats()
        assert stats["pool"]["n_sessions"] == 2
        assert set(stats["pool"]["by_tenant"]) == {"alice", "bob"}


# ---- batching and backpressure ----------------------------------------------


class TestDispatch:
    def test_batch_fusion_across_queued_requests(self, tmp_path):
        """Requests queued while the dispatcher is busy drain as one
        fused batch."""
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "b.sock")))
        try:
            # enqueue before the dispatcher exists: the first drain
            # must fuse everything
            from repro.serve.server import _Job

            jobs = [_Job(SPEC, _system(seed=s), "default") for s in range(4)]
            for job in jobs:
                assert srv.submit(job)
            srv.start()
            for job in jobs:
                assert job.event.wait(timeout=60)
                assert job.error is None
            stats = srv.stats()
            assert stats["server"]["max_batch"] == 4
            assert stats["server"]["batches"] == 1
            assert stats["server"]["fused_requests"] == 4
            # fused same-spec jobs shared one warm session
            assert stats["pool"]["session_misses"] == 1
            assert stats["pool"]["session_hits"] == 3
        finally:
            srv.close()

    def test_fused_batch_answers_are_bitwise(self, tmp_path):
        """Fusion is dispatch-only: each fused request's answer equals
        its own direct evaluation."""
        from repro.serve.server import _Job

        systems = [_system(seed=s) for s in range(3)]
        refs = []
        direct = SolverSession(SPEC, skin=1.0)
        for s in systems:
            refs.append(copy_forces(direct.evaluate(s)))
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "c.sock")))
        try:
            jobs = [_Job(SPEC, s, "default") for s in systems]
            for job in jobs:
                srv.submit(job)
            srv.start()
            for job, ref in zip(jobs, refs):
                assert job.event.wait(timeout=60)
                assert np.array_equal(job.response and np.asarray(
                    job.response["forces"]), ref)
        finally:
            srv.close()

    def test_backpressure_typed_429(self, tmp_path):
        """With the dispatcher wedged, requests beyond the backlog get
        an immediate typed 429 instead of queueing latency."""
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "d.sock"),
                                     backlog=2, request_timeout=0.5))
        # wedge: replace the dispatchers with one no-op thread before start,
        # and leave the session busy, as a long evaluation does, so no
        # request is evaluated inline
        srv._dispatchers = [threading.Thread(target=lambda: None, daemon=True)]
        srv._busy.add(("default", SPEC.key()))
        srv.start()
        try:
            req = _request()
            results = []

            def fire():
                with ServeClient(srv.address, timeout=30) as c:
                    try:
                        c._request("POST", "/v1/evaluate", req)
                        results.append(("ok", None))
                    except ServeError as exc:
                        results.append((exc.status, exc.code))

            threads = [threading.Thread(target=fire) for _ in range(4)]
            for t in threads:
                t.start()
                time.sleep(0.05)  # deterministic arrival order
            for t in threads:
                t.join(timeout=30)
            statuses = sorted(r[0] for r in results)
            # 2 fill the backlog (time out at 504), 2 bounce with 429
            assert statuses == [429, 429, 504, 504]
            assert all(code == "backpressure" for s, code in results if s == 429)
            stats = srv.stats()
            assert stats["server"]["rejected_backpressure"] == 2
        finally:
            srv.close()

    def test_timed_out_request_is_never_evaluated(self, tmp_path):
        """A request answered 504 is abandoned: the dispatcher that
        reaches it later skips it and counts it failed, not completed."""
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "t.sock"),
                                     request_timeout=0.3))
        # wedge as in test_backpressure_typed_429: the request queues
        srv._dispatchers = [threading.Thread(target=lambda: None, daemon=True)]
        busy = ("default", SPEC.key())
        srv._busy.add(busy)
        srv.start()
        dispatcher = threading.Thread(target=srv._dispatch_loop, daemon=True)
        try:
            with ServeClient(srv.address, timeout=30) as c:
                with pytest.raises(ServeError) as info:
                    c.evaluate(SPEC.to_dict(), _system())
            assert (info.value.status, info.value.code) == (504, "timeout")
            srv._busy.discard(busy)  # the long evaluation is over
            dispatcher.start()  # now the queued job is picked up
            deadline = time.monotonic() + 30
            while srv.stats()["server"]["failed"] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            server = srv.stats()["server"]
            assert (server["completed"], server["failed"]) == (0, 1)
            assert srv.pool.stats.requests == 0
        finally:
            srv.close()
            dispatcher.join(timeout=10)
        assert not dispatcher.is_alive()

    # ---- the session-parallel dispatch contract ----

    @pytest.mark.skipif(usable_cores() < 2, reason="one dispatcher per usable core")
    def test_two_sessions_evaluate_at_once(self, tmp_path, monkeypatch):
        """Jobs of two sessions are inside ``evaluate`` together: each
        waits at a barrier the other must reach (a timeout, not a hang,
        when they do not overlap)."""
        from repro.serve.server import _Job

        barrier = threading.Barrier(2, timeout=20)
        evaluate = SolverSession.evaluate

        def meet(sess, system):
            barrier.wait()
            return evaluate(sess, system)

        monkeypatch.setattr(SolverSession, "evaluate", meet)
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "p.sock")))
        jobs = [_Job(SPEC, _system(), "a"), _Job(SPEC, _system(), "b")]
        try:
            for job in jobs:
                assert srv.submit(job)
            srv.start()
            assert all(job.event.wait(timeout=60) for job in jobs)
        finally:
            srv.close()
        assert [job.error for job in jobs] == [None, None]

    def test_interleaved_sessions_match_a_direct_replay(self, tmp_path):
        """Two client threads interleave jobs over three sessions; each
        session's answers are bitwise a direct, sequential replay of its
        jobs in arrival order.  Jitters below skin/2 keep a list built at
        another snapshot, whose row order then shows in SW's bits."""
        from repro.serve.server import _Job

        sw = SolverSpec(potential="sw", mode="Opt-D")
        keys = [("a", sw), ("b", sw), ("a", SPEC)]
        base, rng = perturbed(diamond_lattice(3, 3, 3), 0.3, seed=1), np.random.default_rng(0)
        systems = [base.copy() for _ in range(6)]
        for snap in systems:
            snap.x = snap.x + rng.uniform(-0.12, 0.12, size=snap.x.shape)
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "r.sock")))
        srv.start()
        arrived, lock = [], threading.Lock()

        def client(c):
            rng = np.random.default_rng(c)
            for _ in range(12):
                k, s = int(rng.integers(3)), int(rng.integers(6))
                job = _Job(keys[k][1], systems[s], keys[k][0])
                with lock:  # the FIFO's order is the arrival order
                    if srv.submit(job):
                        arrived.append((k, s, job))
                time.sleep(0.0005)  # no waiting for answers: sessions queue up

        try:
            threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert all(job.event.wait(timeout=60) for *_, job in arrived)
        finally:
            srv.close()
        assert len(arrived) == 24
        assert all(job.error is None for *_, job in arrived)
        direct = [SolverSession(spec, skin=1.0) for _, spec in keys]
        for k, s, job in arrived:
            ref = copy_forces(direct[k].evaluate(systems[s]))
            assert np.array_equal(np.asarray(job.response["forces"]), ref)

    def test_no_session_is_evaluated_twice_at_once(self, tmp_path, monkeypatch):
        """Four dispatchers (more than the cores), a short switch interval
        and jobs arriving while their session is busy: no session is ever
        inside ``evaluate`` twice, and no count is lost."""
        import repro.serve.server as server_module
        from repro.serve.server import _Job

        inside, overlaps, lock = set(), [], threading.Lock()
        evaluate = SolverPool.evaluate

        def watched(pool, spec, system, *, tenant="default"):
            key = (tenant, spec.key())
            with lock:
                if key in inside:
                    overlaps.append(key)
                inside.add(key)
            time.sleep(0.002)  # widen the window a second dispatcher would need
            try:
                return evaluate(pool, spec, system, tenant=tenant)
            finally:
                with lock:
                    inside.discard(key)

        monkeypatch.setattr(SolverPool, "evaluate", watched)
        monkeypatch.setattr(server_module, "usable_cores", lambda: 4)
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "w.sock")))
        srv.start()
        jobs = [_Job(SPEC, _system(seed=k), "abc"[k % 5 % 3]) for k in range(30)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for job in jobs:  # arrivals while the session is busy
                assert srv.submit(job)
                time.sleep(0.001)
            assert all(job.event.wait(timeout=60) and job.error is None for job in jobs)
        finally:
            sys.setswitchinterval(interval)
            srv.close()
        assert len(srv._dispatchers) == 4 and overlaps == []
        assert srv.stats()["server"]["completed"] == srv.pool.stats.requests == 30

    @pytest.mark.skipif(usable_cores() < 2, reason="one dispatcher per usable core")
    def test_evicted_mid_evaluation_finishes_first(self, tmp_path, monkeypatch):
        """``max_sessions=1``: a second session evicts one that is mid-
        evaluation; that call still answers (bitwise), and the evicted
        key's next session is built only after it returned."""
        from repro.serve.server import _Job

        spec_a, spec_b = SPEC, SolverSpec(potential="tersoff", mode="Opt-D")
        log, entered, gate = [], threading.Event(), threading.Event()
        init, evaluate = SolverSession.__init__, SolverSession.evaluate

        def built(sess, spec, **kw):
            init(sess, spec, **kw)
            log.append(("built", spec.key()))

        def held(sess, system):
            if sess.spec == spec_a and not entered.is_set():
                entered.set()
                assert gate.wait(timeout=20)
            out = evaluate(sess, system)
            log.append(("returned", sess.spec.key()))
            return out

        monkeypatch.setattr(SolverSession, "__init__", built)
        monkeypatch.setattr(SolverSession, "evaluate", held)
        system = _system()
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "v.sock"), max_sessions=1))
        srv.start()
        try:
            first = _Job(spec_a, system, "t")
            assert srv.submit(first) and entered.wait(timeout=20)
            other = _Job(spec_b, system, "t")
            assert srv.submit(other) and other.event.wait(timeout=60)
            again = _Job(spec_a, system, "t")
            assert srv.submit(again)
            time.sleep(0.05)  # room for a wrong dispatcher to rebuild spec_a early
            gate.set()
            assert first.event.wait(timeout=60) and again.event.wait(timeout=60)
        finally:
            gate.set()
            srv.close()
        assert first.error is None and again.error is None
        assert srv.pool.stats.evictions == 2
        a = spec_a.key()
        assert log.index(("returned", a)) < len(log) - 1 - log[::-1].index(("built", a))
        assert [e for e in log if e == ("built", a)] == [("built", a)] * 2
        ref = copy_forces(SolverSession(spec_a, skin=1.0).evaluate(system))
        assert np.array_equal(np.asarray(first.response["forces"]), ref)


# ---- inline evaluation -------------------------------------------------------


def _watch_evaluate(monkeypatch, hold=lambda tenant: None):
    """Record ``(event, tenant, thread name)`` around every pool
    evaluation; ``hold(tenant)`` runs inside, before the evaluation."""
    log, evaluate = [], SolverPool.evaluate

    def watched(pool, spec, system, *, tenant="default"):
        name = threading.current_thread().name
        log.append(("in", tenant, name))
        hold(tenant)
        try:
            return evaluate(pool, spec, system, tenant=tenant)
        finally:
            log.append(("out", tenant, name))

    monkeypatch.setattr(SolverPool, "evaluate", watched)
    return log


def _fire(address, system, tenant, answers):
    with ServeClient(address, timeout=60) as c:
        answers.append(c.evaluate(SPEC.to_dict(), system, tenant=tenant))


def _until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestInline:
    def test_an_idle_server_answers_on_the_handler_thread(self, server, client, monkeypatch):
        log = _watch_evaluate(monkeypatch)
        system = _system()
        out = client.evaluate(SPEC.to_dict(), system)
        ref = SolverSession(SPEC, skin=1.0).evaluate(system)
        assert np.array_equal(out["forces"], copy_forces(ref))
        assert (out["energy"], out["virial"]) == (ref.energy, ref.virial)
        (_, _, entered), (_, _, left) = log
        assert entered == left != "serve-dispatcher"  # one handler thread, in and out
        stats = server.stats()["server"]
        assert (stats["inline"], stats["completed"], stats["batches"]) == (1, 1, 1)

    def test_a_request_for_a_busy_session_queues(self, server, monkeypatch):
        """The first evaluation is held; a second request for its session
        queues, and a dispatcher answers it after the first returned, as a
        direct replay in arrival order."""
        entered, gate = threading.Event(), threading.Event()

        def hold(tenant):
            if not entered.is_set():
                entered.set()
                assert gate.wait(timeout=20)

        log = _watch_evaluate(monkeypatch, hold)
        systems, first, second = [_system(seed=1), _system(seed=2)], [], []
        threads = [threading.Thread(target=_fire, args=(server.address, systems[0], "default", first)),
                   threading.Thread(target=_fire, args=(server.address, systems[1], "default", second))]
        try:
            threads[0].start()
            assert entered.wait(timeout=20)
            threads[1].start()
            _until(lambda: server.stats()["queue_depth"] == 1)
            assert len(log) == 1  # no dispatcher claimed the busy session
        finally:
            gate.set()
            for t in threads:
                t.join(timeout=60)
        assert [(event, name == "serve-dispatcher") for event, _, name in log] == [
            ("in", False), ("out", False), ("in", True), ("out", True)]
        assert server.stats()["server"]["inline"] == 1
        direct = SolverSession(SPEC, skin=1.0)
        for system, (out,) in zip(systems, (first, second)):
            assert np.array_equal(out["forces"], copy_forces(direct.evaluate(system)))

    def test_inline_work_never_outnumbers_the_dispatchers(self, tmp_path, monkeypatch):
        """With as many sessions busy as there are dispatchers, a request
        for a third session queues and a dispatcher answers it."""
        import repro.serve.server as server_module

        monkeypatch.setattr(server_module, "usable_cores", lambda: 2)
        gate = threading.Event()
        log = _watch_evaluate(monkeypatch, lambda t: t in ("a", "b") and gate.wait(timeout=20))
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "i.sock")))
        srv.start()
        system, answers = _system(), []
        held = [threading.Thread(target=_fire, args=(srv.address, system, t, answers))
                for t in "ab"]
        try:
            for t in held:
                t.start()
            _until(lambda: len(srv._busy) == 2)
            _fire(srv.address, system, "c", answers)  # answers while a and b are held
            assert not gate.is_set() and len(answers) == 1
        finally:
            gate.set()
            for t in held:
                t.join(timeout=60)
            srv.close()
        names = {tenant: name for event, tenant, name in log if event == "in"}
        assert names["c"] == "serve-dispatcher"
        assert "serve-dispatcher" not in (names["a"], names["b"])
        assert srv.stats()["server"]["inline"] == 2


class TestResponseWrite:
    def test_head_and_body_go_out_in_one_write(self, server, monkeypatch):
        """A frame answer, a JSON answer and a JSON error: one write each,
        the exact Content-Length, a parseable Date and the bitwise body."""
        import socketserver
        from email.utils import parsedate_to_datetime

        writes, write = [], socketserver._SocketWriter.write
        monkeypatch.setattr(socketserver._SocketWriter, "write",
                            lambda w, data: writes.append(len(data)) or write(w, data))
        system = _system()
        ref = SolverSession(SPEC, skin=1.0).evaluate(system)
        answer = {"schema": SERVE_SCHEMA_VERSION, "energy": float(ref.energy),
                  "virial": float(ref.virial), "forces": copy_forces(ref),
                  "n": system.n, "batch": {"index": 0, "size": 1}}
        error = {"schema": SERVE_SCHEMA_VERSION,
                 "error": {"tier": None, "code": "not_found", "message": "no route /nope"}}
        cases = [("POST", "/v1/evaluate", FRAME_CONTENT_TYPE, 200, answer),
                 ("POST", "/v1/evaluate", JSON_CONTENT_TYPE, 200, answer),
                 ("GET", "/nope", JSON_CONTENT_TYPE, 404, error)]
        for method, path, ctype, status, expected in cases:
            with ServeClient(server.address, timeout=30) as c:
                conn = c._connection()
                body = encode_payload(_request(system=system), ctype) if method == "POST" else None
                conn.request(method, path, body, {"Content-Type": ctype})
                resp = conn.getresponse()
                raw = resp.read()
            assert (resp.status, resp.headers["Content-Type"]) == (status, ctype)
            assert int(resp.headers["Content-Length"]) == len(raw)
            assert abs(parsedate_to_datetime(resp.headers["Date"]).timestamp() - time.time()) < 60
            assert raw == encode_payload(expected, ctype)
        assert len(writes) == len(cases)


# ---- lifecycle ---------------------------------------------------------------


class TestLifecycle:
    @pytest.mark.parametrize("skin", [float("nan"), float("inf"), -1.0])
    def test_bad_skin_refused_at_construction(self, skin):
        """Not a server that answers 0.0 (NaN) or a 500 on every request (-1)."""
        with pytest.raises(ValueError, match="skin must be finite and non-negative"):
            ServeConfig(skin=skin)

    def test_cli_refuses_bad_skin(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        # a server that got as far as serving returns at once instead
        monkeypatch.setattr(EvalServer, "serve_forever", lambda self: None)
        path = tmp_path / "never.sock"
        assert main(["serve", "--unix", str(path), "--skin", "nan"]) == 2
        assert capsys.readouterr().err.startswith("serve: skin must be finite")
        assert not path.exists()

    def test_close_unlinks_socket_and_stops_threads(self, tmp_path):
        path = tmp_path / "e.sock"
        srv = EvalServer(ServeConfig(unix_path=str(path)))
        srv.start()
        assert path.exists()
        assert len(srv._dispatchers) == usable_cores()
        srv.close()
        assert not path.exists()
        assert not any(t.is_alive() for t in srv._dispatchers)
        srv.close()  # idempotent

    def test_an_open_server_is_cleaned_up_at_exit(self, tmp_path):
        """A started server the process never closes still unlinks its
        socket path when the interpreter exits."""
        path = tmp_path / "exit.sock"
        script = ("import os, sys\n"
                  "from repro.serve import EvalServer, ServeConfig\n"
                  "srv = EvalServer(ServeConfig(unix_path=sys.argv[1])).start()\n"
                  "print(os.path.exists(sys.argv[1]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                             capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout.strip(), out.stderr) == (0, "True", "")
        assert not path.exists()

    def test_tcp_ephemeral_port(self):
        srv = EvalServer(ServeConfig(host="127.0.0.1", port=0))
        srv.start()
        try:
            host, port = srv.address.rsplit(":", 1)
            assert int(port) > 0
            with ServeClient(srv.address) as c:
                assert c.health()
        finally:
            srv.close()

    def test_kill_server_mid_request_leaves_no_orphans(self, tmp_path):
        """SIGKILL while a request is in flight: the client sees a
        broken connection, the server leaves no child processes, and a
        fresh server can rebind the same socket path immediately."""
        sock = tmp_path / "kill.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", str(sock)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert "serving on" in proc.stdout.readline()
            # the serve process is threads-only: no children to orphan
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            if children.exists():
                assert children.read_text().strip() == ""

            outcome = {}

            def fire():
                try:
                    with ServeClient(str(sock), timeout=30) as c:
                        outcome["resp"] = c.evaluate(SPEC.to_dict(), _system(3))
                except Exception as exc:  # noqa: BLE001 - recording kind
                    outcome["err"] = type(exc).__name__

            t = threading.Thread(target=fire)
            t.start()
            time.sleep(0.15)  # let the request reach the server
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            t.join(timeout=30)
            assert not t.is_alive()
            assert "err" in outcome or "resp" in outcome
            # stale socket path survives SIGKILL; a new server rebinds
            srv = EvalServer(ServeConfig(unix_path=str(sock)))
            srv.start()
            try:
                with ServeClient(str(sock)) as c:
                    assert c.health()
            finally:
                srv.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
