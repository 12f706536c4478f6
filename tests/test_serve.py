"""The evaluation service: bitwise serve-equivalence, the validation
taxonomy, warm-pool behavior, batch fusion, backpressure, and clean
death.  This file is the substance behind the CI ``serve-equivalence``
job."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.md.lattice import diamond_lattice, perturbed
from repro.runtime import SolverPool, SolverSpec
from repro.runtime.pool import SolverSession, copy_forces
from repro.serve import (
    EvalServer,
    RequestError,
    ServeClient,
    ServeConfig,
    ServeError,
    system_from_payload,
    system_payload,
    validate_request,
)
from repro.serve.loadgen import percentile, run_load
from repro.serve.protocol import (
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    decode_payload,
    encode_payload,
)

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


# ---- wire format -------------------------------------------------------------


class TestProtocol:
    def test_json_floats_round_trip_bitwise(self):
        system = _system()
        again = system_from_payload(
            decode_payload(encode_payload(system_payload(system)))
        )
        assert np.array_equal(again.x, system.x)
        assert np.array_equal(again.box.lo, system.box.lo)
        assert np.array_equal(again.box.hi, system.box.hi)

    def test_nan_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_payload({"x": float("nan")})


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

    def test_http_taxonomy(self, client):
        """Over the wire each family keeps its typed 400."""
        for req, want in [
            ({**_request(), "schema": 99}, ("L0", "schema_version")),
            ({**_request(), "system": {"x": [[1, 2]], "box": {"lo": [0, 0, 0],
                                                              "hi": [9, 9, 9]}}},
             ("L1", "bad_positions")),
        ]:
            with pytest.raises(ServeError) as info:
                client._request("POST", "/v1/evaluate", req)
            assert info.value.status == 400
            assert (info.value.tier, info.value.code) == want

    def test_http_undecodable_body(self, server):
        with ServeClient(server.address) as c:
            conn = c._connection()
            conn.request("POST", "/v1/evaluate", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400
            assert body["error"]["code"] == "undecodable"

    def test_http_unknown_content_type(self, server):
        """JSON is the only codec on every host: any other content type,
        whatever happens to be installed, is the same typed L0 reject."""
        body = encode_payload(_request())
        with ServeClient(server.address) as c:
            for ctype in ("application/msgpack", "application/x-unknown"):
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
            assert c.stats()["content_types"] == ["application/json"]

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

    def test_cache_on_off_sessions_agree(self, client):
        """Cold and cached serve sessions answer identically (the
        PR-2/5 bitwise cache contract, observed end to end)."""
        system = _system()
        on = client.evaluate(SolverSpec(mode="Opt-M", cache=True).to_dict(), system)
        off = client.evaluate(SolverSpec(mode="Opt-M", cache=False).to_dict(), system)
        assert on["energy"] == off["energy"]
        assert np.array_equal(on["forces"], off["forces"])


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
        srv = EvalServer(ServeConfig(unix_path=str(tmp_path / "b.sock"),
                                     batch_max=8))
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
        # wedge: replace the dispatcher with a no-op thread before start
        srv._dispatcher = threading.Thread(target=lambda: None, daemon=True)
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


# ---- lifecycle ---------------------------------------------------------------


class TestLifecycle:
    def test_close_unlinks_socket_and_stops_threads(self, tmp_path):
        path = tmp_path / "e.sock"
        srv = EvalServer(ServeConfig(unix_path=str(path)))
        srv.start()
        assert path.exists()
        srv.close()
        assert not path.exists()
        assert not srv._dispatcher.is_alive()
        srv.close()  # idempotent

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


# ---- loadgen -----------------------------------------------------------------


class TestLoadgen:
    def test_percentile_nearest_rank(self):
        lat = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(lat, 0) == 1.0
        assert percentile(lat, 100) == 5.0
        assert percentile(lat, 50) == 3.0
        assert np.isnan(percentile([], 50))

    def test_run_load_collects_latencies(self, server):
        result = run_load(server.address, SPEC.to_dict(),
                          system_payload(_system()), requests=6, concurrency=2)
        summary = result.summary()
        assert summary["requests"] == 6
        assert summary["errors"] == {}
        assert summary["p50_ms"] > 0
        assert summary["p99_ms"] >= summary["p50_ms"]
