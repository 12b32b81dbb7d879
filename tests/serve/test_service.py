"""Service-tier behaviour, driven entirely in-process.

Every test routes through :func:`repro.serve.dispatch` — the same
router the socket server uses — with either the real
:func:`execute_job` worker or an injected runner, so no test opens a
socket.  Covers the three contractual behaviours the subsystem exists
for: endpoint semantics, backpressure (queue full -> 429 + Retry-After,
then drain), and coalescing (N identical concurrent requests -> exactly
one compile + one simulate).
"""

import asyncio
import copy
import json
import threading
import time

from repro.serve import (ReproService, ServeConfig, dispatch,
                         execute_job)

SPEC = {"version": 1, "seed": 7, "n": 64,
        "steps": [{"kind": "map", "reads": 1, "depth": 1,
                   "expr_seed": 2, "data_seed": 3, "par": 4}]}


def _spec(seed: int) -> dict:
    out = copy.deepcopy(SPEC)
    out["seed"] = seed          # seed is spec content -> distinct key
    return out


def _body(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def _config(tmp_path, **kw) -> ServeConfig:
    kw.setdefault("jobs", 1)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    kw.setdefault("data_dir", str(tmp_path / "data"))
    return ServeConfig(**kw)


async def _until(pred, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            raise AssertionError(f"{what} never held")
        await asyncio.sleep(0.005)


# ---------------------------------------------------------------------------
# Endpoint semantics (real worker, thread runner)
# ---------------------------------------------------------------------------


def test_endpoints_end_to_end(tmp_path):
    async def scenario():
        service = ReproService(_config(tmp_path), runner=execute_job)

        health = await dispatch(service, "GET", "/healthz")
        assert health.status == 200 and health.json["ok"]
        assert (await dispatch(service, "POST", "/healthz")).status \
            == 405

        # fresh simulate: compiles (cache miss), runs, stores artifact
        first = await dispatch(service, "POST", "/simulate",
                               _body({"spec": SPEC}))
        assert first.status == 200, first.json
        result = first.json
        assert result["compile"]["outcome"] == "miss"
        assert result["compile"]["compiled"] is True
        assert result["stats"]["cycles"] > 0
        assert "served" not in result
        content_hash = result["content_hash"]

        # identical resubmission is replayed from the result cache
        again = await dispatch(service, "POST", "/simulate",
                               _body({"spec": SPEC}))
        assert again.status == 200
        assert again.json["served"] == "result-cache"

        # compile mode is a distinct key; hits the warm compile cache
        compiled = await dispatch(service, "POST", "/compile",
                                  _body({"spec": SPEC}))
        assert compiled.status == 200
        assert compiled.json["compile"]["outcome"] == "hit"
        assert compiled.json["artifact"]["leaves"] > 0
        assert "simulate" not in compiled.json

        # the stored artifact is downloadable and simulatable by hash
        download = await dispatch(service, "GET",
                                  f"/artifacts/{content_hash}")
        assert download.status == 200
        assert json.loads(download.body)
        by_hash = await dispatch(
            service, "POST", "/simulate",
            _body({"artifact_hash": content_hash}))
        assert by_hash.status == 200
        assert by_hash.json["compile"]["outcome"] == "stored"
        assert by_hash.json["stats"]["cycles"] \
            == result["stats"]["cycles"]

        # tracing yields attribution plus a downloadable trace
        traced = await dispatch(
            service, "POST", "/simulate",
            _body({"spec": SPEC, "params": {"trace": True}}))
        assert traced.status == 200
        assert traced.json["attribution"]
        trace = await dispatch(service, "GET",
                               traced.json["trace_url"])
        assert trace.status == 200 and json.loads(trace.body)

        # error paths
        bad_json = await dispatch(service, "POST", "/simulate",
                                  b"{nope")
        assert bad_json.status == 400
        bad_spec = await dispatch(
            service, "POST", "/simulate",
            _body({"spec": {"version": 1, "n": 16, "steps": []}}))
        assert bad_spec.status == 400
        assert bad_spec.json["detail"][0]["path"] == "spec.steps"
        assert (await dispatch(service, "GET",
                               "/artifacts/zz")).status == 400
        assert (await dispatch(service, "GET",
                               f"/artifacts/{'0' * 64}")).status == 404
        assert (await dispatch(service, "GET",
                               "/traces/../etc/passwd")).status == 400
        assert (await dispatch(service, "GET", "/nope")).status == 404

        # /statsz saw all of it (bad JSON dies in the router and never
        # reaches the service, so only the bad spec counts as invalid)
        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["requests"]["completed"] == 4
        assert stats["requests"]["invalid"] == 1
        assert stats["requests"]["result_cache_hits"] == 1
        assert stats["work"]["compiles"] == 1
        assert stats["work"]["sims"] == 3
        assert stats["compile_cache"]["misses"] == 1
        # spec + trace-variant lookups hit the warm compile cache
        assert stats["compile_cache"]["hits"] == 2
        assert stats["latency"]["count"] \
            == stats["requests"]["received"]
        await service.drain()

    asyncio.run(scenario())


def test_fresh_simulate_encodes_its_artifact_once(tmp_path, monkeypatch):
    """One job, one ``to_bytes``: the same bytes go to the compile
    cache, the content hash and the artifact store (it used to encode
    for each of the three)."""
    import hashlib

    from repro.bitstream.artifact import Bitstream

    encodes = []
    to_bytes = Bitstream.to_bytes

    def counting(self):
        encodes.append(self)
        return to_bytes(self)

    monkeypatch.setattr(Bitstream, "to_bytes", counting)

    async def scenario():
        service = ReproService(_config(tmp_path), runner=execute_job)
        fresh = await dispatch(service, "POST", "/simulate",
                               _body({"spec": _spec(11)}))
        assert fresh.status == 200, fresh.json
        assert fresh.json["compile"]["outcome"] == "miss"
        assert len(encodes) == 1
        stored = (tmp_path / "data" / "artifacts"
                  / f"{fresh.json['content_hash']}.json").read_bytes()
        (cached,) = (tmp_path / "cache").glob("*/*/*.json")
        assert cached.read_bytes() == stored == to_bytes(encodes[0])
        assert hashlib.sha256(stored).hexdigest() \
            == fresh.json["content_hash"] == encodes[0].content_hash
        await service.drain()

    asyncio.run(scenario())


def test_compiler_rejection_maps_to_422_and_is_not_cached(tmp_path):
    async def scenario():
        def runner(payload):
            from repro.errors import ReproError
            from repro.serve.workers import _error
            return _error(422, "compile", ReproError("nope"))

        service = ReproService(_config(tmp_path), runner=runner)
        response = await dispatch(service, "POST", "/simulate",
                                  _body({"spec": SPEC}))
        assert response.status == 422
        assert response.json["error"]["stage"] == "compile"
        # failures are never remembered: the same key runs again
        again = await dispatch(service, "POST", "/simulate",
                               _body({"spec": SPEC}))
        assert again.status == 422 and "served" not in again.json
        assert service.stats.failed == 2
        await service.drain()

    asyncio.run(scenario())


def test_crashing_runner_becomes_500_and_frees_the_slot(tmp_path):
    async def scenario():
        calls = []

        def runner(payload):
            calls.append(payload["job_id"])
            if len(calls) == 1:
                raise ValueError("worker bug")
            return {"ok": True, "status": 200}

        service = ReproService(_config(tmp_path), runner=runner)
        crash = await dispatch(service, "POST", "/simulate",
                               _body({"spec": SPEC}))
        assert crash.status == 500
        assert "ValueError" in crash.json["error"]
        # the slot came back: the next job runs fine
        ok = await dispatch(service, "POST", "/simulate",
                            _body({"spec": _spec(8)}))
        assert ok.status == 200
        await service.drain()

    asyncio.run(scenario())


def test_job_timeout_returns_504(tmp_path):
    async def scenario():
        def runner(payload):
            time.sleep(0.4)
            return {"ok": True, "status": 200}

        service = ReproService(_config(tmp_path, timeout_s=0.05),
                               runner=runner)
        response = await dispatch(service, "POST", "/simulate",
                                  _body({"spec": SPEC}))
        assert response.status == 504
        assert service.stats.timeouts == 1
        await service.drain()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------


def test_queue_full_rejects_with_429_then_drains(tmp_path):
    async def scenario():
        gate = threading.Event()

        def runner(payload):
            gate.wait(timeout=30)
            return {"ok": True, "status": 200,
                    "job": payload["job_id"]}

        service = ReproService(
            _config(tmp_path, jobs=1, queue_depth=2), runner=runner)

        # let the first job reach the worker before bursting: a job
        # counts against queue depth until the loop hands it a slot
        tasks = [asyncio.ensure_future(
            dispatch(service, "POST", "/simulate",
                     _body({"spec": _spec(1)})))]
        await _until(lambda: service._running == 1,
                     what="first job to start")
        tasks += [asyncio.ensure_future(
            dispatch(service, "POST", "/simulate",
                     _body({"spec": _spec(seed)})))
            for seed in (2, 3)]
        await _until(lambda: service._queued == 2,
                     what="queue to fill")

        rejected = await dispatch(service, "POST", "/simulate",
                                  _body({"spec": _spec(4)}))
        assert rejected.status == 429
        assert rejected.json["error"] == "job queue is full"
        assert rejected.json["retry_after_s"] >= 1
        assert int(rejected.headers["Retry-After"]) >= 1
        assert service.stats.rejected == 1

        health = (await dispatch(service, "GET", "/healthz")).json
        assert (health["queued"], health["running"]) == (2, 1)

        # releasing the worker drains the queue; admission reopens
        gate.set()
        responses = await asyncio.gather(*tasks)
        assert [r.status for r in responses] == [200, 200, 200]
        await _until(lambda: service._queued == 0
                     and service._running == 0, what="drain")
        accepted = await dispatch(service, "POST", "/simulate",
                                  _body({"spec": _spec(4)}))
        assert accepted.status == 200
        await service.drain()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------


def test_identical_concurrent_requests_coalesce_to_one_execution(
        tmp_path):
    """N identical concurrent requests -> exactly 1 compile + 1 sim."""
    async def scenario():
        gate = threading.Event()
        calls = []

        def runner(payload):
            gate.wait(timeout=30)
            calls.append(payload["job_id"])
            return execute_job(payload)

        service = ReproService(
            _config(tmp_path, jobs=2, queue_depth=8), runner=runner)

        n = 5
        tasks = [asyncio.ensure_future(
            dispatch(service, "POST", "/simulate",
                     _body({"spec": SPEC}))) for _ in range(n)]
        # all duplicates attach to the first request's in-flight job
        await _until(lambda: service.stats.coalesced == n - 1,
                     what="duplicates to coalesce")
        assert len(service.table) == 1
        gate.set()

        responses = await asyncio.gather(*tasks)
        assert [r.status for r in responses] == [200] * n
        served = sorted(r.json.get("served", "fresh")
                        for r in responses)
        assert served == ["coalesced"] * (n - 1) + ["fresh"]
        cycles = {r.json["stats"]["cycles"] for r in responses}
        assert len(cycles) == 1

        assert len(calls) == 1, "duplicate requests reached the worker"
        assert service.stats.compiles == 1
        assert service.stats.sims == 1
        assert service.stats.coalesced == n - 1
        await service.drain()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------


def test_drain_finishes_inflight_work_and_rejects_new(tmp_path):
    async def scenario():
        gate = threading.Event()

        def runner(payload):
            gate.wait(timeout=30)
            return {"ok": True, "status": 200}

        service = ReproService(_config(tmp_path), runner=runner)
        inflight = asyncio.ensure_future(
            dispatch(service, "POST", "/simulate",
                     _body({"spec": SPEC})))
        await _until(lambda: service._running == 1,
                     what="job to start")

        drainer = asyncio.ensure_future(service.drain())
        await asyncio.sleep(0.01)
        refused = await dispatch(service, "POST", "/simulate",
                                 _body({"spec": _spec(9)}))
        assert refused.status == 503
        assert (await dispatch(service, "GET",
                               "/healthz")).status == 503

        gate.set()
        assert (await inflight).status == 200   # in-flight completed
        await drainer

    asyncio.run(scenario())
