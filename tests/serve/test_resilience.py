"""Serve-tier fault tolerance: crashes, retries, circuit breaking.

The injected-runner tests pin the control flow (fail fast on a dead
worker, bounded retries, breaker state machine) without real process
pools; the last two SIGKILL a real pool worker from the test and
demand that every job still completes.
"""

import asyncio
import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.serve.http import ReproServer, dispatch
from repro.serve.metrics import CircuitBreaker
from repro.serve.service import ReproService, ServeConfig
from tests.serve.test_service import _until

APP_BODY = {"app": "innerproduct", "scale": "tiny"}


def _submit(service, mode="compile", body=None):
    return asyncio.run(service.submit(mode, body or dict(APP_BODY)))


# -- worker-crash recovery ----------------------------------------------------


def test_crash_then_success_is_retried_transparently():
    calls = {"n": 0}

    def flaky(payload):
        calls["n"] += 1
        if calls["n"] == 1:
            raise BrokenProcessPool("worker died mid-job")
        return {"ok": True, "status": 200, "mode": "compile"}

    service = ReproService(
        ServeConfig(max_retries=2, retry_base_s=0.001), runner=flaky)
    status, result = _submit(service)
    assert status == 200
    assert service.stats.worker_crashes == 1
    assert service.stats.retries == 1
    assert service.stats.completed == 1


def test_persistent_crasher_fails_fast_with_typed_503():
    """Satellite: a worker dying between dispatch and result read must
    NOT wait out the wall timeout — the future breaks immediately."""

    def dead(payload):
        raise BrokenProcessPool("boom")

    service = ReproService(
        ServeConfig(max_retries=2, retry_base_s=0.001,
                    timeout_s=300.0),
        runner=dead)
    started = time.perf_counter()
    status, result = _submit(service)
    elapsed = time.perf_counter() - started
    assert status == 503
    assert result["error"]["stage"] == "worker"
    assert result["error"]["type"] == "WorkerCrashed"
    assert "job" in result
    # fail-fast: nowhere near the 300 s timeout, and no 504
    assert elapsed < 30
    assert service.stats.timeouts == 0
    assert service.stats.worker_crashes == 3   # initial + 2 retries
    assert service.stats.retries == 2


def test_crash_outcome_is_not_cached():
    calls = {"n": 0}

    def once(payload):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise BrokenProcessPool("boom")
        return {"ok": True, "status": 200, "mode": "compile"}

    service = ReproService(
        ServeConfig(max_retries=0, retry_base_s=0.001), runner=once)
    status, _ = _submit(service)
    assert status == 503
    status, _ = _submit(service)
    assert status == 503
    status, result = _submit(service)    # worker healthy again
    assert status == 200
    assert result.get("served") != "result-cache"


# -- circuit breaker ----------------------------------------------------------


def test_breaker_state_machine():
    now = [0.0]
    breaker = CircuitBreaker(threshold=2, cooldown_s=1.0,
                             clock=lambda: now[0])
    assert breaker.allow() and breaker.state == "closed"
    breaker.record(False)
    assert breaker.state == "closed"      # 1 failure < threshold
    breaker.record(False)
    assert breaker.state == "open"
    assert breaker.opened_total == 1
    assert not breaker.allow()            # shedding
    assert breaker.shed == 1
    now[0] = 1.5
    assert breaker.allow()                # half-open probe admitted
    assert breaker.state == "half-open"
    assert not breaker.allow()            # but only one probe
    breaker.record(False)                 # probe failed -> reopen
    assert breaker.state == "open"
    assert breaker.opened_total == 2
    now[0] = 3.0
    assert breaker.allow()
    breaker.record(True)                  # probe succeeded -> close
    assert breaker.state == "closed"
    assert breaker.failures == 0
    assert breaker.allow()


def test_breaker_sheds_with_503_and_retry_after():
    def dead(payload):
        raise BrokenProcessPool("boom")

    service = ReproService(
        ServeConfig(max_retries=0, retry_base_s=0.001,
                    breaker_threshold=2, breaker_cooldown_s=60.0),
        runner=dead)
    for app in ("innerproduct", "gemm"):
        status, _ = _submit(service, body={"app": app,
                                           "scale": "tiny"})
        assert status == 503
    # breaker now open: the next request is shed WITHOUT running
    status, result = _submit(service, body={"app": "tpchq6",
                                            "scale": "tiny"})
    assert status == 503
    assert "circuit breaker open" in result["error"]
    assert result["retry_after_s"] > 0
    assert service.stats.breaker_shed == 1
    # the HTTP layer turns the hint into a Retry-After header
    response = asyncio.run(dispatch(
        service, "POST", "/compile",
        b'{"app": "outerproduct", "scale": "tiny"}'))
    assert response.status == 503
    assert "Retry-After" in response.headers


def test_breaker_is_per_endpoint():
    def dead(payload):
        raise BrokenProcessPool("boom")

    service = ReproService(
        ServeConfig(max_retries=0, retry_base_s=0.001,
                    breaker_threshold=1, breaker_cooldown_s=60.0),
        runner=dead)
    status, _ = _submit(service, mode="compile")
    assert status == 503
    assert service._breakers["compile"].state == "open"
    # /simulate and /multi are unaffected by the compile breaker
    assert service._breakers["simulate"].state == "closed"
    assert service._breakers["multi"].state == "closed"


def test_client_errors_do_not_trip_the_breaker():
    def rejecting(payload):
        return {"ok": False, "status": 422,
                "error": {"stage": "compile", "type": "MappingError",
                          "message": "does not fit"}}

    service = ReproService(
        ServeConfig(breaker_threshold=2), runner=rejecting)
    for app in ("innerproduct", "gemm", "tpchq6"):
        status, _ = _submit(service, body={"app": app,
                                           "scale": "tiny"})
        assert status == 422
    assert service._breakers["compile"].state == "closed"
    assert service.stats.breaker_shed == 0


def test_statsz_reports_fault_counters_and_breakers():
    service = ReproService(ServeConfig())
    snapshot = service.statsz()
    assert snapshot["faults"] == {"worker_crashes": 0, "retries": 0,
                                  "respawns": 0, "breaker_shed": 0}
    assert set(snapshot["breakers"]) == {"compile", "simulate",
                                         "multi"}
    assert snapshot["breakers"]["compile"]["state"] == "closed"
    assert snapshot["config"]["max_retries"] == 2


async def _exchange(port: int, request: bytes):
    """Send one raw request on a fresh connection; (status line,
    headers, body) of the reply, read to the end of the stream."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 30.0)
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status, *lines = head.decode("latin-1").split("\r\n")
    headers = {name.lower(): value.strip() for name, _, value in
               (line.partition(":") for line in lines)}
    return status, headers, body


def test_service_fault_is_a_500_and_the_server_lives_on(monkeypatch):
    """A ``submit`` that raises (here ``KeyError``) is answered with a
    JSON 500 that closes its connection; the next connection is served
    as usual."""

    async def broken(mode, body):
        raise KeyError("lost job")

    service = ReproService(ServeConfig(), runner=lambda payload: {})
    monkeypatch.setattr(service, "submit", broken)

    async def scenario():
        server = ReproServer(service, port=0)
        await server.start()
        try:
            body = b'{"app": "innerproduct", "scale": "tiny"}'
            status, headers, reply = await _exchange(
                server.bound_port,
                b"POST /simulate HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
            assert status == "HTTP/1.1 500 Internal Server Error"
            assert headers["connection"] == "close"
            assert headers["content-type"].startswith("application/json")
            assert "KeyError" in json.loads(reply)["error"]
            status, _, reply = await _exchange(
                server.bound_port,
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            assert status == "HTTP/1.1 200 OK"
            assert json.loads(reply)["ok"] is True
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_a_deeply_nested_body_is_a_400():
    """A body nested past the recursion limit is malformed JSON like any
    other (a 400), not a 500; the server answers the next request."""
    service = ReproService(ServeConfig(), runner=lambda payload: {})

    async def scenario():
        direct = await dispatch(service, "POST", "/simulate", b"[" * 100_000)
        assert direct.status == 400
        assert "not valid JSON" in direct.json["error"]
        server = ReproServer(service, port=0)
        await server.start()
        try:
            body = b"[" * 100_000
            status, _, reply = await _exchange(
                server.bound_port,
                b"POST /simulate HTTP/1.1\r\nHost: x\r\nConnection: close"
                b"\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
            assert status == "HTTP/1.1 400 Bad Request"
            assert "RecursionError" not in json.loads(reply)["error"]
            status, _, _ = await _exchange(
                server.bound_port,
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            assert status == "HTTP/1.1 200 OK"
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# -- real worker kills --------------------------------------------------------


def _live_workers(service):
    executor = service._executor
    processes = getattr(executor, "_processes", None) or {}
    return [proc for proc in processes.values() if proc.is_alive()]


async def _kill_live_worker(service) -> None:
    """SIGKILL a live pool worker of a real service, found through its
    executor's process table."""
    await _until(lambda: _live_workers(service), 60.0, "a live pool worker")
    os.kill(_live_workers(service)[0].pid, signal.SIGKILL)


def _real_service(tmp_path) -> ReproService:
    return ReproService(ServeConfig(
        jobs=1, max_retries=2, retry_base_s=0.01,
        cache_dir=str(tmp_path / "cache"),
        data_dir=str(tmp_path / "data")))


def test_real_worker_sigkill_is_survived(tmp_path):
    """End to end: SIGKILL a real pool worker, the job still lands."""

    async def scenario():
        service = _real_service(tmp_path)
        try:
            # warm the pool so there is a live worker to murder
            status, _ = await service.submit("compile",
                                             dict(APP_BODY))
            assert status == 200
            await _kill_live_worker(service)
            # next job hits the broken pool, respawns, and completes
            status, result = await service.submit(
                "compile", {"app": "gemm", "scale": "tiny"})
            assert status == 200, result
            assert service.stats.respawns >= 1
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_worker_sigkill_under_load_loses_no_job(tmp_path):
    """Kill the only worker while three distinct jobs are in flight:
    every one of them still answers 200."""

    async def scenario():
        service = _real_service(tmp_path)
        try:
            bodies = [{"app": app, "scale": "tiny"}
                      for app in ("innerproduct", "gemm", "tpchq6")]
            jobs = [asyncio.ensure_future(service.submit("simulate", body))
                    for body in bodies]
            await _until(lambda: len(service.table) == len(bodies)
                         and service._running == 1, 60.0,
                         "three jobs in flight, one running")
            await _kill_live_worker(service)
            outcomes = await asyncio.gather(*jobs)
            assert [status for status, _ in outcomes] == [200] * 3, \
                outcomes
            assert service.stats.worker_crashes >= 1
            assert service.stats.respawns >= 1
        finally:
            await service.drain()

    asyncio.run(scenario())
