"""Serve-tier QoS: ``POST /multi`` priorities.

Priorities change the answer a multi-tenant fabric computes, so they
must participate in the job key (no cross-priority cache hits) and
flow all the way into the result's ``qos`` section.
"""

import asyncio
import json

from repro.serve import ReproService, ServeConfig, dispatch, execute_job
from repro.serve.protocol import (MAX_PRIORITY, RequestError,
                                  parse_request)

PAIR = ["gemm", "tpchq6"]
QOS_BODY = {"apps": ["gemm", "tpchq6", "tpchq6"],
            "priorities": [8, 1, 1], "scale": "tiny"}


def _body(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def _config(tmp_path, **kw) -> ServeConfig:
    kw.setdefault("jobs", 2)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    kw.setdefault("data_dir", str(tmp_path / "data"))
    return ServeConfig(**kw)


def _parse_error(body, mode="multi"):
    try:
        parse_request(body, mode)
    except RequestError as err:
        return err
    raise AssertionError("expected RequestError")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_multi_priorities_parse():
    request = parse_request(QOS_BODY, "multi")
    assert request.priorities == (8, 1, 1)
    assert request.payload(None, None)["priorities"] == [8, 1, 1]
    assert parse_request({"apps": PAIR}, "multi").priorities is None


def test_multi_priorities_rejections():
    assert _parse_error({"apps": PAIR, "priorities": [8]}).status == 400
    assert _parse_error({"apps": PAIR,
                         "priorities": "high"}).status == 400
    for bad in (0, MAX_PRIORITY + 1, True, "x", None):
        err = _parse_error({"apps": PAIR, "priorities": [1, bad]})
        assert err.status == 400, bad


def test_multi_priorities_join_job_key():
    plain = parse_request({"apps": PAIR}, "multi")
    weighted = parse_request({"apps": PAIR,
                              "priorities": [8, 1]}, "multi")
    uniform = parse_request({"apps": PAIR,
                             "priorities": [1, 1]}, "multi")
    assert len({plain.key, weighted.key, uniform.key}) == 3


# ---------------------------------------------------------------------------
# Weighted /multi end to end
# ---------------------------------------------------------------------------


def test_weighted_multi_endpoint(tmp_path):
    async def scenario():
        service = ReproService(_config(tmp_path), runner=execute_job)
        response = await dispatch(service, "POST", "/multi",
                                  _body(QOS_BODY))
        assert response.status == 200, response.json
        result = response.json
        assert result["priorities"] == [8, 1, 1]
        assert result["qos"]["weighted"] is True
        tenants = result["qos"]["tenants"]
        assert tenants["gemm"]["priority"] == 8
        assert [t["priority"] for t in result["tenants"]] == [8, 1, 1]

        # same workload, no priorities: a different cache entry
        plain = await dispatch(
            service, "POST", "/multi",
            _body({"apps": QOS_BODY["apps"], "scale": "tiny"}))
        assert plain.status == 200
        assert plain.json.get("served") != "result-cache"
        assert plain.json["qos"]["weighted"] is False

        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["qos"]["priority_jobs"] == 1
        await service.drain()

    asyncio.run(scenario())


def test_statsz_qos_section_shape(tmp_path):
    """``qos`` counts weighted /multi bodies, ``work`` counts
    executions, and ``config`` lists exactly the service's settings."""
    async def scenario():
        service = ReproService(_config(tmp_path))
        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["qos"] == {"priority_jobs": 0}
        assert stats["work"] == {"compiles": 0, "sims": 0, "multis": 0}
        assert set(stats["config"]) == {
            "jobs", "queue_depth", "timeout_s", "result_cache",
            "max_retries", "breaker_threshold", "breaker_cooldown_s",
            "cache_dir", "data_dir"}
        await service.drain()

    asyncio.run(scenario())
