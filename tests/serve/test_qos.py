"""Serve-tier QoS: priorities, weighted /multi, co-schedule seating.

Priorities change the answer a multi-tenant fabric computes, so they
must participate in the job key (no cross-priority cache hits) and
flow all the way into the result's ``qos`` section.  Co-scheduled jobs
with different priorities must still share one fabric — the priority
is per tenant, not per batch — and a flush that overflows
``coschedule_max`` is seated by priority, then arrival, dealt
round-robin across its fabric batches.
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


def test_params_priority_parses_and_bounds():
    request = parse_request({"app": "gemm",
                             "params": {"priority": 3}}, "simulate")
    assert request.params.priority == 3
    assert parse_request({"app": "gemm"}, "simulate") \
        .params.priority == 1
    for bad in (0, -1, MAX_PRIORITY + 1, True, "high", 2.5):
        err = _parse_error({"app": "gemm",
                            "params": {"priority": bad}}, "simulate")
        assert err.status == 400, bad


def test_params_priority_joins_job_key():
    base = parse_request({"app": "gemm",
                          "params": {"coschedule": True}}, "simulate")
    hi = parse_request({"app": "gemm",
                        "params": {"coschedule": True,
                                   "priority": 8}}, "simulate")
    assert base.key != hi.key


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


# ---------------------------------------------------------------------------
# Mixed-priority co-scheduling
# ---------------------------------------------------------------------------


def test_mixed_priority_jobs_share_one_fabric(tmp_path):
    """The group key normalizes priority away: a weight-8 job and a
    weight-1 job arriving together ride the same fabric, each keeping
    its own weight in the shared arbitration."""
    async def scenario():
        service = ReproService(
            _config(tmp_path, coschedule_window_s=5.0,
                    coschedule_max=2),
            runner=execute_job)

        def post(app, priority):
            return dispatch(service, "POST", "/simulate",
                            _body({"app": app, "scale": "tiny",
                                   "params": {"coschedule": True,
                                              "priority": priority}}))

        responses = await asyncio.gather(post("gemm", 8),
                                         post("tpchq6", 1))
        payloads = [r.json for r in responses]
        for payload in payloads:
            assert payload["ok"], payload
            assert payload["served"] == "coscheduled"
            assert sorted(payload["coscheduled"]["apps"]) \
                == sorted(PAIR)
            assert payload["qos"]["weighted"] is True
        prios = {p["app"]: p["coscheduled"]["priority"]
                 for p in payloads}
        assert prios == {"gemm": 8, "tpchq6": 1}
        # one batch, one fabric
        assert payloads[0]["coscheduled"]["fabric_cycles"] \
            == payloads[1]["coscheduled"]["fabric_cycles"]

        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["work"]["coschedule_batches"] == 1
        assert stats["qos"]["priority_jobs"] == 1
        await service.drain()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Co-schedule seating: priority, then arrival
# ---------------------------------------------------------------------------

OVERFLOW = ["gemm", "tpchq6", "gda", "logreg", "cnn"]


def _coschedule(service, app, priority=1):
    return dispatch(service, "POST", "/simulate",
                    _body({"app": app, "scale": "tiny",
                           "params": {"coschedule": True,
                                      "priority": priority}}))


def test_compose_cosched_seats_by_priority(tmp_path):
    """Unit-level: an oversized flush is stable-sorted by descending
    priority and dealt round-robin, so the weight-8 job sits first in
    batch 0 and the rest keep their arrival order."""
    service = ReproService(_config(tmp_path, coschedule_max=2))

    def entry(app, priority):
        request = parse_request(
            {"app": app, "scale": "tiny",
             "params": {"coschedule": True,
                        "priority": priority}}, "simulate")
        return (request, None)

    entries = [entry("tpchq6", 1), entry("gda", 1),
               entry("gemm", 8), entry("gemm", 1)]
    batches = service._compose_cosched(entries)
    assert [[(request.app, request.params.priority)
             for request, _ in batch] for batch in batches] \
        == [[("gemm", 8), ("gda", 1)], [("tpchq6", 1), ("gemm", 1)]]


def test_overflowing_flush_seats_by_arrival(tmp_path):
    """Five co-scheduled jobs over ``coschedule_max=2`` are dealt
    round-robin in arrival order onto three fabrics, and solo runs of
    the same apps in between leave that seating unchanged."""
    async def scenario():
        service = ReproService(
            _config(tmp_path, coschedule_window_s=5.0,
                    coschedule_max=2),
            runner=execute_job)

        async def flush():
            responses = await asyncio.gather(
                *(_coschedule(service, app) for app in OVERFLOW))
            for app, response in zip(OVERFLOW, responses):
                assert response.status == 200, response.json
                payload = response.json
                assert payload["served"] == "coscheduled"
                assert payload["app"] == app
                assert payload["coscheduled"]["tenant"] == app
                assert payload["simulate"]["cycles"] \
                    == payload["stats"]["cycles"] > 0
            return {tuple(r.json["coscheduled"]["apps"])
                    for r in responses}

        seating = {("gemm", "logreg"), ("tpchq6", "cnn"), ("gda",)}
        assert await flush() == seating
        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["work"]["coschedule_batches"] == 3
        assert stats["work"]["coschedule_jobs"] == 5

        for app in OVERFLOW:
            solo = await dispatch(service, "POST", "/simulate",
                                  _body({"app": app, "scale": "tiny"}))
            assert solo.status == 200, solo.json
        assert await flush() == seating
        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["work"]["coschedule_batches"] == 6
        await service.drain()

    asyncio.run(scenario())


def test_coscheduled_batch_counts_one_sim(tmp_path):
    """A co-scheduled batch is one fabric run, so it adds one to
    ``sims`` — as the same pair through POST /multi does — while
    ``completed`` still counts every answered job."""
    async def scenario():
        service = ReproService(
            _config(tmp_path, coschedule_window_s=5.0,
                    coschedule_max=2),
            runner=execute_job)

        async def work():
            stats = (await dispatch(service, "GET", "/statsz")).json
            return (stats["work"]["sims"], stats["work"]["multis"],
                    stats["requests"]["completed"])

        await asyncio.gather(*(_coschedule(service, app) for app in PAIR))
        assert await work() == (1, 1, 2)
        response = await dispatch(service, "POST", "/multi",
                                  _body({"apps": PAIR, "scale": "tiny"}))
        assert response.status == 200, response.json
        assert await work() == (2, 2, 3)

        # an overflowing flush: five jobs, three fabrics, three sims
        await asyncio.gather(
            *(_coschedule(service, app) for app in OVERFLOW))
        assert await work() == (5, 5, 8)
        await service.drain()

    asyncio.run(scenario())


def test_statsz_qos_section_shape(tmp_path):
    async def scenario():
        service = ReproService(_config(tmp_path))
        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["qos"] == {"priority_jobs": 0}
        await service.drain()

    asyncio.run(scenario())
