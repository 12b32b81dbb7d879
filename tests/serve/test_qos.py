"""Serve-tier QoS: priorities, weighted /multi, batch composition.

Priorities change the answer a multi-tenant fabric computes, so they
must participate in the job key (no cross-priority cache hits) and
flow all the way into the result's ``qos`` section.  Co-scheduled jobs
with different priorities must still share one fabric — the priority
is per tenant, not per batch — and the service must learn bandwidth
classes from completed solo runs to seat future batches.
"""

import asyncio
import json

import pytest

from repro.serve import ReproService, ServeConfig, dispatch, execute_job
from repro.serve.protocol import (MAX_PRIORITY, RequestError,
                                  parse_request)
from repro.serve.service import (MEMORY_BOUND_OCCUPANCY, classify,
                                 compose_batches)
from tests.serve.test_service import _spec

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
# Bandwidth-class learning + batch composition
# ---------------------------------------------------------------------------


def test_service_learns_classes_from_solo_runs(tmp_path):
    async def scenario():
        service = ReproService(_config(tmp_path), runner=execute_job)
        for app in PAIR:
            response = await dispatch(
                service, "POST", "/simulate",
                _body({"app": app, "scale": "tiny"}))
            assert response.status == 200, response.json
        stats = (await dispatch(service, "GET", "/statsz")).json
        classes = stats["qos"]["bandwidth_classes"]
        assert classes["gemm:tiny"] == "compute"
        assert classes["tpchq6:tiny"] == "memory"
        await service.drain()

    asyncio.run(scenario())


def test_spec_and_artifact_jobs_learn_no_class(tmp_path):
    """Seating reads classes by (registry app, scale): a spec or stored
    artifact run must not leave an entry nothing can ever read."""
    async def scenario():
        service = ReproService(_config(tmp_path), runner=execute_job)
        for seed in range(3):
            response = await dispatch(service, "POST", "/simulate",
                                      _body({"spec": _spec(seed)}))
            assert response.status == 200, response.json
        compiled = await dispatch(
            service, "POST", "/compile",
            _body({"app": "gda", "scale": "tiny"}))
        assert compiled.status == 200, compiled.json
        stored = await dispatch(
            service, "POST", "/simulate",
            _body({"artifact_hash": compiled.json["content_hash"]}))
        assert stored.status == 200, stored.json
        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["qos"]["bandwidth_classes"] == {}

        response = await dispatch(service, "POST", "/simulate",
                                  _body({"app": "gda", "scale": "tiny"}))
        assert response.status == 200, response.json
        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["qos"]["bandwidth_classes"] == {"gda:tiny": "memory"}
        await service.drain()

    asyncio.run(scenario())


def test_classify_threshold():
    assert classify(MEMORY_BOUND_OCCUPANCY) == "memory"
    assert classify(MEMORY_BOUND_OCCUPANCY - 0.01) == "compute"


def test_compose_batches_spreads_memory_bound():
    items = [("m1", "memory"), ("m2", "memory"),
             ("c1", "compute"), ("c2", "compute")]
    groups = compose_batches(items, 2)
    assert len(groups) == 2
    for group in groups:
        classes = sorted(klass for _, klass in group)
        assert classes == ["compute", "memory"]


def test_compose_batches_accepts_strings_and_none():
    items = [("a", "memory"), ("b", None), ("c", "compute"),
             ("d", "memory")]
    groups = compose_batches(items, 2)
    assert sorted(name for g in groups for name, _ in g) \
        == ["a", "b", "c", "d"]
    # the two memory-bound items land in different groups
    homes = [k for k, g in enumerate(groups)
             for name, _ in g if name in ("a", "d")]
    assert homes[0] != homes[1]


def test_compose_batches_preserves_order_within_class():
    items = [(f"m{k}", "memory") for k in range(4)]
    groups = compose_batches(items, 2)
    # round-robin deal: group 0 gets m0,m2 / group 1 gets m1,m3
    assert [name for name, _ in groups[0]] == ["m0", "m2"]
    assert [name for name, _ in groups[1]] == ["m1", "m3"]


def test_compose_batches_single_group():
    items = [("a", "memory"), ("b", "compute")]
    assert compose_batches(items, 4) == [items]


def test_compose_batches_rejects_bad_max_size():
    with pytest.raises(ValueError, match="max_size"):
        compose_batches([("a", None)], 0)


def test_compose_batches_empty():
    assert compose_batches([], 3) == []


def test_compose_cosched_seats_by_priority_and_class(tmp_path):
    """Unit-level: an oversized flush splits into batches with the
    high-priority job seated first and memory-bound jobs spread."""
    service = ReproService(_config(tmp_path, coschedule_max=2))
    service._bw_classes = {("tpchq6", "tiny"): "memory",
                           ("gda", "tiny"): "memory",
                           ("gemm", "tiny"): "compute"}

    def entry(app, priority):
        request = parse_request(
            {"app": app, "scale": "tiny",
             "params": {"coschedule": True,
                        "priority": priority}}, "simulate")
        return (request, None)

    entries = [entry("tpchq6", 1), entry("gda", 1),
               entry("gemm", 8), entry("gemm", 1)]
    batches = service._compose_cosched(entries, "tiny")
    assert len(batches) == 2
    assert all(len(batch) == 2 for batch in batches)
    for batch in batches:
        classes = sorted(service._bw_classes[(request.app, "tiny")]
                         for request, _ in batch)
        assert classes == ["compute", "memory"]
    # seating differs from FIFO arrival order
    flat = [request.app for batch in batches for request, _ in batch]
    assert flat != [request.app for request, _ in entries]


def test_statsz_qos_section_shape(tmp_path):
    async def scenario():
        service = ReproService(_config(tmp_path))
        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["qos"] == {"priority_jobs": 0,
                                "cosched_reordered": 0,
                                "bandwidth_classes": {}}
        await service.drain()

    asyncio.run(scenario())
