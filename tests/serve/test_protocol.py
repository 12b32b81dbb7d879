"""Protocol units: request parsing, param clamping, job keys, the
coalescing/result tables, and the latency histogram."""

import asyncio

import pytest

from repro.serve.jobs import Job, JobTable
from repro.serve.metrics import LatencyHistogram, ServiceStats
from repro.serve.protocol import (MAX_CYCLES_CAP, WATCHDOG_CAP,
                                  JobParams, RequestError, parse_request,
                                  spec_digest)

SPEC = {"version": 1, "seed": 1, "n": 48,
        "steps": [{"kind": "map", "reads": 1, "depth": 1,
                   "expr_seed": 2, "data_seed": 3, "par": 4}]}


# ---------------------------------------------------------------------------
# parse_request
# ---------------------------------------------------------------------------


def test_spec_request_parses_and_keys_on_content():
    req = parse_request({"spec": SPEC}, "simulate")
    assert req.kind == "spec"
    assert req.ident == spec_digest(SPEC)
    # key covers mode and params, not just identity
    other_mode = parse_request({"spec": SPEC}, "compile")
    other_params = parse_request(
        {"spec": SPEC, "params": {"max_cycles": 1000}}, "simulate")
    assert len({req.key, other_mode.key, other_params.key}) == 3
    # same content, freshly-built dict -> same key
    import copy
    assert parse_request({"spec": copy.deepcopy(SPEC)},
                         "simulate").key == req.key


def test_app_request_validates_registry_and_scale():
    req = parse_request({"app": "innerproduct", "scale": "tiny"},
                        "simulate")
    assert (req.kind, req.app, req.scale) == ("app", "innerproduct",
                                              "tiny")
    with pytest.raises(RequestError) as excinfo:
        parse_request({"app": "nope"}, "simulate")
    assert excinfo.value.status == 400
    assert excinfo.value.errors[0]["path"] == "app"
    with pytest.raises(RequestError, match="scale"):
        parse_request({"app": "innerproduct", "scale": "huge"},
                      "simulate")


def test_artifact_request_requires_hash_and_simulate_mode():
    digest = "ab" * 32
    req = parse_request({"artifact_hash": digest}, "simulate")
    assert req.kind == "artifact" and req.ident == digest
    with pytest.raises(RequestError, match="64-char"):
        parse_request({"artifact_hash": "xyz"}, "simulate")
    with pytest.raises(RequestError, match="already"):
        parse_request({"artifact_hash": digest}, "compile")


def test_exactly_one_source_is_required():
    for body in ({}, {"spec": SPEC, "app": "innerproduct"}):
        with pytest.raises(RequestError, match="exactly one"):
            parse_request(body, "simulate")


def test_unknown_fields_and_non_object_bodies_are_400():
    with pytest.raises(RequestError) as excinfo:
        parse_request({"spec": SPEC, "bogus": 1}, "simulate")
    assert excinfo.value.errors == [{"path": "bogus",
                                     "message": "unknown field"}]
    with pytest.raises(RequestError, match="JSON object"):
        parse_request([1, 2], "simulate")


def test_spec_schema_errors_carry_prefixed_paths():
    bad = {"spec": {"version": 1, "n": 16,
                    "steps": [{"kind": "map", "reads": 1, "depth": 1,
                               "expr_seed": 1, "data_seed": 2,
                               "par": 0}]}}
    with pytest.raises(RequestError) as excinfo:
        parse_request(bad, "simulate")
    body = excinfo.value.body()
    assert body["error"] == "invalid program spec"
    assert body["detail"][0]["path"] == "spec.steps[0].par"


def test_params_validate_clamp_and_default():
    req = parse_request(
        {"spec": SPEC, "params": {"max_cycles": 10 ** 12,
                                  "watchdog": 10 ** 9}}, "simulate")
    assert req.params.max_cycles == MAX_CYCLES_CAP
    assert req.params.watchdog == WATCHDOG_CAP
    assert parse_request({"spec": SPEC}, "simulate").params == \
        JobParams()
    for bad in ({"max_cycles": 0},
                {"max_cycles": True}, {"trace": 1}, []):
        with pytest.raises(RequestError) as excinfo:
            parse_request({"spec": SPEC, "params": bad}, "simulate")
        assert excinfo.value.status == 400
    # scheduler: both stepping modes answer bit-identically, so the
    # knob would only split the job key
    for name, value in (("mystery", 1), ("coschedule", True),
                        ("priority", 4), ("scheduler", "dense")):
        with pytest.raises(RequestError) as excinfo:
            parse_request({"spec": SPEC, "params": {name: value}},
                          "simulate")
        assert excinfo.value.status == 400
        assert excinfo.value.errors == [{"path": f"params.{name}",
                                         "message": "unknown parameter"}]


# ---------------------------------------------------------------------------
# Job table
# ---------------------------------------------------------------------------


def test_job_table_coalesces_and_retires():
    async def scenario():
        table = JobTable(result_cache_size=2)
        job = Job("k1")
        table.register(job)
        assert table.get_inflight("k1") is job
        waiter = asyncio.ensure_future(job.wait())
        job.finish((200, {"answer": 42}))
        assert await waiter == (200, {"answer": 42})
        table.retire(job)
        assert table.get_inflight("k1") is None

    asyncio.run(scenario())


def test_result_lru_caches_successes_only_and_bounds_size():
    table = JobTable(result_cache_size=2)
    table.remember("bad", (504, {"error": "timeout"}))
    assert table.lookup_result("bad") is None
    table.remember("a", (200, {"v": 1}))
    table.remember("b", (200, {"v": 2}))
    table.lookup_result("a")                    # refresh a
    table.remember("c", (200, {"v": 3}))        # evicts b, not a
    assert table.lookup_result("b") is None
    assert table.lookup_result("a") == (200, {"v": 1})
    assert table.lookup_result("c") == (200, {"v": 3})


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_latency_histogram_percentiles_are_close():
    hist = LatencyHistogram()
    samples = [0.2 * k for k in range(1, 1001)]   # 0.2 .. 200 ms
    for ms in samples:
        hist.record(ms)
    for p in (50, 90, 99):
        exact = samples[int(len(samples) * p / 100) - 1]
        approx = hist.percentile(p)
        assert approx == pytest.approx(exact, rel=0.6), (p, approx)
    assert hist.percentile(100) == pytest.approx(200.0)
    snap = hist.to_dict()
    assert snap["count"] == 1000
    assert snap["max_ms"] == 200.0
    assert sum(snap["buckets"].values()) == 1000


def test_service_stats_nesting_and_cache_fold():
    stats = ServiceStats()
    stats.record_cache("hit")
    stats.record_cache("miss", corrupt=1)
    stats.record_cache("off")
    snap = stats.to_dict()
    assert snap["compile_cache"] == {"hits": 1, "misses": 1, "off": 1,
                                     "corrupt": 1}
    assert set(snap) == {"requests", "work", "compile_cache", "faults",
                         "latency"}
