"""Serve-tier multi-tenancy: ``POST /multi``.

Driven in-process through :func:`dispatch` like the rest of the serve
suite.  ``/multi`` is deterministic (packing and co-simulation are pure
functions of apps+scale), so it participates in the result cache like
any other job.
"""

import asyncio
import json

from repro.serve import (ReproService, ServeConfig, dispatch,
                         execute_job)
from repro.serve.protocol import (MAX_TENANTS, RequestError,
                                  parse_request)

PAIR = ["gemm", "tpchq6"]


def _body(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def _config(tmp_path, **kw) -> ServeConfig:
    kw.setdefault("jobs", 2)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    kw.setdefault("data_dir", str(tmp_path / "data"))
    return ServeConfig(**kw)


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------


def _parse_error(body):
    try:
        parse_request(body, "multi")
    except RequestError as err:
        return err
    raise AssertionError("expected RequestError")


def test_parse_multi_happy_path():
    request = parse_request({"apps": PAIR}, "multi")
    assert request.mode == "multi" and request.kind == "multi"
    assert request.apps == tuple(PAIR)
    assert request.scale == "tiny"
    assert request.ident == "multi:gemm+tpchq6:tiny"
    assert request.describe() == "multi:gemm+tpchq6:tiny"
    assert request.payload(None, None)["apps"] == PAIR


def test_parse_multi_rejections():
    assert _parse_error({}).status == 400
    assert _parse_error({"apps": []}).status == 400
    assert _parse_error({"apps": "gemm"}).status == 400
    assert _parse_error({"apps": ["nosuchapp"]}).status == 400
    assert _parse_error({"apps": PAIR, "app": "gemm"}).status == 400
    assert _parse_error(
        {"apps": ["gemm"] * (MAX_TENANTS + 1)}).status == 400
    assert _parse_error({"apps": PAIR, "scale": "galactic"}) \
        .status == 400


# ---------------------------------------------------------------------------
# /multi endpoint
# ---------------------------------------------------------------------------


def test_multi_endpoint_end_to_end(tmp_path):
    async def scenario():
        service = ReproService(_config(tmp_path), runner=execute_job)

        first = await dispatch(service, "POST", "/multi",
                               _body({"apps": PAIR, "scale": "tiny"}))
        assert first.status == 200, first.json
        result = first.json
        assert result["apps"] == PAIR
        assert result["fabric_cycles"] > 0
        assert len(result["tenants"]) == 2
        for row in result["tenants"]:
            assert row["validated"] is True
            assert row["region"] is not None
            assert row["stats"]["cycles"] > 0
        assert result["pack_report"]["feasible"] is True
        assert result["channel_util"]

        # deterministic -> replayed from the result cache
        again = await dispatch(service, "POST", "/multi",
                               _body({"apps": PAIR, "scale": "tiny"}))
        assert again.status == 200
        assert again.json["served"] == "result-cache"

        # one execution answered one request; the replay adds none
        stats = (await dispatch(service, "GET", "/statsz")).json
        assert stats["work"] == {"compiles": 0, "sims": 1, "multis": 1}
        assert stats["requests"]["completed"] == 1
        assert stats["requests"]["result_cache_hits"] == 1

        bad = await dispatch(service, "POST", "/multi",
                             _body({"apps": ["nosuchapp"]}))
        assert bad.status == 400

        only_post = await dispatch(service, "GET", "/multi")
        assert only_post.status == 405
        await service.drain()

    asyncio.run(scenario())


def test_multi_infeasible_packing_is_422(tmp_path):
    async def scenario():
        # six kmeans tenants demand more PMUs than the chip has
        service = ReproService(_config(tmp_path), runner=execute_job)
        apps = ["kmeans"] * 6
        response = await dispatch(service, "POST", "/multi",
                                  _body({"apps": apps,
                                         "scale": "tiny"}))
        assert response.status == 422, response.json
        assert response.json["error"]["stage"] == "pack"
        await service.drain()

    asyncio.run(scenario())
