"""Loadtest harness units: the deterministic request mix, exact
percentiles, the report held to ``benchmarks/serve_*baseline.json``
-shaped gates, and one small live replay against a spawned server (the
full-size ones are the CI serve-smoke / multi-smoke / chaos-smoke
jobs)."""

import pytest

from repro.eval.gate import check
from repro.eval.loadtest import (_percentile, make_requests,
                                 run_loadtest, spawned_server)
from repro.serve.protocol import spec_digest


def test_request_mix_is_deterministic_and_has_duplicates():
    a = make_requests(40, 10, seed=3, trace_every=7)
    b = make_requests(40, 10, seed=3, trace_every=7)
    assert a == b
    assert make_requests(40, 10, seed=4) != a
    digests = [spec_digest(body["spec"]) for body in a]
    assert len(set(digests)) == 10          # exactly `unique` specs
    assert len(digests) == 40               # padded with duplicates
    traced = [body for body in a if "params" in body]
    assert len(traced) == pytest.approx(40 / 7, abs=1)


def test_request_mix_clamps_unique():
    assert len({spec_digest(b["spec"])
                for b in make_requests(5, 99, seed=0)}) == 5
    assert len(make_requests(3, 0, seed=0)) == 3


def test_percentile_is_exact_and_interpolated():
    samples = [float(k) for k in range(1, 101)]
    assert _percentile(samples, 50) == 50.5
    assert _percentile(samples, 99) == pytest.approx(99.01)
    assert _percentile(samples, 100) == 100.0
    assert _percentile([], 50) == 0.0
    assert _percentile([7.0], 99) == 7.0


def _report(**overrides):
    report = {
        "errors": 0, "p50_ms": 100.0, "p99_ms": 400.0,
        "throughput_rps": 20.0, "dedup_saved": 8,
    }
    report.update(overrides)
    return report


#: ``_report()``'s numbers with 50 % headroom, written as a baseline
BASELINE = {"errors": 0, "max_p50_ms": 150.0, "max_p99_ms": 600.0,
            "min_throughput_rps": 13.33, "min_dedup_saved": 1}


def test_compare_accepts_within_threshold():
    assert check(_report(p50_ms=120.0), BASELINE) == []


def test_compare_flags_errors_latency_and_lost_dedup():
    failures = check(
        _report(errors=2, p50_ms=500.0, throughput_rps=5.0,
                dedup_saved=0), BASELINE)
    assert [f.split(":")[0] for f in failures] == [
        "errors", "p50_ms", "throughput_rps", "dedup_saved"]
    assert "2, pinned at 0" in failures[0]
    assert "above the committed ceiling 150.0" in failures[1]
    assert "below the committed floor 13.33" in failures[2]
    # a baseline without the floor imposes no dedup requirement
    relaxed = {k: v for k, v in BASELINE.items()
               if k != "min_dedup_saved"}
    assert check(_report(dedup_saved=0), relaxed) == []


def test_live_report_carries_every_key_the_serve_baselines_gate():
    """One tiny replay over real sockets: ``dedup_saved`` is the sum the
    CI heredoc used to compute, and every key of every committed serve
    baseline exists in the report ``run_loadtest`` writes."""
    from tests.eval.test_gate import unresolved

    with spawned_server(jobs=1, queue_depth=16) as (host, port):
        report = run_loadtest(host, port, requests=8, concurrency=2,
                              unique=2)
    assert report["errors"] == 0
    server = report["server"]
    assert report["dedup_saved"] == \
        server["coalesced"] + server["result_cache_hits"] == 6
    assert server["compiles"] == report["unique_specs"] == 2
    for name in ("serve_baseline.json", "serve_nightly_baseline.json",
                 "serve_multi_baseline.json",
                 "serve_chaos_baseline.json"):
        assert unresolved(report, name) == [], name


def test_request_mix_multi_slots_are_deterministic():
    a = make_requests(40, 10, seed=3, multi_every=5, priority_every=2)
    assert a == make_requests(40, 10, seed=3, multi_every=5,
                              priority_every=2)
    multi = [b for b in a if b.get("_path") == "/multi"]
    assert len(multi) == 8                  # every 5th of 40 slots
    for body in multi:
        assert body["scale"] == "tiny"
        assert len(body["apps"]) == 2
        assert body["apps"][0] != body["apps"][1]
    # every 2nd pair boosts its first tenant
    assert sum(b.get("priorities") == [4, 1] for b in multi) == 4
    assert all("priorities" not in b
               for b in make_requests(40, 10, seed=3, multi_every=5))
    # the rest are plain spec jobs with no path hint
    rest = [b for b in a
            if "_path" not in b and "spec" in b]
    assert len(rest) == 40 - 8


def test_request_mix_without_multi_has_no_path_hints():
    assert all("_path" not in b
               for b in make_requests(20, 5, seed=1))
