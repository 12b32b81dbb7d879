"""Unit tests for the evaluation harnesses and the performance model."""

import pytest

from repro.apps import get_app
from repro.arch.params import DEFAULT
from repro.arch.workload import WorkloadProfile
from repro.eval import figure7, table3, table5, table6, table7
from repro.eval.paper_data import TABLE5, TABLE7
from repro.eval.report import format_table
from repro.perf import (DEFAULT_KNOBS, bound_of, plasticine_runtime_s,
                        random_access_gbps)


# -- perf model ----------------------------------------------------------------

def test_random_bandwidth_is_tfaw_limited():
    gbps = random_access_gbps()
    # 16 activates / 30 ns x 1.6 useful words x 4 B
    assert gbps == pytest.approx(16 / 30 * 1.6 * 4, rel=1e-6)


def test_runtime_scales_linearly_in_work():
    small = WorkloadProfile("s", flops=1e9, stream_bytes=1e6)
    large = WorkloadProfile("l", flops=4e9, stream_bytes=1e6)
    assert plasticine_runtime_s(large) == pytest.approx(
        4 * plasticine_runtime_s(small), rel=0.01)


def test_memory_bound_workload_ignores_flops():
    base = WorkloadProfile("m", flops=1e6, stream_bytes=1e9)
    more_compute = WorkloadProfile("m", flops=5e6, stream_bytes=1e9)
    assert plasticine_runtime_s(base) == pytest.approx(
        plasticine_runtime_s(more_compute), rel=0.01)


def test_bound_classification():
    assert bound_of(WorkloadProfile("c", flops=1e12,
                                    stream_bytes=1e6)) == "compute"
    assert bound_of(WorkloadProfile("s", flops=1e3,
                                    stream_bytes=1e9)) == "stream"
    assert bound_of(WorkloadProfile("r", flops=1e3,
                                    random_accesses=1e9)) == "random"


def test_bound_follows_per_app_overrides():
    """``bound_of`` reads the same roofs as the runtime, overrides
    included: a parallelism override that moves the binding roof from
    compute to stream moves the named bound with it."""
    base = WorkloadProfile("p", flops=1e10, stream_bytes=1e9)
    unrolled = WorkloadProfile("p", flops=1e10, stream_bytes=1e9,
                               plasticine_parallelism=4096)
    stream_s = 1e9 / (DEFAULT.dram.peak_gbps * 1e9
                      * DEFAULT_KNOBS.stream_efficiency)
    assert bound_of(base) == "compute"
    assert plasticine_runtime_s(base) > 10 * stream_s
    assert bound_of(unrolled) == "stream"
    assert plasticine_runtime_s(unrolled) == pytest.approx(stream_s,
                                                           rel=1e-3)


def test_coalesce_hint_speeds_random_workloads():
    base = WorkloadProfile("r", random_accesses=1e8)
    hinted = WorkloadProfile("r", random_accesses=1e8,
                             plasticine_coalesce_words=4.0)
    assert plasticine_runtime_s(hinted) < plasticine_runtime_s(base)


def test_sparse_profiles_are_random_bound():
    for name in ("smdv", "pagerank", "bfs"):
        profile = get_app(name).paper_profile()
        assert bound_of(profile) == "random", name


def test_streaming_profiles_are_stream_bound():
    for name in ("innerproduct", "tpchq6"):
        profile = get_app(name).paper_profile()
        assert bound_of(profile) == "stream", name


def test_compute_profiles_are_compute_bound():
    for name in ("gemm", "gda"):
        profile = get_app(name).paper_profile()
        assert bound_of(profile) == "compute", name


# -- report helpers --------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(("a", "bb"), [(1, 2.5), ("xx", 0.001)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines[1:])


# -- tables ---------------------------------------------------------------------

def test_table5_matches_paper_everywhere():
    measured = table5.generate()
    for key, value in TABLE5.items():
        assert measured[key] == pytest.approx(value, rel=0.02), key
    assert "paper" in table5.render(measured)


def test_table7_single_app_row():
    row = table7.evaluate_app(get_app("innerproduct"), scale="tiny",
                              validate=True)
    assert row.perf_ratio > 1.0
    assert 0 < row.util_pcu < 1
    assert row.plasticine_power_w > 4.0
    assert "innerproduct" in table7.render([row])


def test_table7_generate_is_deterministic_in_registry_order():
    from repro.apps import ALL_APPS
    rows = table7.generate("tiny", validate=False)
    assert [row.name for row in rows] == [app.name for app in ALL_APPS]
    assert table7.generate("tiny", validate=False) == rows


def test_table6_two_apps():
    results = table6.generate(scale="tiny",
                              apps=[get_app("gemm"), get_app("sgd")])
    for table in results.values():
        assert table["a"] > 1.0
        assert table["e_cum"] >= table["a"] * 0.5
    assert "GeoMean" in table6.render(results)


def test_figure7_sweep_structure():
    curves = figure7.sweep("stages", (4, 6, 8),
                           apps=[get_app("gemm")], scale="tiny")
    curve = curves["gemm"]
    assert set(curve) == {4, 6, 8}
    feasible = [v for v in curve.values() if v is not None]
    assert min(feasible) == 0.0  # normalized to the per-app minimum


def test_figure7_sweep_only_lowers(monkeypatch):
    """The area sweeps re-partition the lowered leaves; nothing is
    placed, routed or frozen."""
    from repro.compiler import artifact

    def mapped(*args, **kwargs):
        raise AssertionError("figure7.sweep mapped a program")

    monkeypatch.setattr(artifact, "map_program", mapped)
    curves = figure7.sweep("vector_in", (2, 3), apps=[get_app("gemm")],
                           scale="tiny")
    assert set(curves["gemm"]) == {2, 3}


def test_figure7_infeasible_marked_none():
    from repro.eval.figure7 import area_for
    from repro.compiler.scheduling import StageSchedule
    from dataclasses import replace
    from repro.arch.params import DEFAULT
    impossible = StageSchedule(stages=[None] * 4, max_live=50,
                               vector_reads=2, vector_writes=1,
                               scalar_reads=2, scalar_writes=1,
                               reduction_stages=0)
    assert area_for([impossible], DEFAULT.pcu) is None


def test_table3_ranges_without_sweeps():
    rows = table3.generate(run_sweeps=False)
    assert rows["stages"]["selected"] == 6
    assert rows["stages"]["paper"] == 6
    assert "Table 3" in table3.render(rows)


# -- control overhead (stall attribution) ------------------------------------------


def test_control_overhead_values_pinned():
    """Regression-pin the token/credit overhead of three benchmarks as
    measured by the exact attribution pass (the sim is deterministic,
    so these are equalities up to float formatting)."""
    from repro.apps import get_app
    from repro.eval import table6

    results = table6.control_overhead(
        scale="tiny",
        apps=[get_app(n) for n in ("gemm", "tpchq6", "kmeans")])
    expected = {
        "gemm": (0.43260188087774293, 138, 143),
        "tpchq6": (0.19823788546255505, 45, 78),
        "kmeans": (0.90641467013279, 12901, 1052),
    }
    for name, (overhead, token, cycles) in expected.items():
        r = results[name]
        assert r["control_overhead"] == pytest.approx(overhead,
                                                      abs=1e-12), name
        assert r["token_wait"] == token, name
        assert r["credit_wait"] == 0, name
        assert r["cycles"] == cycles, name


def test_control_overhead_render():
    from repro.apps import get_app
    from repro.eval import table6

    results = table6.control_overhead(scale="tiny",
                                      apps=[get_app("gemm")])
    text = table6.render_control(results)
    assert "Control overhead" in text
    assert "gemm" in text
    assert "0.433" in text
