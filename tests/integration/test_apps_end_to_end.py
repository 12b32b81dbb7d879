"""End-to-end validation: every Table 4 benchmark, compiled and
simulated, must match the reference executor bit-for-bit (ints) or
within float32 tolerance.

This is the repository's flagship correctness gate: it exercises the
pattern frontend, the lowering, the partitioner, placement/routing, the
control protocols, the scratchpad/banking model, the AGs/coalescers and
the DDR3 model together.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPS, get_app
from repro.compiler import compile_to_bitstream, freeze_program


def run_app(app, scale):
    program = app.build(scale)
    expected = app.expected(program)
    compiled = freeze_program(program, app.name, scale)
    machine = compiled.machine()
    stats = machine.run()
    results = {name: machine.result(name) for name in expected}
    app.check(program, results, expected)
    return compiled, machine, stats


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_tiny_scale_matches_reference(app):
    compiled, machine, stats = run_app(app, "tiny")
    assert stats.cycles > 0
    assert stats.dram["reads"] > 0


@pytest.mark.parametrize("name", ["innerproduct", "gemm", "tpchq6",
                                  "smdv", "kmeans", "bfs"])
def test_small_scale_matches_reference(name):
    app = get_app(name)
    compiled, machine, stats = run_app(app, "small")
    assert stats.cycles > 0


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_requirements_extracted(app):
    compiled = compile_to_bitstream(app.name, "tiny")
    reqs = compiled.config.requirements
    assert reqs.pcus, f"{app.name}: no virtual PCU requirements"
    assert reqs.pmus, f"{app.name}: no virtual PMU requirements"
    util = compiled.config.utilization()
    assert 0 < util["pcu"] <= 1
    assert 0 < util["pmu"] <= 1


#: what the coalescing units did at ``tiny`` (``adab8e1``): hits per
#: gather / scatter leaf — every sparse leaf of the three apps
COALESCED_HITS_TINY = {
    "smdv": {"gather_x": 64},
    "pagerank": {"gather_ranks": 86, "gather_deg": 86},
    "bfs": {"gather_levels": 65, "mark_scatter": 26},
}


def test_sparse_apps_issue_gathers():
    for name, pinned in COALESCED_HITS_TINY.items():
        compiled, machine, stats = run_app(get_app(name), "tiny")
        hits = {leaf.name: leaf.coalesced_hits for leaf in machine._leaves
                if type(leaf).__name__ in ("GatherSim", "ScatterSim")}
        assert hits == pinned, name


def test_bfs_issues_scatters():
    app = get_app("bfs")
    compiled, machine, stats = run_app(app, "tiny")
    scatters = [leaf for leaf in machine._leaves
                if type(leaf).__name__ == "ScatterSim"]
    assert scatters


def test_blackscholes_partitions_deep_pipeline():
    app = get_app("blackscholes")
    compiled = compile_to_bitstream(app.name, "tiny")
    # ~60-op pipeline cannot fit one 6-stage PCU
    deep = [t for t in compiled.config.leaf_timing.values()
            if t.num_pcus >= 4]
    assert deep, "Black-Scholes body should split across many PCUs"


def test_paper_profiles_are_consistent():
    for app in ALL_APPS:
        profile = app.paper_profile()
        assert profile.flops > 0
        assert profile.total_bytes > 0
        assert profile.inner_parallelism >= 1
        if app.sparse:
            assert profile.random_accesses > 0


def test_deterministic_builds():
    app = get_app("gemm")
    p1 = app.build("tiny")
    p2 = app.build("tiny")
    np.testing.assert_array_equal(p1.arrays["a"].data,
                                  p2.arrays["a"].data)
