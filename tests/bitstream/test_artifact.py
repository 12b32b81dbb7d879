"""Bitstream artifacts: round-trip fidelity, cache behaviour, schema.

The contract under test: a saved artifact, loaded in a different
process (or the same one), simulates *identically* to the in-memory
compile it was frozen from — same cycle counts, same results — and the
cache never changes what a run computes, only whether the compiler ran.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.arch.params import DEFAULT
from repro.bitstream import (SCHEMA_VERSION, Bitstream, CompileCache,
                             CompileOptions, compile_key)
from repro.bitstream.artifact import hash_bytes
from repro.compiler.artifact import compile_app_cached, compile_to_bitstream
from repro.errors import ConfigError


def _run(artifact, names):
    machine = artifact.machine()
    stats = machine.run()
    return stats, {n: machine.result(n) for n in names}


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_artifact_simulates_identically(app, tmp_path):
    artifact = compile_to_bitstream(app.name, "tiny")
    path = artifact.save(tmp_path / f"{app.name}.bitstream.json")
    clone = Bitstream.load(path)
    assert clone.content_hash == artifact.content_hash
    assert clone.key == artifact.key

    expected = app.expected(app.build("tiny"))
    stats, results = _run(artifact, expected)
    stats2, results2 = _run(clone, expected)
    assert stats2.cycles == stats.cycles
    assert stats2.ops_executed == stats.ops_executed
    assert stats2.busy_cycles == stats.busy_cycles
    for name in expected:
        np.testing.assert_array_equal(np.asarray(results2[name]),
                                      np.asarray(results[name]))
    app.check(clone.dhdl, results2, expected)


def test_cache_miss_then_hit(tmp_path):
    cache = CompileCache(tmp_path)
    art, outcome = compile_app_cached("gemm", "tiny", cache=cache)
    assert outcome == "miss"
    assert (cache.stats.misses, cache.stats.stores) == (1, 1)

    art2, outcome2 = compile_app_cached("gemm", "tiny", cache=cache)
    assert outcome2 == "hit"
    assert art2.content_hash == art.content_hash
    assert cache.entries() == 1

    # layout: <root>/bitstreams-v<schema>/<key[:2]>/<key>.json
    entry = cache.path_for(art.key)
    assert entry.exists()
    rel = entry.relative_to(tmp_path)
    assert rel.parts[0] == f"bitstreams-v{SCHEMA_VERSION}"
    assert rel.parts[1] == art.key[:2]
    assert rel.parts[2] == f"{art.key}.json"


def test_cache_off_still_compiles():
    art, outcome = compile_app_cached("gemm", "tiny", cache=None)
    assert outcome == "off"
    assert art.app == "gemm"


def test_corrupt_entry_is_dropped_and_recompiled(tmp_path):
    cache = CompileCache(tmp_path)
    art, _ = compile_app_cached("gemm", "tiny", cache=cache)
    cache.path_for(art.key).write_text("{this is not json")

    fresh = CompileCache(tmp_path)
    art2, outcome = compile_app_cached("gemm", "tiny", cache=fresh)
    assert outcome == "miss"  # corrupt entry dropped, recompiled
    assert art2.content_hash == art.content_hash
    # corruption is accounted apart from plain misses
    assert (fresh.stats.corrupt, fresh.stats.misses) == (1, 0)
    assert fresh.stats.lookups == 1
    assert "1 corrupt" in fresh.stats.summary()
    _, outcome3 = compile_app_cached("gemm", "tiny", cache=fresh)
    assert outcome3 == "hit"  # ... and the rewritten entry is good


@pytest.mark.parametrize("payload", [
    b"",                               # truncated write
    b"\xff\xfe garbage",               # not UTF-8
    b"[1, 2, 3]",                      # JSON, wrong shape
    b'{"schema": 1}',                  # missing fields
    pytest.param(b'{"schema": %d}' % SCHEMA_VERSION,
                 id="current-schema-no-other-keys"),
    pytest.param(b"[" * 100_000, id="nested-past-the-recursion-limit"),
])
def test_undecodable_payloads_count_as_corrupt(tmp_path, payload):
    cache = CompileCache(tmp_path)
    art, _ = compile_app_cached("gemm", "tiny", cache=cache)
    entry = cache.path_for(art.key)
    entry.write_bytes(payload)
    fresh = CompileCache(tmp_path)
    assert fresh.get(art.key) is None
    assert fresh.stats.corrupt == 1
    assert not entry.exists()  # dropped to make room for a re-put


@pytest.mark.parametrize("key, value", [
    (None, None), ("program", 5), ("config", []), ("options", "x"),
    ("app", 3), ("scale", None)], ids=[
    "bytes", "program-int", "config-list", "options-str", "app-int",
    "scale-none"])
def test_malformed_bytes_are_a_config_error(key, value):
    """Every way an artifact's bytes can fail to decode before its
    program does is one typed error (``Bitstream.load`` and
    ``CompileCache.get`` both decode through ``from_bytes``)."""
    art, _ = compile_app_cached("innerproduct", "tiny", cache=None)
    if key is None:
        raws = [b"\xff\xfe", b"{", b"[" * 100_000, b"[]",
                b'{"schema": %d}' % SCHEMA_VERSION]
    else:
        data = art.to_dict()
        data[key] = value
        raws = [json.dumps(data).encode("utf-8")]
    for raw in raws:
        with pytest.raises(ConfigError):
            Bitstream.from_bytes(raw)


def _tamper_program(data):
    data["program"]["exprs"][0]["k"] = "bogus"


def _tamper_data(data):
    spec = next(s for s in data["program"]["arrays"]
                if s["data"] is not None)
    spec["data"]["shape"] = [spec["data"]["shape"][0] + 1]


@pytest.mark.parametrize("tamper", [_tamper_program, _tamper_data],
                         ids=["unknown-expr-kind", "packed-length"])
def test_malformed_program_counts_as_corrupt(tmp_path, tamper):
    """Valid JSON holding a program that does not decode (an IRError)
    is dropped like any corrupt entry, so the next put rewrites it."""
    cache = CompileCache(tmp_path)
    art, _ = compile_app_cached("innerproduct", "tiny", cache=cache)
    entry = cache.path_for(art.key)
    data = art.to_dict()
    tamper(data)
    entry.write_bytes(json.dumps(data).encode("utf-8"))
    fresh = CompileCache(tmp_path)
    assert fresh.get(art.key) is None
    assert (fresh.stats.corrupt, fresh.stats.misses) == (1, 0)
    assert not entry.exists()
    again, outcome = compile_app_cached("innerproduct", "tiny",
                                        cache=fresh)
    assert outcome == "miss"
    assert again.content_hash == art.content_hash
    assert fresh.get(art.key) is not None


def test_transient_read_error_is_miss_without_unlink(tmp_path,
                                                     monkeypatch):
    cache = CompileCache(tmp_path)
    art, _ = compile_app_cached("gemm", "tiny", cache=cache)
    entry = cache.path_for(art.key)

    from pathlib import Path
    real_read = Path.read_bytes

    def flaky_read(self):
        if self == entry:
            raise OSError(5, "Input/output error")
        return real_read(self)

    fresh = CompileCache(tmp_path)
    monkeypatch.setattr(Path, "read_bytes", flaky_read)
    assert fresh.get(art.key) is None
    assert (fresh.stats.misses, fresh.stats.corrupt) == (1, 0)
    monkeypatch.undo()
    # the entry survived the transient failure and still hits
    assert entry.exists()
    assert fresh.get(art.key) is not None
    assert fresh.stats.hits == 1


def test_programming_bug_in_decode_propagates(tmp_path, monkeypatch):
    """A bug inside Bitstream.from_dict must surface, not silently
    degrade every lookup into a recompile."""
    cache = CompileCache(tmp_path)
    art, _ = compile_app_cached("gemm", "tiny", cache=cache)

    def broken_from_dict(data):
        raise AttributeError("'NoneType' object has no attribute 'x'")

    fresh = CompileCache(tmp_path)
    monkeypatch.setattr(Bitstream, "from_dict",
                        staticmethod(broken_from_dict))
    with pytest.raises(AttributeError):
        fresh.get(art.key)
    # ... and the (healthy) entry was not unlinked
    assert cache.path_for(art.key).exists()


def test_schema_mismatch_rejected():
    art = compile_to_bitstream("gemm", "tiny")
    stale = art.to_dict()
    stale["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ConfigError):
        Bitstream.from_dict(stale)


def _mutate_first_leaf(field, value):
    def mutate(config):
        timing = next(iter(config["leaf_timing"].values()))
        timing[field] = value
    return mutate


def _set(field, value):
    def mutate(config):
        config[field] = value
    return mutate


def _dram_base(edit):
    def mutate(config):
        edit(config["dram_base"])   # gemm: b, a, c at 4096, 8192, 12288
    return mutate


def _srams(config):
    """The placed scratchpads: every placed unit that is not a leaf."""
    return [name for name in config["sites"]
            if name not in config["leaf_timing"]]


def _first_sram_at(site):
    def mutate(config):
        config["sites"][_srams(config)[0]][0] = list(site)
    return mutate


def _every_sram_on(site=None):
    """Every scratchpad on ``site`` (default: the first one's site)."""
    def mutate(config):
        sites = config["sites"]
        shared = list(site) if site else sites[_srams(config)[0]][0]
        for name in _srams(config):
            sites[name] = [shared]
    return mutate


def _sites(edit):
    def mutate(config):
        edit(config["sites"])
    return mutate


@pytest.mark.parametrize("mutate, said", [
    (_mutate_first_leaf("lanes", 64), r"lanes=64 outside 1\.\.16"),
    (_mutate_first_leaf("pipeline_depth", 0), "pipeline depth must be >= 1"),
    (_mutate_first_leaf("output_hops", -5), r"hops \(\d+ in, -5 out\)"),
    (_set("coalesce_entries", 0), "coalesce_entries=0 must be >= 1"),
    (_dram_base(lambda base: base.pop("a")), r"missing \['a'\], unknown \[\]"),
    (_dram_base(lambda base: base.update(d=0)), r"missing \[\], unknown \['d'\]"),
    (_dram_base(lambda base: base.update(a=-64)),
     r"dram_base\['a'\]=-64 is not a non-negative multiple of the 64-byte"),
    (_dram_base(lambda base: base.update(a=8192 + 4)),
     r"dram_base\['a'\]=8196 is not"),
    (_dram_base(lambda base: base.update(a=4096)),
     "DRAM arrays 'a' and 'b' overlap at byte 4096"),
    (_dram_base(lambda base: base.update(a=4096 + 64)),
     "DRAM arrays 'b' and 'a' overlap at byte 4160"),
    (_first_sram_at((999, 999)),
     r"\(999, 999\) is not a PMU site of the 16x8 grid"),
    (_every_sram_on((0, 0)), r"\(0, 0\) is not a PMU site"),
    (_every_sram_on(), "share site"),
    (_sites(lambda sites: sites.update(ghost=[[1, 0]])),
     r"sites\['ghost'\]: the program has no compute leaf or scratchpad"),
    (_sites(lambda sites: sites["matmul_body"].pop()),
     r"leaf 'matmul_body' has \d+ PCU sites for num_pcus=\d+"),
    (_set("region", [8, 4, 8, 4]), r"lies outside region 8x4@\(8,4\)"),
    (_set("pcus_used", 10 ** 6), r"pcus_used=1000000, pmus_used=\d+ but"),
    (_set("pmus_used", 0), r"pmus_used=0 but the sites hold \d+ PCUs"),
], ids=["lanes", "pipeline_depth", "output_hops", "coalesce_entries",
        "dram_base_missing", "dram_base_unknown", "dram_base_negative",
        "dram_base_unaligned", "dram_base_shared", "dram_base_overlap",
        "pmu_site_off_grid", "every_sram_on_0_0", "pmu_site_shared",
        "sites_unknown_unit", "leaf_sites_not_num_pcus",
        "site_outside_region", "pcus_used", "pmus_used"])
def test_config_no_plasticine_could_hold_is_rejected(mutate, said):
    """Decoding checks every leaf's timing against the architecture, the
    coalescing cache's size, the DRAM layout against the program and the
    recorded sites against the program and the grid."""
    data = compile_to_bitstream("gemm", "tiny").to_dict()
    mutate(data["config"])
    with pytest.raises(ConfigError, match=said):
        Bitstream.from_dict(data)


def test_zero_hops_stay_legal():
    """Figure 7 sweeps the hop latencies down to 0."""
    art = compile_to_bitstream("gemm", "tiny")
    data = art.to_dict()
    for timing in data["config"]["leaf_timing"].values():
        timing["input_hops"] = timing["output_hops"] = 0
    assert Bitstream.from_dict(data).machine().run().cycles > 0


def _first_sram(field, value):
    def mutate(data):
        data["program"]["srams"][0][field] = value
    return mutate


def _every_transfer_on(ids):
    def mutate(data):
        assign = data["config"]["ag_assign"]
        for name in assign:
            assign[name] = list(ids)
    return mutate


def _pcu_lanes(lanes):
    def mutate(data):
        data["config"]["params"]["pcu"]["lanes"] = lanes
    return mutate


@pytest.mark.parametrize("mutate, said", [
    (_pcu_lanes(1000), "params: PCU lanes=1000 outside design space"),
    (_first_sram("nbuf", 0), r"nbuf=0 and bank_stride=\d+ must both be"),
    (_first_sram("bank_stride", 0), r"nbuf=\d+ and bank_stride=0 must"),
    (_every_transfer_on(range(100, 108)),
     r"AG ids \[100, 101, 102, 103, 104, 105, 106, 107\] must be one or "
     r"more ids in \[0, num_ags=34\)"),
    (_every_transfer_on(()), r"AG ids \[\] must be one or more"),
], ids=["pcu_lanes", "nbuf", "bank_stride", "ag_ids_past_num_ags",
        "no_ag"])
def test_units_no_plasticine_could_hold_are_rejected(mutate, said):
    """Decoding holds the artifact's own params to Table 3, every
    scratchpad to a buffer depth and bank stride of at least 1, and
    every transfer to at least one of the chip's AGs.  Each of these
    gemm mutations used to run (the empty AG list to a
    ``DeadlockError`` 50 000 cycles in)."""
    data = compile_to_bitstream("gemm", "tiny").to_dict()
    mutate(data)
    with pytest.raises(ConfigError, match=said):
        Bitstream.from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("shape", [4096, 4096]), ("nbuf", 1000), ("nbuf", 65)],
    ids=["b_buf_4096x4096", "nbuf_1000", "nbuf_one_buffer_over"])
def test_scratchpad_past_its_pmu_sites_is_rejected(field, value):
    """A scratchpad's words at its N-buffering must fit the PMU sites
    it was placed on.  gemm's ``b_buf`` at ``small`` is 1 024 words on
    one PMU of 16 x 16 KB (65 536 words): reshaped to 4096 x 4096, or
    1 000-buffered, it used to run; 65 copies are one buffer over."""
    data = compile_to_bitstream("gemm", "small").to_dict()
    sram = data["program"]["srams"][0]
    assert sram["name"] == "b_buf" and data["config"]["sites"]["b_buf"] \
        == [[1, 0]]
    sram[field] = value
    with pytest.raises(ConfigError, match=r"scratchpad 'b_buf': \d+ words "
                       r"x nbuf=\d+ exceed its 1 PMU sites' 65536 words"):
        Bitstream.from_dict(data)


def test_scratchpad_filling_its_pmu_sites_is_legal():
    """64 buffers of gemm's 1 024-word ``b_buf`` fill its one PMU
    exactly, and decode."""
    data = compile_to_bitstream("gemm", "small").to_dict()
    data["program"]["srams"][0]["nbuf"] = 64
    assert Bitstream.from_dict(data).dhdl.srams[0].total_words() == 65536


def test_compile_key_covers_every_input():
    base = compile_key("gemm", "tiny")
    assert base == compile_key("gemm", "tiny")  # deterministic
    assert compile_key("gemm", "small") != base
    assert compile_key("kmeans", "tiny") != base
    assert compile_key(
        "gemm", "tiny",
        options=CompileOptions(tile_words=256)) != base
    bigger = dataclasses.replace(DEFAULT, num_ags=DEFAULT.num_ags + 2)
    assert compile_key("gemm", "tiny", params=bigger) != base


def test_content_hash_is_canonical_bytes(tmp_path):
    art = compile_to_bitstream("tpchq6", "tiny")
    again = compile_to_bitstream("tpchq6", "tiny")
    assert art.to_bytes() == again.to_bytes()
    assert art.content_hash == again.content_hash


def test_summary_encodes_once(monkeypatch):
    art = compile_to_bitstream("tpchq6", "tiny")
    blob = art.to_bytes()
    calls = []
    real = Bitstream.to_dict
    monkeypatch.setattr(Bitstream, "to_dict",
                        lambda self: calls.append(1) or real(self))
    summary = art.summary()
    assert len(calls) == 1
    assert summary["content_hash"] == hash_bytes(blob)
    assert summary["bytes"] == len(blob)


# -- CLI surface ------------------------------------------------------------

def test_cli_compile_then_run_artifact(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "gemm.bitstream.json"
    assert main(["compile", "gemm", "--scale", "tiny",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "compiled and cached" in text

    assert main(["compile", "gemm", "--scale", "tiny",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "loaded from cache" in capsys.readouterr().out

    assert main(["run", "--artifact", str(out)]) == 0
    text = capsys.readouterr().out
    assert "VALIDATED" in text
    assert "cycles" in text


def test_cli_run_artifact_floorplan_matches_direct_run(tmp_path, capsys):
    """The floorplan comes from the artifact's recorded sites, so a
    saved artifact prints the one a fresh compile prints."""
    from repro.cli import main
    out = tmp_path / "gemm.bitstream.json"
    assert main(["compile", "gemm", "--scale", "tiny", "--no-cache",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    floorplans = []
    for target in (["gemm", "--scale", "tiny"], ["--artifact", str(out)]):
        assert main(["run", *target, "--floorplan"]) == 0
        text = capsys.readouterr().out
        floorplans.append(text[text.index("floorplan ("):])
    assert "matmul_body" in floorplans[0]
    assert floorplans[0] == floorplans[1]


def test_cli_run_needs_app_or_artifact(capsys):
    from repro.cli import main
    assert main(["run"]) == 2
