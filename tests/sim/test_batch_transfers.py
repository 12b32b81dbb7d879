"""Batch followers take their leader's burst tables.

A leader's tile engines keep each activation's burst table after the
key they evaluated it from (the tile offsets and word limit); a
follower evaluates its own key and takes the leader's table for it
(``repro.sim.batch._LayoutReplay``).  These tests hold the followers to
building no table, to their solo twins bit for bit, to a typed
:class:`ReplayError` whenever their key is not the leader's, and the
batch to freeing its tables once a cohort is done.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.arch.params import DEFAULT
from repro.bitstream.artifact import Bitstream
from repro.cli import main
from repro.compiler.artifact import compile_to_bitstream
from repro.errors import ConfigError, ReplayError
from repro.eval.bench import batch_param_grid
from repro.sim import Machine, leaves
from repro.sim.batch import (_RecordingMachine, _ReplayMachine, instantiate,
                             normalize_params, run_batch)

from tests.sim.test_batch_equivalence import assert_batch_equivalent


@pytest.fixture
def builds(monkeypatch):
    """Count burst-table builds (``tile_bursts`` calls)."""
    counts = {"tile": 0}
    tile_bursts = leaves.tile_bursts

    def counting_tile_bursts(*args):
        counts["tile"] += 1
        return tile_bursts(*args)

    monkeypatch.setattr(leaves, "tile_bursts", counting_tile_bursts)
    return counts


def _solo_builds(art, counts):
    counts["tile"] = 0
    Machine(art.dhdl, art.config).run()
    solo = counts["tile"]
    counts["tile"] = 0
    return solo


def test_gemm_followers_build_no_burst_table(builds):
    """Over a 12-instance gemm grid the leader builds each tile table a
    solo run builds, and the eleven followers build none."""
    art = compile_to_bitstream("gemm", "tiny")
    solo = _solo_builds(art, builds)
    assert solo > 0
    log, layouts = {}, {}
    leader = instantiate(art, {}, machine_cls=_RecordingMachine, log=log,
                         layouts=layouts)
    leader.run()
    assert builds["tile"] == solo
    assert sum(map(len, layouts.values())) == solo
    grid = batch_param_grid(stages=(4, 8), banks=(4, 8, 16),
                            output_hops=(1, 2))[1:]
    for entry in grid:
        instantiate(art, entry, machine_cls=_ReplayMachine, log=log,
                    layouts=layouts).run()
    assert builds["tile"] == solo
    builds["tile"] = 0
    batch = run_batch(art, [{}] + grid)
    assert batch.ok and batch.replayed == len(grid)
    assert builds["tile"] == solo


#: coalescer, banking and DRAM-queue overrides, led by the as-compiled
#: design
SPARSE_PARAMS = [{}, {"coalesce_entries": 1}, {"coalesce_entries": 4,
                                               "banks": 4},
                 {"banks": 8, "dram_queue_depth": 2},
                 {"coalesce_entries": 16, "dram_queue_depth": 4}]


@pytest.mark.parametrize("app", ["bfs", "pagerank", "smdv"])
def test_sparse_followers_replay_tables_bit_identically(app, builds):
    """Tiles replaying their leader's tables beside gathers and a
    scatter that decode their own: ``SimStats`` and the whole DRAM
    image equal the solo runs', and the followers build no table."""
    art = compile_to_bitstream(app, "tiny")
    solo = _solo_builds(art, builds)
    assert solo > 0
    batch = run_batch(art, SPARSE_PARAMS)
    assert batch.replayed == len(SPARSE_PARAMS) - 1
    assert builds["tile"] == solo
    assert len({inst.stats.cycles for inst in batch}) > 1
    assert_batch_equivalent(art, SPARSE_PARAMS)


def test_finished_cohort_frees_its_tables():
    """The results keep every machine, and through its tile engines'
    hooks the cohort's table lists: once the batch is done they are
    empty."""
    art = compile_to_bitstream("gemm", "tiny")
    batch = run_batch(art, [{}, {"stages": 5}, {"banks": 4}])
    assert [inst.role for inst in batch] == ["leader", "replay", "replay"]
    for inst in batch:
        hooks = [leaf.layouts for leaf in inst.machine._leaves
                 if isinstance(leaf, leaves._TileCommon)]
        assert hooks and all(hook.entries == [] for hook in hooks)


def _recorded(art, overrides=None):
    log, layouts = {}, {}
    instantiate(art, overrides or {}, machine_cls=_RecordingMachine,
                log=log, layouts=layouts).run()
    return log, layouts


def test_follower_on_other_data_raises_instead_of_reusing():
    """smdv's ``load_col`` offsets come from the row pointers it
    loads: a follower whose ``ptr`` differs from the leader's evaluates
    other offsets and must fail typed, naming leaf and activation,
    before any of the leader's bursts issue."""
    art = compile_to_bitstream("smdv", "tiny")
    log, layouts = _recorded(art)
    ptr = next(d for d in art.dhdl.drams if d.name == "ptr")
    other = np.roll(np.asarray(ptr.array.data).ravel(), 1)
    follower = instantiate(art, {"data": {"ptr": other}},
                           machine_cls=_ReplayMachine, log=log,
                           layouts=layouts)
    with pytest.raises(ReplayError, match=r"^load_col: batch replay of "
                       r"activation 0 laid out other inputs"):
        follower.run()


def test_exhausted_layouts_raise():
    art = compile_to_bitstream("gemm", "tiny")
    log, layouts = _recorded(art)
    name = next(iter(layouts))
    count = len(layouts[name])
    del layouts[name][-1]
    follower = instantiate(art, {"stages": 5}, machine_cls=_ReplayMachine,
                           log=log, layouts=layouts)
    with pytest.raises(ReplayError, match=rf"^{name}: batch replay log "
                       rf"exhausted at activation {count - 1}"):
        follower.run()


# -- the bank override's range -------------------------------------------


@pytest.mark.parametrize("value", [-1, 17, 1000, True, 4.0, "4"])
def test_bank_override_out_of_range_is_rejected_at_decode(value):
    data = compile_to_bitstream("gemm", "tiny").to_dict()
    data["config"]["banks_override"] = value
    with pytest.raises(ConfigError, match=r"banks_override=.* must be unset "
                       r"\(None or 0\) or in 1\.\.16, the PMU's banks"):
        Bitstream.from_dict(data)


@pytest.mark.parametrize("value", [None, 0, 1, 16])
def test_bank_override_in_range_decodes(value):
    data = compile_to_bitstream("gemm", "tiny").to_dict()
    data["config"]["banks_override"] = value
    assert Bitstream.from_dict(data).config.banks_override == value


@pytest.mark.parametrize("value", [-1, 17, 1000, "4"])
def test_batch_banks_out_of_range_is_rejected(value):
    with pytest.raises(ConfigError, match="batch override banks="):
        normalize_params({"banks": value}, DEFAULT)
    art = compile_to_bitstream("gemm", "tiny")
    with pytest.raises(ConfigError, match="batch override banks="):
        run_batch(art, [{}, {"banks": value}])


def test_batch_banks_range_follows_the_params():
    """The legal range is the design's PMU banks: 0 (unset) to 16 on
    the Table 3 chip, to 32 on one with 32-bank PMUs."""
    assert normalize_params({"banks": 16}, DEFAULT) == {"banks": 16}
    assert normalize_params({"banks": 0}, DEFAULT) == {"banks": 0}
    wide = replace(DEFAULT, pmu=replace(DEFAULT.pmu, banks=32))
    assert normalize_params({"banks": 32}, wide) == {"banks": 32}
    with pytest.raises(ConfigError, match=r"in 1\.\.16,"):
        normalize_params({"banks": 32}, DEFAULT)
    art = compile_to_bitstream("gemm", "tiny")
    batch = run_batch(art, [{"banks": b} for b in (0, 1, 2, 4, 8, 16)])
    assert batch.ok
    assert batch[0].stats.cycles == batch[5].stats.cycles


def test_cli_batch_banks_out_of_range_is_one_line(capsys):
    assert main(["run", "gemm", "--scale", "tiny", "--batch",
                 "--sweep", "banks=-1"]) == 2
    err = capsys.readouterr().err
    assert err == ("repro run: batch override banks=-1 must be unset "
                   "(None or 0) or in 1..16, the PMU's banks\n")
    assert main(["run", "gemm", "--scale", "tiny", "--batch",
                 "--batch-params", json.dumps([{"banks": 17}])]) == 2
    assert "banks=17" in capsys.readouterr().err
