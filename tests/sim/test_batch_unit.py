"""Unit tests for the batch-run parameter plumbing."""

import numpy as np
import pytest

from repro.arch.params import DEFAULT
from repro.compiler import compile_to_bitstream
from repro.dhdl.memory import Reg, Sram
from repro.errors import ConfigError
from repro.patterns import expr as E
from repro.sim.batch import (TIMING_KEYS, cohort_key, group_finals,
                             instantiate, normalize_params, run_batch)
from repro.sim.scratchpad import MemoryState


def _compiled(name="gemm", scale="tiny"):
    return compile_to_bitstream(name, scale)


def test_normalize_none_is_empty():
    assert normalize_params(None, DEFAULT) == {}
    assert normalize_params({}, DEFAULT) == {}


def test_normalize_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unsupported batch override"):
        normalize_params({"stages": 4, "clock_ghz": 2}, DEFAULT)


def test_normalize_rejects_non_dict():
    with pytest.raises(ConfigError, match="must be dicts"):
        normalize_params([("stages", 4)], DEFAULT)


def test_normalize_rejects_stage_alias_conflict():
    with pytest.raises(ConfigError, match="aliases"):
        normalize_params({"stages": 4, "pipeline_depth": 6}, DEFAULT)


def test_normalize_rejects_non_dict_data():
    with pytest.raises(ConfigError, match="'data' override"):
        normalize_params({"data": [1, 2, 3]}, DEFAULT)


def test_cohort_key_ignores_timing_overrides():
    assert cohort_key({k: 4 for k in TIMING_KEYS
                       if k != "data"}) == cohort_key({})


def test_cohort_key_splits_on_data():
    a = {"data": {"x": np.arange(4)}}
    b = {"data": {"x": np.arange(4) + 1}}
    assert cohort_key(a) != cohort_key(b)
    assert cohort_key(a) == cohort_key(
        {"data": {"x": np.arange(4)}, "stages": 9})


def test_cohort_key_order_insensitive():
    x, y = np.arange(3), np.ones(2)
    assert cohort_key({"data": {"a": x, "b": y}}) == cohort_key(
        {"data": {"b": y, "a": x}})


def test_instantiate_applies_timing_overrides():
    compiled = _compiled()
    machine = instantiate(compiled,
                          {"stages": 7, "banks": 4, "output_hops": 3,
                           "dram_queue_depth": 5, "watchdog": 123,
                           "max_cycles": 456})
    for timing in machine.config.leaf_timing.values():
        assert timing.pipeline_depth == 7
        assert timing.output_hops == 3
    assert machine.config.banks_override == 4
    assert all(s.banks == 4 for s in machine.mem.scratchpads.values())
    assert all(ch.queue_depth == 5 for ch in machine.dram.channels)
    assert machine.watchdog == 123
    assert machine.max_cycles == 456


def test_instantiate_defaults_leave_config_alone():
    compiled = _compiled()
    machine = instantiate(compiled, {})
    assert machine.config is compiled.config


def test_instantiate_rejects_unknown_data_name():
    compiled = _compiled()
    with pytest.raises(ConfigError, match="no DRAM array"):
        instantiate(compiled,
                    {"data": {"nonesuch": np.zeros(4)}})


def test_instantiate_rejects_oversize_data():
    compiled = _compiled()
    name = compiled.dhdl.drams[0].name
    words = compiled.dhdl.drams[0].words()
    with pytest.raises(ConfigError, match="words"):
        instantiate(compiled,
                    {"data": {name: np.zeros(words + 1)}})


def test_run_batch_rejects_bad_scheduler():
    compiled = _compiled()
    from repro.errors import SimulationError
    with pytest.raises(SimulationError, match="unknown scheduler"):
        run_batch(compiled, [{}],
                  scheduler="quantum")


def test_run_batch_rejects_bad_source():
    with pytest.raises(ConfigError, match="cannot batch-run"):
        run_batch("gemm", [{}])


def test_run_batch_empty_param_list():
    compiled = _compiled()
    result = run_batch(compiled, [])
    assert len(result) == 0
    assert result.ok
    assert result.cohorts == 0


def test_group_finals_converts_each_value_and_keeps_the_last_write():
    """One write per scratchpad, addresses ascending, each with its
    last value converted as a single store converts it; registers keep
    every write, in order."""
    pads = MemoryState([Sram("f", (8,), E.FLOAT32),
                        Sram("i", (8,), E.INT32)], [Reg("r", E.INT32)])
    finals = [("f", 5, 0.1), ("r", None, 7), ("i", 2, 3), ("f", 1, 2.5),
              ("f", 5, 1 / 3), ("r", None, 9), ("i", 2, -4)]
    grouped = group_finals(finals, pads.scratchpads)
    assert grouped[:2] == [("r", None, 7), ("r", None, 9)]
    (f, f_flats, f_values), (i, i_flats, i_values) = grouped[2:]
    assert (f, f_flats.tolist(), i, i_flats.tolist()) == ("f", [1, 5],
                                                          "i", [2])
    assert f_values.dtype == np.float32 and i_values.dtype == np.int32
    assert f_values.tobytes() == np.array(
        [np.float32(2.5), np.float32(1 / 3)]).tobytes()
    assert i_values.tolist() == [-4]


def test_group_finals_raises_where_a_single_store_would():
    """An int32 cell given a value int32 cannot hold raises the error
    ``np.int32(value)`` raises, even when a later write replaces it."""
    pads = MemoryState([Sram("i", (8,), E.INT32)], [])
    with pytest.raises(OverflowError) as grouped:
        group_finals([("i", 0, 1 << 40), ("i", 0, 1)], pads.scratchpads)
    with pytest.raises(OverflowError) as single:
        np.int32(1 << 40)
    assert str(grouped.value) == str(single.value)
