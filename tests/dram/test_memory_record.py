"""The artifact's memory record is the memory system the simulator runs.

``config.params.dram`` (one :class:`~repro.arch.params.DramParams`) is
what every machine builds its ``DramModel`` from: an edited record
changes the run, and a model carrying another record — handed to a
``Machine`` or shared by a ``Fabric`` — is a ``ConfigError``.
"""

from dataclasses import replace

import pytest

from repro.arch.params import DEFAULT
from repro.bitstream import Bitstream
from repro.compiler import compile_to_bitstream
from repro.dram.model import DramModel
from repro.errors import ConfigError
from repro.sim import Fabric
from repro.tenancy import co_run, pack_apps

#: gemm ``tiny`` on the default memory system
UNEDITED_CYCLES = 143


def _decoded(**dram):
    """gemm ``tiny`` decoded with fields of its memory record edited."""
    data = compile_to_bitstream("gemm", "tiny").to_dict()
    data["config"]["params"]["dram"].update(dram)
    return Bitstream.from_dict(data)


def test_the_unedited_record_runs_the_default_memory():
    artifact = _decoded()
    machine = artifact.machine()
    assert machine.dram.params == artifact.config.params.dram
    assert machine.run().cycles == UNEDITED_CYCLES


@pytest.mark.parametrize("dram, cycles", [
    ({"channels": 1}, 172),
    ({"t_rcd": 22}, 154),
], ids=["one_channel", "t_rcd_doubled"])
def test_an_edited_record_reaches_the_model(dram, cycles):
    artifact = _decoded(**dram)
    record = artifact.config.params.dram
    assert all(getattr(record, name) == value for name, value in dram.items())
    machine = artifact.machine()
    assert machine.dram.params is record
    assert len(machine.dram.channels) == record.channels
    assert all(channel.params is record and channel.queue_depth
               == record.queue_depth for channel in machine.dram.channels)
    assert machine.run().cycles == cycles != UNEDITED_CYCLES


def test_a_model_with_another_record_is_refused():
    artifact = _decoded()
    other = replace(artifact.config.params.dram, queue_depth=2)
    with pytest.raises(ConfigError, match="queue_depth=2"):
        artifact.machine(dram=DramModel(other))


def test_packed_tenants_with_different_queue_depths_are_refused():
    packing = pack_apps(("gemm", "tpchq6"), "tiny")
    assert packing.feasible, packing.reason
    first, second = (tenant.artifact for tenant in packing.tenants)
    params = second.config.params
    deeper = replace(second.config, params=replace(
        params, dram=replace(params.dram, queue_depth=32)))
    fabric = Fabric()
    fabric.add_tenant(first.dhdl, first.config)
    with pytest.raises(ConfigError, match="queue_depth=32"):
        fabric.add_tenant(second.dhdl, deeper)
    assert len(fabric.tenants) == 1


def test_co_run_shares_the_memory_of_its_params():
    """``co_run`` builds the tenants' shared model from the record its
    artifacts are compiled with: two channels slow gemm and tpchq6 down
    from 161 and 95 cycles."""
    two = replace(DEFAULT, dram=replace(DEFAULT.dram, channels=2))
    result = co_run(("gemm", "tpchq6"), "tiny", params=two)
    assert [(t.name, t.stats.cycles) for t in result.tenants] == [
        ("gemm", 181), ("tpchq6", 115)]
