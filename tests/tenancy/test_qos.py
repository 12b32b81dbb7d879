"""co_run with priorities: validation, neutrality, effectiveness.

The contract mirrors the DRAM/fabric layers: priorities only matter
when they differ.  ``co_run(priorities=(3, 3))`` must be bit-identical
to ``co_run()`` — weights are relative — while a genuinely skewed run
must pull the high-priority tenant's finish cycle forward without
breaking any tenant's validation.
"""

import dataclasses

import pytest

from repro.tenancy import co_run

PAIR = ["gemm", "tpchq6"]
QOS_WORKLOAD = ["gemm", "tpchq6", "tpchq6", "tpchq6"]
QOS_PRIORITIES = (8, 1, 1, 1)


def test_priorities_must_line_up_with_apps():
    with pytest.raises(ValueError, match="priorities"):
        co_run(PAIR, scale="tiny", priorities=(8,))


def test_equal_priorities_identical_to_default():
    plain = co_run(PAIR, scale="tiny")
    equal = co_run(PAIR, scale="tiny", priorities=(3, 3))
    assert equal.qos["weighted"] is False
    assert equal.fabric_cycles == plain.fabric_cycles
    for base, tenant in zip(plain.tenants, equal.tenants):
        assert tenant.finish_cycle == base.finish_cycle
        assert dataclasses.asdict(tenant.stats) \
            == dataclasses.asdict(base.stats)
    assert [t.priority for t in equal.tenants] == [3, 3]


def test_weighted_run_improves_hi_priority_finish():
    plain = co_run(QOS_WORKLOAD, scale="tiny")
    weighted = co_run(QOS_WORKLOAD, scale="tiny",
                      priorities=QOS_PRIORITIES)
    assert weighted.qos["weighted"] is True
    hi_plain, hi = plain.tenants[0], weighted.tenants[0]
    assert hi.app == "gemm"
    assert hi.finish_cycle < hi_plain.finish_cycle
    for tenant in weighted.tenants:
        assert tenant.validated, f"{tenant.name} failed validation"
    arb = weighted.qos["tenants"][hi.name]
    assert arb["priority"] == 8
    assert arb["arb_won"] > 0


def test_as_dict_carries_priority_and_qos():
    result = co_run(PAIR, scale="tiny", priorities=(4, 1))
    d = result.as_dict()
    assert d["qos"]["weighted"] is True
    assert [t["priority"] for t in d["tenants"]] == [4, 1]
    for name, entry in d["qos"]["tenants"].items():
        assert {"priority", "arb_won", "arb_deferred",
                "finish_cycle"} <= set(entry)



def test_validation_executes_each_distinct_app_once(monkeypatch):
    """Three tpchq6 riders share one reference execution, and every
    tenant is still checked — against the real ``Program``."""
    from repro.apps import base
    from repro.patterns.program import Program

    executed, checked = [], []
    run_program, check = base.run_program, base.App.check

    def counting_run(program, *args, **kwargs):
        executed.append(program.name)
        return run_program(program, *args, **kwargs)

    def counting_check(self, program, *args, **kwargs):
        checked.append(program)
        return check(self, program, *args, **kwargs)

    monkeypatch.setattr(base, "run_program", counting_run)
    monkeypatch.setattr(base.App, "check", counting_check)
    result = co_run(["tpchq6"] * 3, scale="tiny")
    assert executed == ["tpchq6"]
    assert len(checked) == 3
    assert all(isinstance(program, Program) for program in checked)
    assert all(tenant.validated for tenant in result.tenants)
