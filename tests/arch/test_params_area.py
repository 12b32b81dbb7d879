"""Unit tests for architecture parameters and the Table 5 area model."""

import pytest

from repro.arch import (DEFAULT, DESIGN_SPACE, PcuParams, PlasticineParams,
                        PmuParams, chip_area, pcu_area, pcu_breakdown,
                        pmu_area, pmu_breakdown)
from repro.errors import ArchError


def test_default_matches_paper_headline():
    assert DEFAULT.num_pcus == 64
    assert DEFAULT.num_pmus == 64
    assert DEFAULT.onchip_mb == pytest.approx(16.0)
    # paper: 12.3 single-precision TFLOPS
    assert DEFAULT.peak_tflops == pytest.approx(12.3, rel=0.01)
    # paper: 51.2 GB/s theoretical peak
    assert DEFAULT.dram.peak_gbps == pytest.approx(51.2)


def test_design_space_final_values_are_in_ranges():
    pcu = DEFAULT.pcu
    assert pcu.lanes in DESIGN_SPACE["pcu_lanes"]
    assert pcu.stages in DESIGN_SPACE["pcu_stages"]
    assert DEFAULT.pmu.bank_kb in DESIGN_SPACE["pmu_bank_kb"]


def test_invalid_pcu_param_rejected():
    with pytest.raises(ArchError):
        PcuParams(lanes=5).validate()
    with pytest.raises(ArchError):
        PcuParams(stages=0).validate()
    with pytest.raises(ArchError):
        PcuParams(vector_in=11).validate()


def test_banks_must_match_lanes():
    with pytest.raises(ArchError):
        PlasticineParams(pcu=PcuParams(lanes=8)).validate()


# -- Table 5 calibration -----------------------------------------------------

def test_pcu_area_matches_table5():
    assert pcu_area(DEFAULT.pcu) == pytest.approx(0.849, abs=0.002)


def test_pcu_breakdown_matches_table5():
    parts = pcu_breakdown(DEFAULT.pcu)
    assert parts["FUs"] == pytest.approx(0.622, abs=0.001)
    assert parts["Registers"] == pytest.approx(0.144, abs=0.001)
    assert parts["FIFOs"] == pytest.approx(0.082, abs=0.001)


def test_pmu_area_matches_table5():
    assert pmu_area(DEFAULT.pmu) == pytest.approx(0.532, abs=0.002)


def test_pmu_breakdown_matches_table5():
    parts = pmu_breakdown(DEFAULT.pmu)
    assert parts["Scratchpad"] == pytest.approx(0.477, abs=0.001)
    assert parts["FIFOs"] == pytest.approx(0.024, abs=0.001)
    assert parts["Registers"] == pytest.approx(0.023, abs=0.001)


def test_chip_total_matches_table5():
    chip = chip_area(DEFAULT)
    assert chip.total == pytest.approx(112.8, abs=0.5)
    assert chip.interconnect == pytest.approx(18.796, abs=0.01)
    assert chip.memory_controller == pytest.approx(5.616, abs=0.01)


def test_chip_percentages_match_table5():
    shares = chip_area(DEFAULT).percentages()
    assert shares["PCU"] == pytest.approx(48.16, abs=0.5)
    assert shares["PMU"] == pytest.approx(30.2, abs=0.5)
    assert shares["Interconnect"] == pytest.approx(16.66, abs=0.5)
    assert shares["MemoryController"] == pytest.approx(4.98, abs=0.3)


def test_area_scales_with_lanes():
    wide = PcuParams(lanes=32)
    narrow = PcuParams(lanes=8)
    assert pcu_area(wide) > pcu_area(DEFAULT.pcu) > pcu_area(narrow)


def test_area_monotonic_in_stages():
    areas = [pcu_area(PcuParams(stages=s)) for s in (2, 4, 6, 10, 16)]
    assert areas == sorted(areas)


def test_pmu_area_scales_with_bank_kb():
    small = pmu_area(PmuParams(bank_kb=4))
    large = pmu_area(PmuParams(bank_kb=64))
    assert large > 4 * small  # scratchpad dominates
