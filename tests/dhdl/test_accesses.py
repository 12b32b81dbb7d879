"""Every controller's read and write sets, computed bottom-up once.

``repro.dhdl.analysis.accesses`` walks the controller tree once;
``tests/dhdl/reference_access.py`` is the recursive pair of queries it
replaced.  Over every registry app, every corpus entry and 200 fuzz
programs, both must give every controller the same sets.
"""

from pathlib import Path

import pytest

from repro.apps.registry import ALL_APPS
from repro.compiler import compile_to_bitstream, freeze_program
from repro.dhdl.analysis import accesses
from repro.fuzz import load_spec
from repro.fuzz.generator import build_program, gen_spec
from repro.fuzz.oracle import FUZZ_OPTIONS

from tests.dhdl.reference_access import mem_reads, mem_writes

CORPUS = Path(__file__).parent.parent / "fuzz" / "corpus"


def assert_same_accesses(dhdl) -> None:
    got = accesses(dhdl)
    controllers = list(dhdl.controllers())
    assert sorted(c.name for c in got) == sorted(c.name for c in controllers)
    for ctrl in controllers:
        assert got[ctrl] == (mem_reads(ctrl), mem_writes(ctrl)), ctrl.name


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda app: app.name)
def test_registry_accesses_equal_the_recursive_queries(app):
    assert_same_accesses(compile_to_bitstream(app.name, "tiny").dhdl)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_corpus_accesses_equal_the_recursive_queries(path):
    program, _outputs = build_program(load_spec(path))
    assert_same_accesses(freeze_program(program, path.stem, "fuzz",
                                        options=FUZZ_OPTIONS).dhdl)


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_fuzz_accesses_equal_the_recursive_queries(first):
    for seed in range(first, first + 50):
        program, _outputs = build_program(gen_spec(seed))
        assert_same_accesses(freeze_program(program, program.name, "fuzz",
                                            options=FUZZ_OPTIONS).dhdl)
