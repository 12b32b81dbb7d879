"""The block evaluator of leaf bodies against the tree-walking reference.

``repro.sim.datapath`` evaluates an inner-controller body over a block
of vector issues in one numpy pass, and the leaf follows the block's
log.  The hand-built leaves below each isolate one behaviour of the
per-issue interpreter that the bit-identical invariants depend on;
every one is run through the block evaluator *and* through
``tests/sim/reference_datapath.py`` and the per-issue logs (addresses
priced, conflict cost, every store/emit in order) must agree exactly.
The differential tests then do the same over the app registry and 200
fuzz programs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import ALL_APPS
from repro.compiler import compile_to_bitstream, freeze_program
from repro.dhdl import (Counter, CounterChain, EmitStmt, HashReduceStmt,
                        InnerCompute, ReduceStmt, WriteStmt)
from repro.dhdl.memory import BankingMode, FifoDecl, Reg, Sram
from repro.errors import SimulationError
from repro.fuzz.generator import build_program, gen_spec, spec_name
from repro.fuzz.oracle import FUZZ_OPTIONS
from repro.patterns import expr as E
from repro.sim import FabricConfig, FifoSim, LeafTiming, MemoryState
from repro.sim.batch import _RecordingMachine
from repro.sim.block import BLOCK_LANES
from repro.sim.leaves import InnerComputeSim
from repro.sim.scratchpad import ScratchpadSim
from repro.sim.stats import SimStats

from tests.sim.reference_datapath import (LoggedBlockSim,
                                          LoggedReferenceSim,
                                          LoggingMachine,
                                          assert_same_memory)

F32, I32 = E.FLOAT32, E.INT32
OLD, NOW = (0,), (1,)       # version the inputs live in / the leaf runs at


class Rig:
    """One inner-compute leaf on its own memory, driven tick by tick."""

    def __init__(self, reference, stmts, counters, srams=(), regs=(),
                 fifos=(), data=None, indices=None, banks=16):
        indices = indices or [E.Idx(f"i{k}") for k in range(len(counters))]
        leaf = InnerCompute("leaf", CounterChain(counters, indices), stmts)
        self.mem = MemoryState(srams, regs, banks)
        for name, values in (data or {}).items():
            buf = self.mem.scratchpads[name].buffer(OLD)
            buf[...] = np.asarray(values).reshape(buf.shape)
        config = FabricConfig()
        config.leaf_timing["leaf"] = LeafTiming()
        self.fifos = {f.name: FifoSim(f) for f in fifos}
        cls = LoggedReferenceSim if reference else LoggedBlockSim
        self.sim = cls(leaf, config, self.mem, SimStats(), self.fifos)
        self.sim.log = {}
        self.sim.start({}, NOW)
        self.cycle = 0

    def tick(self, n=1):
        for _ in range(n):
            self.sim.tick(self.cycle)
            self.cycle += 1

    def run(self):
        while self.sim.busy:
            self.tick()
            assert self.cycle < 10_000
        return self

    @property
    def log(self):
        return self.sim.log.get("leaf", [])

    def buf(self, name):
        return self.mem.scratchpads[name].read_buffer(NOW)

    def issues(self):
        return [rec for rec in self.log if rec[0] == "issue"]


def both(*args, **kwargs):
    """Run a leaf to completion under the block evaluator and the
    reference; their logs and memories must match.  Returns the block
    evaluator's rig."""
    kernel = Rig(False, *args, **kwargs).run()
    reference = Rig(True, *args, **kwargs).run()
    assert kernel.log == reference.log
    assert kernel.cycle == reference.cycle
    assert_same_memory(kernel.mem, reference.mem)
    for name, fifo in kernel.fifos.items():
        assert list(fifo.items) == list(reference.fifos[name].items)
    return kernel


def both_raise(match, *args, **kwargs):
    messages = []
    for reference in (False, True):
        with pytest.raises(SimulationError, match=match) as err:
            Rig(reference, *args, **kwargs).run()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def lanes16(hi=16):
    return [Counter(0, hi, par=16)]


# -- 1. order: statement-major, lane-minor, stores visible at once ----------


def test_store_is_visible_to_later_lanes_of_the_same_issue():
    m = Sram("m", (17,), F32)
    i = E.Idx("i")
    # every lane reads the cell the previous lane just wrote; the first
    # store also creates the leaf's version (copy-on-write), so lane 0
    # reads the old version and every later lane the new one
    rig = both([WriteStmt(m, (i + 1,), m[i] + 1.0)], lanes16(), [m],
               data={"m": [5.0] + [0.0] * 16}, indices=[i])
    np.testing.assert_array_equal(rig.buf("m"), np.arange(17) + 5.0)
    assert len(rig.issues()) == 1
    assert sorted(rig.mem.scratchpads["m"].versions) == [OLD, NOW]


def test_store_is_visible_to_later_statements_of_the_same_issue():
    a, m, o = Sram("a", (16,), F32), Sram("m", (16,), F32), \
        Sram("o", (16,), F32)
    i = E.Idx("i")
    data = np.arange(16, dtype=np.float32)
    rig = both([WriteStmt(m, (i,), a[i] * 2.0),
                WriteStmt(o, (i,), m[15 - i])],     # written by lane 15-i
               lanes16(), [a, m, o], data={"a": data}, indices=[i])
    np.testing.assert_array_equal(rig.buf("o"), data[::-1] * 2)


# -- 2. memo scope -----------------------------------------------------------


def test_node_shared_across_statements_is_evaluated_once_per_lane():
    a, o1, o2 = (Sram(n, (16,), F32) for n in ("a", "o1", "o2"))
    i = E.Idx("i")
    shared = a[i] * 3.0
    rig = both([WriteStmt(o1, (i,), shared),
                WriteStmt(o2, (i,), shared + 1.0)],
               lanes16(), [a, o1, o2],
               data={"a": np.arange(16)}, indices=[i])
    np.testing.assert_array_equal(rig.buf("o2"), np.arange(16) * 3.0 + 1)
    (_, _, reads, _, _, _), = rig.issues()
    assert [addrs for _key, addrs in reads] == [list(range(16))]
    assert rig.mem.scratchpads["a"].reads == 16


def test_lazily_shared_node_is_finished_by_the_later_statement():
    a, b, o = (Sram(n, (16,), F32) for n in ("a", "b", "o"))
    fifo = FifoDecl("f", F32, depth=4)
    i = E.Idx("i")
    shared = b[i] * 2.0
    data = {"a": [1, -1] * 8, "b": np.arange(16)}
    rig = both([EmitStmt(fifo, a[i] > 0.0, shared),    # even lanes only
                WriteStmt(o, (i,), shared)],
               lanes16(), [a, b, o], fifos=[fifo], data=data, indices=[i])
    np.testing.assert_array_equal(rig.buf("o"), np.arange(16) * 2.0)
    assert list(rig.fifos["f"].items) == [2.0 * k for k in range(0, 16, 2)]
    (_, _, reads, _, _, _), = rig.issues()
    b_addrs = [addrs for (name, _site), addrs in reads if name == "b"]
    # one load per lane: the emitting lanes' first, then the others'
    assert b_addrs == [list(range(0, 16, 2)) + list(range(1, 16, 2))]


def test_reduce_combine_runs_with_a_fresh_memo():
    a, w = Sram("a", (16,), F32), Sram("w", (1,), F32)
    acc = Reg("acc", F32, init=0.0)
    i = E.Idx("i")
    scale = w[0]                    # one node, read by value and combine
    va, vb = E.Var("acc_a0", F32), E.Var("acc_b0", F32)
    rig = both([ReduceStmt([acc], [a[i] * scale], [va + vb * scale],
                           [va], [vb], [0.0])],
               lanes16(), [a, w], [acc],
               data={"a": np.arange(16), "w": [0.5]}, indices=[i])
    assert rig.mem.registers["acc"].read() == sum(range(16)) * 0.25
    # per lane once for the value, once more inside the combine
    assert rig.mem.scratchpads["w"].reads == 32


# -- 3. lazy Select ----------------------------------------------------------


def test_untaken_select_branch_is_not_evaluated():
    a, d, o = Sram("a", (16,), F32), Sram("d", (16,), I32), \
        Sram("o", (16,), F32)
    i = E.Idx("i")
    far = a[i + 100]                            # out of range if read
    ratio = E.to_float(E.wrap(12) / d[i])       # int division by d
    data = {"a": np.arange(16), "d": [0, 3] * 8}
    rig = both([WriteStmt(o, (i,),
                          E.select(i < 16, a[i], far)
                          + E.select(d[i].eq(0), -1.0, ratio))],
               lanes16(), [a, d, o], data=data, indices=[i])
    np.testing.assert_array_equal(
        rig.buf("o"), np.arange(16) + np.array([-1.0, 4.0] * 8))
    (_, _, reads, _, _, _), = rig.issues()
    assert id(far) not in {site for (_name, site), _addrs in reads}


def test_taken_select_branch_still_raises():
    a, o = Sram("a", (16,), F32), Sram("o", (16,), F32)
    i = E.Idx("i")
    both_raise(r"scratchpad OOB: a\[\[108\]\] shape \(16,\)",
               [WriteStmt(o, (i,), E.select(i < 8, a[i], a[i + 100]))],
               lanes16(), [a, o], indices=[i])


# -- 4. scalar semantics -----------------------------------------------------


def test_float32_rounding_of_a_non_representable_init():
    a = Sram("a", (16,), F32)
    acc = Reg("acc", F32, init=0.0)
    i = E.Idx("i")
    va, vb = E.Var("acc_a0", F32), E.Var("acc_b0", F32)
    rig = both([ReduceStmt([acc], [a[i]], [E.maximum(va, vb)], [va], [vb],
                           [0.1])],
               lanes16(), [a], [acc], data={"a": [0.0] * 16}, indices=[i])
    (_, _, effects), = [r for r in rig.log if r[0] == "finish"]
    rounded = float(np.float32(0.1))
    assert rounded != 0.1
    assert effects == repr([("reg", "acc", rounded)])


def test_an_int_past_int64_faults_and_division_truncates_toward_zero():
    d, o = Sram("d", (16,), I32), Sram("o", (16,), I32)
    i = E.Idx("i")
    rig = both([WriteStmt(o, (i,), (d[i] - 8) / 3 + (d[i] - 8) % 3)],
               lanes16(), [d, o], data={"d": np.arange(16)}, indices=[i])
    want = [int((k - 8) / 3) + (k - 8) % 3 for k in range(16)]
    np.testing.assert_array_equal(rig.buf("o"), want)
    # lane 1's product is 2**80: an INT32 value past int64 is a fault
    big = (d[i] * (2 ** 40)) * (2 ** 40)
    both_raise(r"leaf: arithmetic fault in lanes 0\.\.15: OverflowError: "
               r"integer 1208925819614629174706176 outside int64$",
               [WriteStmt(o, (i,), big / (2 ** 60))], lanes16(), [d, o],
               data={"d": np.arange(16)}, indices=[i])


def test_transcendentals_raise_instead_of_returning_nan():
    a, o = Sram("a", (16,), F32), Sram("o", (16,), F32)
    i = E.Idx("i")
    both_raise(r"leaf: arithmetic fault in lanes 0\.\.15: ValueError: "
               r"math domain error",
               [WriteStmt(o, (i,), E.log(a[i] - 1.0))],
               lanes16(), [a, o], indices=[i])


# -- 5. reductions -----------------------------------------------------------


def test_duplicate_hash_keys_in_one_issue_accumulate_in_lane_order():
    k, v, bins = Sram("k", (16,), I32), Sram("v", (16,), F32), \
        Sram("bins", (4,), F32)
    i = E.Idx("i")
    va, vb = E.Var("acc_a", F32), E.Var("acc_b", F32)
    keys = [0, 0, 1, 3] * 4
    rig = both([HashReduceStmt(bins, k[i], v[i], va * 2.0 + vb, va, vb,
                               0.0)],
               lanes16(), [k, v, bins],
               data={"k": keys, "v": np.arange(16)}, indices=[i])
    want = [0.0] * 4
    for key, value in zip(keys, range(16)):
        want[key] = want[key] * 2.0 + value         # order-sensitive
    np.testing.assert_array_equal(rig.buf("bins"), want)
    (_, _, _, writes, _, _), = rig.issues()
    assert writes == [("bins", keys)]


def test_hash_bins_combine_in_issue_then_lane_order_across_a_block():
    """Four issues in one block, two bins: every bin sees its values in
    issue-then-lane order through an order-sensitive combine."""
    k, v, bins = Sram("k", (64,), I32), Sram("v", (64,), F32), \
        Sram("bins", (2,), F32)
    i = E.Idx("i")
    va, vb = E.Var("acc_a", F32), E.Var("acc_b", F32)
    keys = [(j * 7) % 3 % 2 for j in range(64)]
    rig = both([HashReduceStmt(bins, k[i], v[i], va * 0.5 + vb, va, vb,
                               0.0)],
               lanes16(64), [k, v, bins],
               data={"k": keys, "v": np.arange(64)}, indices=[i])
    want = [0.0, 0.0]
    for key, value in zip(keys, range(64)):
        want[key] = float(np.float32(want[key] * 0.5 + value))
    np.testing.assert_array_equal(rig.buf("bins"), want)
    assert len(rig.issues()) == 4


def test_float32_fold_steps_in_lane_order():
    """One accumulator over 256 lanes: 2**24 + 1 + 1 + ... stays 2**24
    when added in lane order, where a pairwise sum would first add the
    ones up."""
    a = Sram("a", (256,), F32)
    acc = Reg("acc", F32, init=0.0)
    i = E.Idx("i")
    va, vb = E.Var("acc_a0", F32), E.Var("acc_b0", F32)
    data = np.ones(256, np.float32)
    data[0] = 2.0 ** 24
    rig = both([ReduceStmt([acc], [a[i]], [va + vb], [va], [vb], [0.0])],
               lanes16(256), [a], [acc], data={"a": data}, indices=[i])
    assert rig.mem.registers["acc"].read() == 2.0 ** 24
    assert float(np.add.reduce(data)) != 2.0 ** 24


def test_transcendentals_are_the_scalar_ones_bit_for_bit():
    a = Sram("a", (64,), F32)
    outs = {op: Sram(f"o_{op}", (64,), F32)
            for op in ("exp", "log", "sqrt", "sigmoid", "tanh")}
    i = E.Idx("i")
    data = np.linspace(0.01, 7.3, 64, dtype=np.float32)
    rig = both([WriteStmt(o, (i,), getattr(E, op)(a[i]))
                for op, o in outs.items()],
               lanes16(64), [a, *outs.values()], data={"a": data},
               indices=[i])
    for op, o in outs.items():
        fn = E._UNARY_EVAL[op]
        want = np.array([fn(float(x)) for x in data], np.float32)
        assert rig.buf(o.name).tobytes() == want.tobytes(), op


def test_carry_combine_uses_the_last_lanes_bindings_unpriced():
    a, w = Sram("a", (4, 8), F32), Sram("w", (8,), F32)
    out = Sram("out", (4,), F32)
    r, c = E.Idx("r"), E.Idx("c")
    va, vb = E.Var("acc_a0", F32), E.Var("acc_b0", F32)
    weights = np.arange(8, dtype=np.float32) + 1
    rig = both([ReduceStmt([out], [a[r, c]], [va + vb * w[c]], [va], [vb],
                           [0.0], addr=(r,), carry=True)],
               [Counter(0, 4), Counter(0, 8, par=8)], [a, w, out],
               data={"a": np.ones(32), "w": weights, "out": [10.0] * 4},
               indices=[r, c])
    # per row: fold of w[c] over the lanes, then carried into the old
    # contents with the *last* lane's c (w[7] == 8)
    np.testing.assert_array_equal(rig.buf("out"),
                                  [10.0 + weights.sum() * 8.0] * 4)
    # the carry combine's own loads of w are not counted
    assert rig.mem.scratchpads["w"].reads == 32


# -- 6. access recording -----------------------------------------------------


def test_bound_loads_are_priced_with_the_issue_that_wraps():
    lens, a, o = Sram("lens", (3,), I32), Sram("a", (3, 16), F32), \
        Sram("o", (3, 16), F32)
    r, c = E.Idx("r"), E.Idx("c")
    rig = both([WriteStmt(o, (r, c), a[r, c] + 1.0)],
               [Counter(0, 3), Counter(0, lens[r], par=16)], [lens, a, o],
               data={"lens": [16, 0, 5], "a": np.zeros(48)},
               indices=[r, c])
    first, second = rig.issues()
    bound_reads = [[addrs for (name, _site), addrs in rec[2]
                    if name == "lens"] for rec in (first, second)]
    # priming reads lens[0]; wrapping out of row 0 reads lens[1] (an
    # empty row) and lens[2], each once — all before, and priced with,
    # the first issue
    assert bound_reads == [[[0, 1, 2]], []]
    assert rig.mem.scratchpads["lens"].reads == 3
    np.testing.assert_array_equal(
        rig.buf("o").sum(axis=1), [16.0, 0.0, 5.0])


def test_load_the_bounds_share_is_one_group_with_their_reads():
    lens, a, o = Sram("lens", (3,), I32), Sram("a", (3, 16), F32), \
        Sram("o", (3, 16), F32)
    r, c = E.Idx("r"), E.Idx("c")
    length = lens[r]                    # one node: the bound and the body
    rig = both([WriteStmt(o, (r, c), a[r, c] + E.to_float(length))],
               [Counter(0, 3), Counter(0, length, par=16)], [lens, a, o],
               data={"lens": [2, 0, 3], "a": np.zeros(48)},
               indices=[r, c])
    first, second = rig.issues()
    groups = [[addrs for (name, _site), addrs in rec[2] if name == "lens"]
              for rec in (first, second)]
    # the bound reads of the wrap (rows 0, 1, 2) and the two lanes'
    assert groups == [[[0, 1, 2, 0, 0]], [[2, 2, 2]]]
    np.testing.assert_array_equal(rig.buf("o").sum(axis=1), [4, 0, 9])


def _csr(rows, lengths):
    """``ptr`` of a CSR matrix whose row ``r`` holds ``lengths(r)``
    elements."""
    ptr = [0]
    for r in range(rows):
        ptr.append(ptr[-1] + lengths(r))
    return ptr


def test_empty_rows_straddling_a_window_and_a_block_boundary():
    """4 095 rows of two elements fill a block but for one issue; the
    empty rows after them run past the first bound window (BLOCK_LANES
    rows from row 0), and the block ends inside the rows after that:
    every bound read is priced with the issue the reference prices it
    with."""
    assert BLOCK_LANES == 8192
    ptr = _csr(8256, lambda r: 2 if r < 4095 else 3 if r > 8250 else 0)
    p, o = Sram("ptr", (len(ptr),), I32), Sram("o", (ptr[-1],), F32)
    r, j = E.Idx("r"), E.Idx("j")
    rig = both([WriteStmt(o, (j,), E.to_float(r))],
               [Counter(0, 8256), Counter(p[r], p[r + 1], par=16)], [p, o],
               data={"ptr": ptr}, indices=[r, j])
    assert len(rig.issues()) == 4095 + 5
    assert rig.mem.scratchpads["ptr"].reads == 2 * 8256


def test_bound_select_whose_positions_take_different_branches():
    ptr = _csr(40, lambda r: r % 5)
    p, lens = Sram("ptr", (41,), I32), Sram("lens", (40,), I32)
    o = Sram("o", (ptr[-1] + 40,), F32)
    r, j = E.Idx("r"), E.Idx("j")
    lo = p[r]
    hi = E.select((r % 3).eq(0), p[r + 1], lo + lens[r])
    rig = both([WriteStmt(o, (j,), E.to_float(r))],
               [Counter(0, 40), Counter(lo, hi, par=4)], [p, lens, o],
               data={"ptr": ptr, "lens": [(r * 7) % 4 for r in range(40)]},
               indices=[r, j])
    sites = {name for rec in rig.issues() for (name, _site), _a in rec[2]}
    assert sites == {"ptr", "lens"}


def test_out_of_range_bound_read_inside_a_window():
    """Row 21's ``ptr[22]`` is out of range, in the middle of the first
    window: the same error, at the same cycle, after the same issues.
    The chain reads it stepping past row 20's only issue, so that issue
    is the one the fault stops."""
    p, o = Sram("ptr", (22,), I32), Sram("o", (32,), F32)
    r, j = E.Idx("r"), E.Idx("j")
    stmts = [WriteStmt(o, (j,), E.to_float(r))]
    chain = [Counter(0, 30), Counter(p[r], p[r + 1], par=16)]
    seen = []
    for reference in (False, True):
        rig = Rig(reference, stmts, chain, [p, o],
                  data={"ptr": list(range(22))}, indices=[r, j])
        with pytest.raises(SimulationError,
                           match=r"scratchpad OOB: ptr\[\[22\]\]") as err:
            rig.run()
        seen.append((str(err.value), rig.cycle, rig.log))
    assert seen[0] == seen[1]
    assert len([rec for rec in seen[0][2] if rec[0] == "issue"]) == 20


def test_body_storing_to_the_scratchpad_its_bounds_read():
    """Each row's stores write the next row's length.  The leaf steps
    issue by issue, and the chain reads a row's bounds as it steps past
    the row before, ahead of that row's stores: row 1 has lens[1] == 1
    lane, whose store leaves lens[2] == 2 — too late for row 2, read
    as 0 before it, and for row 3."""
    lens, o = Sram("lens", (4,), I32), Sram("o", (4, 16), F32)
    r, j = E.Idx("r"), E.Idx("j")
    rig = both([WriteStmt(lens, (E.minimum(r + 1, 3),), j + 2),
                WriteStmt(o, (r, j), E.to_float(j))],
               [Counter(0, 4), Counter(0, lens[r], par=16)], [lens, o],
               data={"lens": [2, 1, 0, 0]}, indices=[r, j])
    assert rig.buf("lens").tolist() == [2, 3, 2, 0]
    assert len(rig.issues()) == 2


def test_fifo_full_retry_evaluates_nothing():
    a = Sram("a", (32,), F32)
    fifo = FifoDecl("f", F32, depth=1)          # one 16-word vector
    i = E.Idx("i")
    stmts = [EmitStmt(fifo, E.wrap(True), a[i])]
    rigs = [Rig(reference, stmts, lanes16(32), [a], fifos=[fifo],
                data={"a": np.arange(32)}, indices=[i])
            for reference in (False, True)]
    for rig in rigs:
        rig.tick(5)             # one issue fits; the second is blocked
        assert len(rig.issues()) == 1
        assert rig.mem.scratchpads["a"].reads == 16
        assert rig.sim.stats.fifo_stall_cycles == 4
        assert rig.fifos["f"].pop(16) == list(range(16))
        rig.run()
        assert rig.mem.scratchpads["a"].reads == 32
    assert rigs[0].log == rigs[1].log


# -- 7. typed errors ---------------------------------------------------------


def test_out_of_bounds_load_and_store():
    a, o = Sram("a", (4, 4), F32), Sram("o", (16,), F32)
    i = E.Idx("i")
    both_raise(r"scratchpad OOB: a\[\[1, 4\]\] shape \(4, 4\)",
               [WriteStmt(o, (i,), a[1, i])], lanes16(), [a, o],
               indices=[i])
    both_raise(r"scratchpad OOB write: o\[\[16\]\] shape \(16,\)",
               [WriteStmt(o, (i + 1,), a[0, 0])], lanes16(), [a, o],
               indices=[i])


def test_arithmetic_fault_in_a_counter_bound_is_typed():
    d, o = Sram("d", (4,), I32), Sram("o", (16,), F32)
    i = E.Idx("i")
    both_raise(r"leaf: arithmetic fault in counter bounds: "
               r"ZeroDivisionError: ",
               [WriteStmt(o, (i,), E.to_float(i))],
               [Counter(0, E.wrap(16) / d[0], par=16)], [d, o],
               indices=[i])


def test_hash_key_out_of_range():
    bins = Sram("bins", (4,), F32)
    i = E.Idx("i")
    va, vb = E.Var("acc_a", F32), E.Var("acc_b", F32)
    both_raise(r"leaf: hash key 4 outside \[0, 4\)",
               [HashReduceStmt(bins, i, E.wrap(1.0), va + vb, va, vb,
                               0.0)],
               lanes16(), [bins], indices=[i])


def test_unbound_symbol():
    o = Sram("o", (16,), F32)
    i, ghost = E.Idx("i"), E.Idx("ghost")
    both_raise(r"unbound symbol Idx\(ghost\) in datapath",
               [WriteStmt(o, (i,), E.to_float(ghost))], lanes16(), [o],
               indices=[i])
    # ... but not while only an untaken branch reads it
    both([WriteStmt(o, (i,), E.select(i < 16, 1.0, E.to_float(ghost)))],
         lanes16(), [o], indices=[i])


def test_selects_nested_deeply_evaluate_like_the_reference():
    """Selects nested in branches a hundred deep and more (the per-issue
    code generator stopped at about 100) evaluate lane by lane like the
    interpreter."""
    a, o = Sram("a", (16,), F32), Sram("o", (16,), F32)
    i = E.Idx("i")
    value = a[i]
    for k in range(120):
        value = E.select(i.eq(100 + k), float(k), value)
    value = E.select(i.eq(3), value + 1.0, value)
    rig = both([WriteStmt(o, (i,), value)], lanes16(), [a, o],
               data={"a": np.arange(16)}, indices=[i])
    np.testing.assert_array_equal(rig.buf("o"),
                                  np.arange(16) + (np.arange(16) == 3))


def test_select_nested_deeper_than_compiled_code_allowed_bounds_a_counter():
    """A counter bound of 120 nested Selects (the scalar code generator
    rejected it as nesting too deeply to compile) is walked like any
    other: 16 iterations, one issue."""
    ptr, o = Sram("ptr", (4,), I32), Sram("o", (16,), F32)
    i = E.Idx("i")
    value = ptr[0]
    for k in range(120):
        value = E.select(ptr[0].eq(100 + k), k, value)
    rig = both([WriteStmt(o, (i,), E.to_float(i))],
               [Counter(0, value, par=16)], [ptr, o],
               data={"ptr": [16, 0, 0, 0]}, indices=[i])
    (issue,) = rig.issues()
    # every Select's condition reads ptr[0] at a load site of its own
    assert [addrs for (name, _site), addrs in issue[2]
            if name == "ptr"] == [[0]] * 121
    np.testing.assert_array_equal(rig.buf("o"), np.arange(16))


# -- 8. the store / count / price seam ---------------------------------------


def test_two_lanes_storing_one_address_last_wins_both_priced():
    a, o = Sram("a", (16,), F32), Sram("o", (8,), F32)
    i = E.Idx("i")
    rig = both([WriteStmt(o, (i / 2,), a[i])], lanes16(), [a, o],
               data={"a": np.arange(16)}, indices=[i])
    np.testing.assert_array_equal(rig.buf("o"), np.arange(1, 16, 2))
    (_, _, _, writes, extra, _), = rig.issues()
    assert writes == [("o", [k // 2 for k in range(16)])]
    assert extra == 0                   # eight distinct banks
    assert rig.mem.scratchpads["o"].writes == 16


def test_out_of_bounds_store_messages_are_the_scratchpads_own():
    a = Sram("a", (16,), F32)
    o2, o3 = Sram("o2", (4, 4), F32), Sram("o3", (2, 3, 4), F32)
    i = E.Idx("i")
    # lane 3 is the first out of range in both
    for sram, idxs, first_bad in [
            (o2, (i / 4, i % 4 + 1), [0, 4]),
            (o3, (i / 4, i % 4, E.wrap(0)), [0, 3, 0])]:
        with pytest.raises(SimulationError) as stored:
            ScratchpadSim(sram).store(NOW, first_bad, 1.0)
        assert str(stored.value).startswith(
            f"scratchpad OOB write: {sram.name}[{first_bad}] shape ")
        for reference in (False, True):
            with pytest.raises(SimulationError) as issued:
                Rig(reference, [WriteStmt(sram, idxs, a[i])], lanes16(),
                    [a, sram], indices=[i]).run()
            assert str(issued.value) == str(stored.value)


def test_store_creates_its_version_copy_on_write_and_moves_the_watermark():
    o = Sram("o", (4, 16), F32)
    r, c = E.Idx("r"), E.Idx("c")
    args = ([WriteStmt(o, (r, 15 - c), E.to_float(r * 16 + c))],
            [Counter(1, 3), Counter(0, 16, par=8)], [o])
    old = np.arange(64, dtype=np.float32) + 100.0
    rigs = [Rig(reference, *args, data={"o": old}, indices=[r, c])
            for reference in (False, True)]
    marks = []
    while rigs[0].sim.busy:
        for rig in rigs:
            rig.tick()
        pads = [rig.mem.scratchpads["o"] for rig in rigs]
        assert pads[0].watermark == pads[1].watermark
        assert pads[0].watermark_for(NOW) == pads[1].watermark_for(NOW)
        marks.append(pads[0].watermark_for(NOW))
    assert rigs[0].log == rigs[1].log
    assert_same_memory(rigs[0].mem, rigs[1].mem)
    # rows 1 and 2, high half of the row first: the mark is the highest
    # word stored so far, not the last
    assert marks[:4] == [32, 32, 48, 48]
    want = old.reshape(4, 16).copy()
    want[1:3] = (np.arange(16, 48, dtype=np.float32)
                 .reshape(2, 16)[:, ::-1])
    np.testing.assert_array_equal(rigs[0].buf("o"), want)
    # ... and the version the leaf read its copy from is untouched
    np.testing.assert_array_equal(
        rigs[0].mem.scratchpads["o"].versions[OLD].reshape(-1), old)


def test_stores_cast_through_the_scratchpads_dtype():
    a = Sram("a", (16,), F32)
    ints, flags = Sram("ints", (16,), I32), Sram("flags", (16,), E.BOOL)
    i = E.Idx("i")
    data = np.linspace(-2.0, 5.5, 16, dtype=np.float32)
    rig = both([WriteStmt(ints, (i,), a[i] * 1.5),
                WriteStmt(flags, (i,), a[i])],
               lanes16(), [a, ints, flags], data={"a": data}, indices=[i])
    assert rig.buf("ints").dtype == np.int32
    np.testing.assert_array_equal(
        rig.buf("ints"), [np.int32(float(np.float32(v) * 1.5))
                          for v in data])
    assert rig.buf("flags").dtype == np.bool_
    np.testing.assert_array_equal(rig.buf("flags"), data != 0)


def test_load_site_no_lane_reaches_leaves_no_group():
    a, b, o = (Sram(n, (16,), F32) for n in ("a", "b", "o"))
    i = E.Idx("i")
    lane = i % 16
    rig = both([WriteStmt(o, (lane,),
                          E.select(a[lane] > i * 10.0, b[lane], a[lane]))],
               lanes16(32), [a, b, o],
               data={"a": [0.0] * 15 + [200.0], "b": np.arange(16)},
               indices=[i])
    first, second = rig.issues()
    sites = [{name for (name, _site), _addrs in rec[2]}
             for rec in (first, second)]
    # lane 15 of the first issue takes the branch; in the second issue
    # (i * 10 >= 160 > every a) no lane does, and b is neither in the
    # record nor counted
    assert sites == [{"a", "b"}, {"a"}]
    assert rig.mem.scratchpads["b"].reads == 1


def test_uniform_load_is_read_once_and_priced_once_per_lane():
    ptr, a, o = Sram("ptr", (4,), I32), Sram("a", (32,), F32), \
        Sram("o", (16,), F32)
    i = E.Idx("i")
    rig = both([WriteStmt(o, (i,), a[i + ptr[1]])], lanes16(), [ptr, a, o],
               data={"ptr": [0, 7, 9, 9], "a": np.arange(32)}, indices=[i])
    np.testing.assert_array_equal(rig.buf("o"), np.arange(16) + 7.0)
    assert rig.mem.scratchpads["ptr"].reads == 16


def test_uniform_load_under_a_lazily_shared_node_stays_per_lane():
    a, b, o = (Sram(n, (16,), F32) for n in ("a", "b", "o"))
    ptr = Sram("ptr", (4,), F32)
    fifo = FifoDecl("f", F32, depth=4)
    i = E.Idx("i")
    # the emitting lanes evaluate ``shared`` (and read ptr[1]) first,
    # the store statement finishes the others: one read per lane in all
    shared = (b[i] + ptr[1]) * 2.0
    rig = both([EmitStmt(fifo, a[i] > 0.0, shared),
                WriteStmt(o, (i,), shared)],
               lanes16(), [a, b, o, ptr], fifos=[fifo],
               data={"a": [1, -1] * 8, "b": np.arange(16),
                     "ptr": [0, 5, 0, 0]}, indices=[i])
    np.testing.assert_array_equal(rig.buf("o"), (np.arange(16) + 5) * 2.0)
    assert rig.mem.scratchpads["ptr"].reads == 16


MODES = st.sampled_from(list(BankingMode))


def _general_rule(addrs, mode, stride, banks, write):
    """The pricing rule with no shortcut in it (the pre-kernel text)."""
    if mode is BankingMode.DUPLICATION and write:
        return max(0, len(addrs) - 1)
    if mode is not BankingMode.STRIDED:
        return 0
    hit = [(addr // stride) % banks for addr in set(addrs)]
    if len(set(hit)) == len(hit):
        return 0
    return max(map(hit.count, set(hit))) - 1


ADDRESS_LISTS = st.one_of(
    st.lists(st.integers(0, 255), min_size=0, max_size=24),
    # the shapes the shortcuts decide, and their near misses
    st.builds(lambda lo, n, step: list(range(lo, lo + n * step, step)),
              st.integers(0, 200), st.integers(1, 24), st.integers(1, 3)),
    st.builds(lambda addr, n, odd: [addr] * n + odd,
              st.integers(0, 255), st.integers(1, 24),
              st.lists(st.integers(0, 255), max_size=1)))


@settings(max_examples=300, deadline=None)
@given(ADDRESS_LISTS, MODES, st.sampled_from([1, 2, 4, 16]),
       st.sampled_from([1, 4, 16, 32]), st.booleans())
def test_shortcut_pricing_equals_the_general_rule(addrs, mode, stride,
                                                  banks, write):
    pad = ScratchpadSim(Sram("t", (256,), F32, mode, bank_stride=stride),
                        banks)
    want = _general_rule(addrs, mode, stride, banks, write)
    assert pad.conflict_extra(addrs, write) == want
    assert pad.conflict_extra(tuple(addrs), write) == want


@st.composite
def _blocks(draw):
    """``(banks, rows)``: a block of equal-length groups, each row's
    addresses drawn from a window of random width that its first two
    lanes span end to end.  Windows narrower than ``banks`` take the
    fast exit of ``conflict_extra`` (every row spans fewer words than
    there are banks); windows of exactly ``banks`` words, whose two
    ends share a bank, and one wide row among narrow ones do not."""
    banks = draw(st.sampled_from([1, 2, 4, 16, 32]))
    count = draw(st.integers(2, 20))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        low = draw(st.integers(0, 200))
        width = draw(st.one_of(st.integers(1, 40),
                               st.sampled_from([banks - 1 or 1, banks,
                                                banks + 1])))
        rows.append([low, low + width - 1] + draw(st.lists(
            st.integers(low, low + width - 1), min_size=count - 2,
            max_size=count - 2)))
    return banks, rows


@settings(max_examples=400, deadline=None)
@given(_blocks(), MODES, st.sampled_from([1, 2, 4, 16]), st.booleans())
def test_block_pricing_equals_the_general_rule_row_by_row(block, mode,
                                                          stride, write):
    banks, rows = block
    pad = ScratchpadSim(Sram("t", (256,), F32, mode, bank_stride=stride),
                        banks)
    want = [_general_rule(row, mode, stride, banks, write) for row in rows]
    got = pad.conflict_extra(np.array(rows, np.int64), write)
    assert got.dtype == np.int64
    assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=16, max_size=16), MODES,
       st.sampled_from([1, 4]), st.sampled_from([4, 16]))
def test_kernel_prices_gathers_and_scatters_like_the_reference(
        addrs, mode, stride, banks):
    d = Sram("d", (16,), I32)
    a = Sram("a", (64,), F32, mode, bank_stride=stride)
    o = Sram("o", (64,), F32, mode, bank_stride=stride)
    i = E.Idx("i")
    rig = both([WriteStmt(o, (d[i],), a[d[i]] + a[i])], lanes16(),
               [d, a, o], data={"d": addrs, "a": np.arange(64)},
               indices=[i], banks=banks)
    (_, _, _, _, extra, _), = rig.issues()
    pads = rig.mem.scratchpads
    lanes = list(range(16))
    assert extra == max(pads["d"].conflict_extra(lanes),
                        pads["a"].conflict_extra(lanes),
                        pads["a"].conflict_extra(addrs),
                        pads["o"].conflict_extra(addrs, True))


# -- pins: one pass per block, no per-lane round trip ------------------------


def test_store_statement_calls_nothing_of_the_leaf(monkeypatch):
    """A block's stores land as columns: no per-lane ``store`` call and
    no per-group pricing call, and the leaf keeps no per-lane hooks."""
    calls = []
    monkeypatch.setattr(ScratchpadSim, "store",
                        lambda *a: calls.append("store"))
    monkeypatch.setattr(ScratchpadSim, "read_cost",
                        lambda *a: calls.append("read_cost"))
    monkeypatch.setattr(ScratchpadSim, "write_cost",
                        lambda *a: calls.append("write_cost"))
    a, o = Sram("a", (64,), F32), Sram("o", (16, 4), F32)
    i = E.Idx("i")
    rig = Rig(False, [WriteStmt(o, (i / 4, i % 4), a[i])], lanes16(64),
              [a, o], data={"a": np.arange(64)}, indices=[i]).run()
    np.testing.assert_array_equal(rig.buf("o").reshape(-1), np.arange(64))
    assert calls == []
    assert len(rig.issues()) == 4
    for name in ("_write_sram", "_price", "_write_reg", "_hash_store",
                 "_emit_values", "_kernel"):
        assert not hasattr(InnerComputeSim, name)


def test_solo_recording_and_logging_leaves_follow_the_same_log():
    compiled = compile_to_bitstream("smdv", "tiny")
    log = {}
    machines = [compiled.machine(),
                _RecordingMachine(compiled.dhdl, compiled.config, log),
                LoggingMachine(compiled.dhdl, compiled.config)]
    stats = [machine.run().as_dict() for machine in machines]
    assert stats[0] == stats[1] == stats[2]
    issues = {name: sum(block.n for act in acts for block in act.blocks)
              for name, acts in log.items()}
    logged = {name: sum(rec[0] == "issue" for rec in recs)
              for name, recs in machines[2].issue_log.items()}
    assert issues and issues == logged


# -- differential: every vector issue of real programs -----------------------


def assert_same_issues(dhdl, config):
    blocks = LoggingMachine(dhdl, config)
    reference = LoggingMachine(dhdl, config, reference=True)
    assert blocks.run().as_dict() == reference.run().as_dict()
    assert sorted(blocks.issue_log) == sorted(reference.issue_log)
    for name, want in reference.issue_log.items():
        got = blocks.issue_log[name]
        assert len(got) == len(want), name
        for k, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"{name}: record {k} differs"
    assert_same_memory(blocks.mem, reference.mem)
    return sum(map(len, blocks.issue_log.values()))


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("app", ALL_APPS, ids=lambda app: app.name)
def test_registry_issue_by_issue(app, scale):
    compiled = compile_to_bitstream(app.name, scale)
    assert assert_same_issues(compiled.dhdl, compiled.config) > 0


@pytest.mark.parametrize("first", range(0, 200, 25))
def test_fuzz_issue_by_issue(first):
    for seed in range(first, first + 25):
        spec = gen_spec(seed)
        program, _outputs = build_program(spec)
        artifact = freeze_program(program, spec_name(spec), "fuzz",
                                  options=FUZZ_OPTIONS)
        assert_same_issues(artifact.dhdl, artifact.config)
