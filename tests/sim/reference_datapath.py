"""The per-lane tree-walking datapath interpreter, kept as a reference.

``repro.sim.datapath`` evaluates an inner-controller body one block of
vector issues at a time, and the leaf follows the block's log.  This
module is the recursive, ``isinstance``-dispatched per-issue interpreter
that came before — evaluation order, memo scope, lazy ``Select``,
float32 rounding (of whatever a FLOAT32 node yields), access recording
and error messages exactly as it was, every store one
``ScratchpadSim.store`` call, every group priced by ``read_cost`` /
``write_cost``, one issue per tick — so the differential tests can run
both and compare every vector issue: :class:`IssueLog` records the
interpreter's issues as they happen, :class:`BlockLog` the same record
for each issue a block-following leaf applies.  It is slow on purpose;
nothing under ``src/`` may import it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dhdl.ir import (EmitStmt, HashReduceStmt, InnerCompute,
                           ReduceStmt, WriteStmt)
from repro.dhdl.memory import Reg, Sram
from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.sim.datapath import datapath_fault
from repro.sim.leaves import InnerComputeSim
from repro.sim.machine import Machine

from tests.sim.reference_chain import ReferenceChain


def _index(value):
    """An address, key or bound as ``to_int`` makes it (past int64 it
    faults)."""
    return E.eval_unary("to_int", value)


class LaneContext:
    """Evaluates expressions for one activation of an inner controller.

    ``accesses`` accumulates ``(sram name, load site) -> [flat
    addresses]`` for the current vector of lanes."""

    def __init__(self, mem, version):
        self.mem = mem
        self.version = version
        self.accesses: Dict[Tuple, List[int]] = {}

    def reset_accesses(self) -> Dict[Tuple, List[int]]:
        out, self.accesses = self.accesses, {}
        return out

    def eval(self, node: E.Expr, bindings, cache=None):
        """Evaluate one expression to a scalar under lane bindings."""
        if cache is None:
            cache = {}
        if node in cache:
            return cache[node]
        result = self._eval(node, bindings, cache)
        if node.dtype == E.FLOAT32:
            result = float(np.float32(result))
        cache[node] = result
        return result

    def _eval(self, node, bindings, cache):
        if isinstance(node, E.Const):
            return node.value
        if isinstance(node, (E.Idx, E.Var)):
            try:
                return bindings[node]
            except KeyError:
                raise SimulationError(
                    f"unbound symbol {node!r} in datapath") from None
        if isinstance(node, E.Load):
            return self._load(node, bindings, cache)
        if isinstance(node, E.BinOp):
            return E.eval_binary(node.op,
                                 self.eval(node.lhs, bindings, cache),
                                 self.eval(node.rhs, bindings, cache))
        if isinstance(node, E.UnOp):
            return E.eval_unary(node.op,
                                self.eval(node.operand, bindings, cache))
        if isinstance(node, E.Select):
            cond = self.eval(node.cond, bindings, cache)
            branch = node.if_true if cond else node.if_false
            return self.eval(branch, bindings, cache)
        raise SimulationError(f"cannot evaluate {node!r} on the datapath")

    def _load(self, node: E.Load, bindings, cache):
        target = node.array
        if isinstance(target, Reg):
            return self.mem.reg(target).read()
        if isinstance(target, Sram):
            idxs = [_index(self.eval(i, bindings, cache))
                    for i in node.indices]
            scratch = self.mem.scratch(target)
            buf = scratch.read_buffer(self.version)
            flat = 0
            for axis, idx in enumerate(idxs):
                if idx < 0 or idx >= buf.shape[axis]:
                    raise SimulationError(
                        f"scratchpad OOB: {target.name}[{idxs}] shape "
                        f"{buf.shape}")
                flat = flat * buf.shape[axis] + idx
            self.accesses.setdefault((target.name, id(node)),
                                     []).append(flat)
            return buf[tuple(idxs)].item()
        raise SimulationError(
            f"datapath cannot read {type(target).__name__} "
            f"{getattr(target, 'name', '?')!r}")


class ReferenceInnerComputeSim(InnerComputeSim):
    """An inner compute whose body is interpreted issue by issue: every
    scratchpad store is one ``ScratchpadSim.store`` call, every address
    group one ``read_cost`` / ``write_cost`` call, lane by lane and
    group by group.  It leaves each issue's record on the leaf:
    ``_reads`` (``(sram name, load site) -> addresses``), ``_writes``
    (``sram name -> addresses``) and ``_fx`` (its effects in order)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.free = False

    def _begin_body(self, bindings, version):
        ctx = self._ctx = LaneContext(self.mem, version)
        self._enum = ReferenceChain(
            self.leaf.chain,
            lambda counter, bnd: (ctx.eval(counter.lo, bnd, {}),
                                  ctx.eval(counter.hi, bnd, {})),
            bindings)
        self._accs = {k: {} for k, s in enumerate(self.leaf.stmts)
                      if isinstance(s, ReduceStmt)}

    def _next_issue(self):
        """The next ``Batch`` (the bound reads it makes are priced with
        it), None at the chain's end."""
        self._ctx.reset_accesses()
        try:
            return self._enum.next_batch()
        except (ArithmeticError, ValueError) as err:
            raise datapath_fault(self.name, "counter bounds", err)

    def _execute(self, batch):
        ctx = self._ctx
        if not self._check_fifo_room(batch.lanes):
            return None
        lanes = batch.lane_bindings
        write_addrs = self._writes = {}
        self._fx = []
        caches = [dict() for _ in lanes]
        try:
            for si, stmt in enumerate(self.leaf.stmts):
                if isinstance(stmt, WriteStmt):
                    self._do_write(stmt, lanes, ctx, caches, write_addrs)
                elif isinstance(stmt, ReduceStmt):
                    self._do_reduce(si, stmt, lanes, ctx, caches)
                elif isinstance(stmt, HashReduceStmt):
                    self._do_hash(stmt, lanes, ctx, caches, write_addrs)
                elif isinstance(stmt, EmitStmt):
                    self._do_emit(stmt, lanes, ctx, caches)
                else:
                    raise SimulationError(f"unknown stmt {stmt!r}")
        except (ArithmeticError, ValueError) as err:
            raise datapath_fault(
                self.name, f"lanes {batch.values[0]}..{batch.values[-1]}",
                err)
        reads = self._reads = ctx.reset_accesses()
        extra = self._price(reads, write_addrs)
        self.stats.conflict_cycles += extra
        self.stats.ops_executed += self._ops_per_lane * batch.lanes
        return extra

    def _price(self, read_accesses, write_addrs) -> int:
        """Price the cycle: bank conflicts on reads and writes, per
        operand stream (each load site reads in its own stage)."""
        extra = 0
        for (name, _site), addrs in read_accesses.items():
            extra = max(extra, self.mem.scratchpads[name].read_cost(addrs))
        for name, addrs in write_addrs.items():
            extra = max(extra, self.mem.scratchpads[name].write_cost(addrs))
        return extra

    # effect primitives (the logging mixin records through them)
    def _write_reg(self, mem, value) -> None:
        self.mem.reg(mem).write(value)

    def _hash_store(self, mem, buf, key, value) -> None:
        buf.flat[key] = value

    def _emit_values(self, fifo, values) -> None:
        fifo.push(values)

    def _write_sram(self, mem, idxs, value) -> int:
        flat = self.mem.scratch(mem).store(self._version, idxs, value)
        self._fx.append(("s", mem.name, [flat], [value]))
        return flat

    def _do_write(self, stmt, lanes, ctx, caches, write_addrs):
        for lane, cache in zip(lanes, caches):
            value = ctx.eval(stmt.value, lane, cache)
            if isinstance(stmt.mem, Reg):
                self._write_reg(stmt.mem, value)
                continue
            idxs = [_index(ctx.eval(a, lane, cache)) for a in stmt.addr]
            flat = self._write_sram(stmt.mem, idxs, value)
            write_addrs.setdefault(stmt.mem.name, []).append(flat)

    def _do_reduce(self, si, stmt, lanes, ctx, caches):
        accs = self._accs[si]
        for lane, cache in zip(lanes, caches):
            values = [ctx.eval(v, lane, cache) for v in stmt.values]
            key = tuple(_index(ctx.eval(a, lane, cache)) for a in stmt.addr)
            prev = accs[key][1] if key in accs else list(stmt.inits)
            cbind = dict(lane)
            for k in range(stmt.width):
                cbind[stmt.acc_a[k]] = prev[k]
                cbind[stmt.acc_b[k]] = values[k]
            ccache = {}
            combined = [ctx.eval(c, cbind, ccache) for c in stmt.combines]
            accs[key] = (lane, combined)

    def _do_hash(self, stmt, lanes, ctx, caches, write_addrs):
        for lane, cache in zip(lanes, caches):
            key = _index(ctx.eval(stmt.key, lane, cache))
            value = ctx.eval(stmt.value, lane, cache)
            scratch = self.mem.scratch(stmt.mem)
            buf = scratch.buffer(self._version)
            if key < 0 or key >= buf.size:
                raise SimulationError(
                    f"{self.name}: hash key {key} outside "
                    f"[0, {buf.size})")
            cbind = dict(lane)
            cbind[stmt.acc_a] = buf.flat[key].item()
            cbind[stmt.acc_b] = value
            self._hash_store(stmt.mem, buf, key,
                             ctx.eval(stmt.combine, cbind, {}))
            write_addrs.setdefault(stmt.mem.name, []).append(key)

    def _do_emit(self, stmt, lanes, ctx, caches):
        fifo = self.fifos[stmt.fifo.name]
        values = []
        for lane, cache in zip(lanes, caches):
            if ctx.eval(stmt.cond, lane, cache):
                values.append(ctx.eval(stmt.value, lane, cache))
        if values:
            self._emit_values(fifo, values)

    def _apply_finals(self):
        ctx = self._ctx
        self._fx = []
        for si, accs in self._accs.items():
            stmt = self.leaf.stmts[si]
            for key, (snapshot, values) in accs.items():
                if stmt.carry:
                    current = []
                    for mem in stmt.mems:
                        if isinstance(mem, Reg):
                            current.append(self.mem.reg(mem).read())
                        else:
                            buf = self.mem.scratch(mem).read_buffer(
                                self._version)
                            current.append(buf[key].item())
                    cbind = dict(snapshot)
                    for k in range(stmt.width):
                        cbind[stmt.acc_a[k]] = current[k]
                        cbind[stmt.acc_b[k]] = values[k]
                    ccache = {}
                    values = [ctx.eval(c, cbind, ccache)
                              for c in stmt.combines]
                for mem, value in zip(stmt.mems, values):
                    if isinstance(mem, Reg):
                        self._write_reg(mem, value)
                    else:
                        self._write_sram(mem, list(key), value)
        ctx.reset_accesses()


def _record(log, kind, name, what, effects):
    log.setdefault(name, []).append((kind, name) + what + (repr(effects),))


class IssueLog:
    """Mixin over the reference interpreter: appends to ``self.log[leaf
    name]`` one record per vector issue — the read/write address maps
    it priced, their conflict cost, and every effect it applied, in
    order — and one per activation end, all taken from the record the
    issue left on the leaf (a statement's columnar ``("s", name, flats,
    values)`` entry reads as one store per lane).  The read map is
    compared as a set of sites (its key order is the one deliberate
    difference, see ARCHITECTURE.md)."""

    log: dict

    def _effects(self):
        effects = []
        for effect in self._fx:
            if effect[0] == "s":
                _, name, flats, values = effect
                effects += [("sram", name, flat, value)
                            for flat, value in zip(flats, values)]
            else:
                effects.append(effect)
        return effects

    def _execute(self, batch):
        extra = super()._execute(batch)
        if extra is not None:
            _record(self.log, "issue", self.name, (
                sorted((key, list(v)) for key, v in self._reads.items()),
                [(key, list(v)) for key, v in self._writes.items()],
                extra), self._effects())
        return extra

    def _apply_finals(self):
        super()._apply_finals()
        _record(self.log, "finish", self.name, (), self._effects())

    def _write_reg(self, mem, value):
        super()._write_reg(mem, value)
        self._fx.append(("reg", mem.name, value))

    def _hash_store(self, mem, buf, key, value):
        super()._hash_store(mem, buf, key, value)
        self._fx.append(("hash", mem.name, key, value,
                         buf.flat[key].item()))

    def _emit_values(self, fifo, values):
        super()._emit_values(fifo, values)
        self._fx.append(("emit", fifo.decl.name, list(values)))


def issue_record(leaf, k):
    """The :class:`IssueLog` record of issue ``k`` of ``leaf``'s current
    block, read from the block's columns."""
    block, schedule = leaf._block, leaf._schedule
    reads, writes = [], []
    for name, write, key, addrs, off in block.streams:
        group = addrs[off[k]:off[k + 1]].tolist()
        if not group:
            continue
        if write:
            writes.append((name, group))
        else:
            reads.append((key, group))
    extra = schedule.offsets[k + 1] - schedule.offsets[k] - 1
    effects = []
    for si, stmt in enumerate(leaf.leaf.stmts):
        if si not in block.stmts:
            continue
        off, cols = block.stmts[si]
        cols = [c[off[k]:off[k + 1]].tolist() for c in cols]
        if isinstance(stmt, EmitStmt):
            if cols[0]:
                effects.append(("emit", stmt.fifo.name, cols[0]))
        elif isinstance(stmt, HashReduceStmt):
            effects += [("hash", stmt.mem.name) + row
                        for row in zip(*cols)]
        elif isinstance(stmt.mem, Reg):
            effects += [("reg", stmt.mem.name, v) for v in cols[0]]
        else:
            effects += [("sram", stmt.mem.name, flat, value)
                        for flat, value, _cell in zip(*cols)]
    return (sorted(reads), writes, extra), effects


class BlockLog:
    """Mixin over a block-following leaf: the :class:`IssueLog` record
    of every issue it applies, and of every activation end."""

    log: dict

    def _apply(self, lo, hi):
        for k in range(lo, hi):
            what, effects = issue_record(self, k)
            _record(self.log, "issue", self.name, what, effects)
        super()._apply(lo, hi)

    def _apply_finals(self):
        super()._apply_finals()
        _record(self.log, "finish", self.name, (), [
            ("reg", name, value) if flat is None
            else ("sram", name, flat, value)
            for name, flat, value in self._finals])


class LoggedBlockSim(BlockLog, InnerComputeSim):
    pass


class LoggedReferenceSim(IssueLog, ReferenceInnerComputeSim):
    pass


def assert_same_memory(mem, ref) -> None:
    """Every live scratchpad version, access counter and register of two
    ``MemoryState``s must agree exactly."""
    for name, pad in mem.scratchpads.items():
        other = ref.scratchpads[name]
        assert sorted(pad.versions) == sorted(other.versions), name
        for version, buf in pad.versions.items():
            np.testing.assert_array_equal(buf, other.versions[version])
        assert (pad.reads, pad.writes, pad.conflict_cycles) == \
            (other.reads, other.writes, other.conflict_cycles), name
    for name, reg in mem.registers.items():
        assert repr(reg.value) == repr(ref.registers[name].value), name


class LoggingMachine(Machine):
    """A Machine whose inner computes log every vector issue, per leaf;
    ``reference=True`` makes them interpret their bodies."""

    def __init__(self, dhdl, config, reference: bool = False, **kwargs):
        self.issue_log: dict = {}
        self._leaf_cls = LoggedReferenceSim if reference \
            else LoggedBlockSim
        super().__init__(dhdl, config, **kwargs)

    def _build_leaf(self, ctrl):
        if isinstance(ctrl, InnerCompute):
            sim = self._leaf_cls(ctrl, self.config, self.mem, self.stats,
                                 self.fifos)
            sim.log = self.issue_log
            return sim
        return super()._build_leaf(ctrl)
