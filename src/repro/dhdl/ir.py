"""DHDL-style intermediate representation (Section 3.6 of the paper).

A :class:`DhdlProgram` is a tree of controllers:

* :class:`OuterController` — carries a :class:`~repro.dhdl.control.Scheme`
  (sequential / coarse-grained pipeline / streaming), an optional loop
  counter chain, and children;
* leaf controllers:

  - :class:`InnerCompute` — a counter chain plus a dataflow body of
    statements over on-chip memories (maps to PCUs);
  - :class:`TileLoad` / :class:`TileStore` — dense DRAM bursts into/out of
    an SRAM tile (map to address generators issuing burst commands);
  - :class:`Gather` / :class:`Scatter` — sparse DRAM transfers through the
    coalescing units.

Expressions inside bodies reuse :mod:`repro.patterns.expr`; their ``Load``
nodes reference DHDL memories (:class:`~repro.dhdl.memory.Sram`,
:class:`~repro.dhdl.memory.Reg`), never DRAM.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import IRError
from repro.dhdl.control import Scheme
from repro.dhdl.memory import DramRef, FifoDecl, Reg, Sram, is_onchip
from repro.patterns import expr as E

# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


class Counter:
    """One programmable counter: ``lo .. hi-1`` step ``step``, unrolled
    ``par`` ways per cycle.

    ``lo``/``hi`` are ints or symbolic expressions over enclosing indices
    and register reads (data-dependent ranges, dynamic lengths).
    """

    #: memo of the simulator's row table of its bounds
    _table = None

    def __init__(self, lo, hi, step: int = 1, par: int = 1):
        self.lo = lo if isinstance(lo, E.Expr) else E.wrap(int(lo))
        self.hi = hi if isinstance(hi, E.Expr) else E.wrap(int(hi))
        if step <= 0 or par <= 0:
            raise IRError("counter step and par must be positive")
        self.step = step
        self.par = par

    @property
    def static_extent(self) -> Optional[int]:
        """Trip count when lo/hi are constants, else None."""
        if isinstance(self.lo, E.Const) and isinstance(self.hi, E.Const):
            span = self.hi.value - self.lo.value
            return max(0, -(-span // self.step))
        return None

    def __repr__(self):
        return f"Counter(par={self.par})"


class CounterChain:
    """A chain of counters; the last one is the innermost (vectorised)."""

    def __init__(self, counters: Sequence[Counter],
                 indices: Sequence[E.Idx]):
        if len(counters) != len(indices):
            raise IRError("counter chain needs one index per counter")
        self.counters = tuple(counters)
        self.indices = tuple(indices)

    @property
    def depth(self) -> int:
        """Number of nested counters."""
        return len(self.counters)

    @property
    def inner_par(self) -> int:
        """Parallelization of the innermost counter (SIMD width used)."""
        return self.counters[-1].par if self.counters else 1

    def trip_hint(self, default_dynamic: int = 8) -> int:
        """Static iteration-count estimate (dynamic ranges use a default)."""
        total = 1
        for counter in self.counters:
            extent = counter.static_extent
            total *= extent if extent is not None else default_dynamic
        return total

    def __repr__(self):
        return f"CounterChain(depth={self.depth}, par={self.inner_par})"


# ---------------------------------------------------------------------------
# Inner-controller statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class of inner-controller dataflow statements."""

    #: memo of the simulator's row table of its combines
    _table = None

    def memories_read(self):
        """On-chip memories read by this statement's expressions."""
        mems = []
        for root in self.exprs():
            for load in E.collect_loads(root):
                if is_onchip(load.array) and load.array not in mems:
                    mems.append(load.array)
        return mems

    def exprs(self) -> Tuple[E.Expr, ...]:
        """All expression roots of the statement."""
        raise NotImplementedError

    @property
    def target(self):
        """The memory written by the statement."""
        raise NotImplementedError


class WriteStmt(Stmt):
    """Write ``value`` to ``mem[addr]`` each (vectorised) iteration."""

    def __init__(self, mem: Union[Sram, Reg], addr: Sequence[E.ExprLike],
                 value: E.ExprLike):
        self.mem = mem
        self.addr = tuple(E.wrap(a) for a in addr)
        self.value = E.wrap(value)
        if isinstance(mem, Sram) and len(self.addr) != len(mem.shape):
            raise IRError(
                f"write to {mem.name!r}: {len(self.addr)} addresses for "
                f"{len(mem.shape)}-d SRAM")
        if isinstance(mem, Reg) and self.addr:
            raise IRError("register writes take no address")

    def exprs(self):
        return self.addr + (self.value,)

    @property
    def target(self):
        return self.mem

    def __repr__(self):
        return f"WriteStmt({self.mem.name})"


def _check_combine(what: str, combines: Sequence[E.Expr],
                   accs: Sequence[E.Var]) -> None:
    """:func:`repro.patterns.expr.combine_mismatch`, as an IRError."""
    problem = E.combine_mismatch(what, combines, accs)
    if problem:
        raise IRError(problem)


class ReduceStmt(Stmt):
    """Accumulate value(s) into register(s)/SRAM cell(s) across the
    counter chain with an associative combine.

    Width-W folds carry W accumulators whose combine expressions may
    cross-reference each other (argmin carries (best, argbest)); all W
    share one address.  ``combines[k]`` is an expression over the 2W
    :class:`~repro.patterns.expr.Var` leaves in ``acc_a``/``acc_b``.  The
    cross-lane part uses the PCU reduction tree; the cross-iteration part
    uses accumulation registers.  With ``carry`` the finalised value is
    combined with the target's current contents (cross-tile accumulation)
    instead of overwriting them.
    """

    def __init__(self, mems: Sequence[Union[Reg, Sram]],
                 values: Sequence[E.ExprLike],
                 combines: Sequence[E.Expr],
                 acc_a: Sequence[E.Var], acc_b: Sequence[E.Var],
                 inits: Sequence,
                 addr: Sequence[E.ExprLike] = (), carry: bool = False):
        self.mems = tuple(mems)
        self.values = tuple(E.wrap(v) for v in values)
        self.combines = tuple(combines)
        self.acc_a = tuple(acc_a)
        self.acc_b = tuple(acc_b)
        self.inits = tuple(inits)
        self.carry = carry
        self.addr = tuple(E.wrap(a) for a in addr)
        width = len(self.mems)
        if not (len(self.values) == len(self.combines) == len(self.acc_a)
                == len(self.acc_b) == len(self.inits) == width):
            raise IRError("ReduceStmt component lists must share a width")
        _check_combine("ReduceStmt", self.combines, self.acc_a)
        for mem in self.mems:
            if isinstance(mem, Sram) and len(self.addr) != len(mem.shape):
                raise IRError("SRAM reduce target needs a full address")

    @property
    def width(self) -> int:
        """Number of accumulators."""
        return len(self.mems)

    def exprs(self):
        return self.addr + self.values + self.combines

    @property
    def target(self):
        return self.mems[0]

    @property
    def targets(self):
        """All written memories."""
        return self.mems

    def __repr__(self):
        names = ",".join(m.name for m in self.mems)
        return f"ReduceStmt({names})"


class EmitStmt(Stmt):
    """FlatMap emission: when ``cond`` holds, append ``value`` to a FIFO
    (valid-word coalescing across lanes happens in hardware)."""

    def __init__(self, fifo: FifoDecl, cond: E.ExprLike, value: E.ExprLike):
        self.fifo = fifo
        self.cond = E.wrap(cond)
        self.value = E.wrap(value)

    def exprs(self):
        return (self.cond, self.value)

    @property
    def target(self):
        return self.fifo

    def __repr__(self):
        return f"EmitStmt({self.fifo.name})"


class HashReduceStmt(Stmt):
    """Dense HashReduce: combine ``value`` into ``mem[key]`` on the fly."""

    def __init__(self, mem: Sram, key: E.Expr, value: E.ExprLike,
                 combine: E.Expr, acc_a: E.Var, acc_b: E.Var, init,
                 carry: bool = False):
        self.mem = mem
        #: when True, bins carry their previous contents (cross-tile
        #: accumulation); the lowering emits an explicit init step
        self.carry = carry
        self.key = key
        self.value = E.wrap(value)
        self.combine = combine
        self.acc_a = acc_a
        self.acc_b = acc_b
        self.init = init
        _check_combine("HashReduceStmt", (combine,), (acc_a,))

    def exprs(self):
        return (self.key, self.value, self.combine)

    @property
    def target(self):
        return self.mem

    def __repr__(self):
        return f"HashReduceStmt({self.mem.name})"


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------


class ControllerBase:
    """Common controller state: name, scheme, parent link."""

    #: memo of :func:`repro.sim.datapath.index_ranges`
    _ranges = None

    def __init__(self, name: str, scheme: Scheme):
        self.name = name
        self.scheme = scheme
        self.parent: Optional["OuterController"] = None

    @property
    def is_leaf(self) -> bool:
        """True for controllers with a dataflow body or transfer."""
        return not isinstance(self, OuterController)

    def ancestors(self):
        """Yield enclosing controllers, innermost first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class OuterController(ControllerBase):
    """A controller that only coordinates children (maps to control logic
    in switches).  May carry its own loop counter chain whose indices the
    children reference."""

    def __init__(self, name: str, scheme: Scheme,
                 chain: Optional[CounterChain] = None,
                 stop_when_zero: Optional[Reg] = None,
                 max_trip: Optional[int] = None):
        if not scheme.is_outer:
            raise IRError("outer controller cannot use INNER scheme")
        super().__init__(name, scheme)
        self.chain = chain
        self.children: List[ControllerBase] = []
        self.stop_when_zero = stop_when_zero
        self.max_trip = max_trip

    def add(self, child: ControllerBase) -> ControllerBase:
        """Append a child controller."""
        child.parent = self
        self.children.append(child)
        return child

    def walk(self):
        """Yield this controller and every descendant, preorder."""
        yield self
        for child in self.children:
            if isinstance(child, OuterController):
                yield from child.walk()
            else:
                yield child

    def leaves(self):
        """Yield every leaf controller under this one."""
        for node in self.walk():
            if node.is_leaf:
                yield node


class InnerCompute(ControllerBase):
    """A leaf dataflow pipeline: counter chain + statements (maps to one
    or more PCUs after partitioning).

    ``address_class`` marks scalar bookkeeping bodies — gather address
    generation, accumulator/bin initialisation, loop-index mirroring —
    that the paper executes on PMU address datapaths and control logic
    rather than PCU SIMD pipelines; the mapper gives them no PCU."""

    #: memo of :meth:`repro.sim.block.Datapath.of`
    _datapath = None

    def __init__(self, name: str, chain: CounterChain,
                 stmts: Sequence[Stmt], address_class: bool = False):
        super().__init__(name, Scheme.INNER)
        self.chain = chain
        self.stmts = list(stmts)
        self.address_class = address_class
        if not self.stmts:
            raise IRError(f"inner controller {name!r} has an empty body")

    def memories_read(self):
        """Distinct on-chip memories read anywhere in the body."""
        mems = []
        for stmt in self.stmts:
            for mem in stmt.memories_read():
                if mem not in mems:
                    mems.append(mem)
        return mems


class TransferBase(ControllerBase):
    """Base for DRAM transfer leaves (map to AGs + coalescing units)."""

    def __init__(self, name: str, dram: DramRef):
        super().__init__(name, Scheme.INNER)
        self.dram = dram


def _addresses(name: str, addr_sram: Sram) -> Sram:
    """A gather's or scatter's addresses are element indices: an
    ``INT32`` scratchpad, or an :class:`IRError`."""
    if addr_sram.dtype != E.INT32:
        raise IRError(f"{name}: address scratchpad {addr_sram.name!r} is "
                      f"{addr_sram.dtype}, not {E.INT32}")
    return addr_sram


class TileLoad(TransferBase):
    """Dense burst load: DRAM[offset : offset+tile_shape] -> SRAM tile.

    ``offsets`` are symbolic expressions (over enclosing indices) giving
    the tile origin per DRAM dimension.
    """

    def __init__(self, name: str, dram: DramRef, sram: Sram,
                 offsets: Sequence[E.ExprLike],
                 tile_shape: Sequence[int], par: int = 1):
        super().__init__(name, dram)
        self.sram = sram
        self.offsets = tuple(E.wrap(o) for o in offsets)
        self.tile_shape = tuple(int(t) for t in tile_shape)
        self.par = par
        if len(self.offsets) != len(dram.shape):
            raise IRError(f"{name}: offsets rank != DRAM rank")
        if len(self.tile_shape) != len(dram.shape):
            raise IRError(f"{name}: tile rank != DRAM rank")

    def words(self) -> int:
        """Words moved per execution."""
        count = 1
        for dim in self.tile_shape:
            count *= dim
        return count


class TileStore(TransferBase):
    """Dense burst store: SRAM tile -> DRAM[offset : offset+tile_shape]."""

    def __init__(self, name: str, dram: DramRef, sram: Sram,
                 offsets: Sequence[E.ExprLike],
                 tile_shape: Sequence[int], par: int = 1,
                 count: Optional[E.Expr] = None):
        super().__init__(name, dram)
        self.sram = sram
        self.offsets = tuple(E.wrap(o) for o in offsets)
        self.tile_shape = tuple(int(t) for t in tile_shape)
        self.par = par
        self.count = count  # dynamic word count (FlatMap outputs)
        if len(self.offsets) != len(dram.shape):
            raise IRError(f"{name}: offsets rank != DRAM rank")

    def words(self) -> int:
        """Maximum words moved per execution."""
        total = 1
        for dim in self.tile_shape:
            total *= dim
        return total


class Gather(TransferBase):
    """Sparse load: for each address in ``addr_sram`` fetch one DRAM word
    into ``dst_sram`` (coalescing unit merges same-burst addresses).

    ``base`` is a static word offset of the DRAM array; addresses are
    element indices into the flattened DRAM collection (``addr_sram`` is
    ``INT32``).  ``count`` is an
    expression for the number of addresses (or None = full tile).
    """

    def __init__(self, name: str, dram: DramRef, addr_sram: Sram,
                 dst_sram: Sram, count: Optional[E.Expr] = None,
                 par: int = 1):
        super().__init__(name, dram)
        self.addr_sram = _addresses(name, addr_sram)
        self.dst_sram = dst_sram
        self.count = count
        self.par = par


class StreamStore(TransferBase):
    """Streaming store: drain a FIFO into consecutive DRAM words.

    Used for FlatMap outputs whose length is only known at runtime.  On
    end-of-stream the number of words written is stored into
    ``count_reg`` (and from there to the collection's length cell).
    ``base_offset`` is a symbolic word offset into the DRAM collection.
    """

    def __init__(self, name: str, dram: DramRef, fifo: FifoDecl,
                 count_reg: Reg, base_offset: E.ExprLike = 0,
                 accumulate: bool = False):
        super().__init__(name, dram)
        self.fifo = fifo
        self.count_reg = count_reg
        self.base_offset = E.wrap(base_offset)
        #: when True, count_reg accumulates across activations (the
        #: stream appends after previous tiles' output)
        self.accumulate = accumulate


class Scatter(TransferBase):
    """Sparse store: write ``val_sram[i]`` to DRAM at ``addr_sram[i]``
    (an ``INT32`` element index)."""

    def __init__(self, name: str, dram: DramRef, addr_sram: Sram,
                 val_sram: Sram, count: Optional[E.Expr] = None,
                 par: int = 1):
        super().__init__(name, dram)
        self.addr_sram = _addresses(name, addr_sram)
        self.val_sram = val_sram
        self.count = count
        self.par = par


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------


class DhdlProgram:
    """A complete DHDL design: memory declarations + a controller tree."""

    def __init__(self, name: str):
        self.name = name
        self.drams: List[DramRef] = []
        self.srams: List[Sram] = []
        self.regs: List[Reg] = []
        self.fifos: List[FifoDecl] = []
        self.root = OuterController("root", Scheme.SEQUENTIAL)
        self._names = {"root"}
        #: registers whose final value must be written back to a DRAM
        #: 0-d cell when execution finishes (Fold results, FlatMap counts)
        self.reg_outputs: Dict[str, str] = {}
        #: memo of :func:`repro.dhdl.analysis.scope_edges`
        self._scope_edges = None

    # -- declaration helpers ---------------------------------------------------
    def fresh(self, base: str) -> str:
        """A unique controller/memory name derived from ``base``."""
        if base not in self._names:
            self._names.add(base)
            return base
        k = 1
        while f"{base}_{k}" in self._names:
            k += 1
        name = f"{base}_{k}"
        self._names.add(name)
        return name

    def dram(self, array) -> DramRef:
        """Declare (or fetch) the DramRef wrapping a pattern array."""
        for ref in self.drams:
            if ref.array is array:
                return ref
        ref = DramRef(array)
        self.drams.append(ref)
        return ref

    def sram(self, name: str, shape, dtype,
             banking=None, nbuf: int = 1) -> Sram:
        """Declare an on-chip tile."""
        from repro.dhdl.memory import BankingMode
        mem = Sram(self.fresh(name), shape, dtype,
                   banking or BankingMode.STRIDED, nbuf)
        self.srams.append(mem)
        return mem

    def reg(self, name: str, dtype=E.FLOAT32, init=None) -> Reg:
        """Declare a scalar register."""
        cell = Reg(self.fresh(name), dtype, init)
        self.regs.append(cell)
        return cell

    def fifo(self, name: str, dtype=E.FLOAT32, depth: int = 16,
             vector: bool = True) -> FifoDecl:
        """Declare a FIFO."""
        decl = FifoDecl(self.fresh(name), dtype, depth, vector)
        self.fifos.append(decl)
        return decl

    # -- queries ---------------------------------------------------------------
    def controllers(self):
        """All controllers, preorder."""
        yield from self.root.walk()

    def leaves(self):
        """All leaf controllers."""
        yield from self.root.leaves()

    def __repr__(self):
        leaves = sum(1 for _ in self.leaves())
        return (f"DhdlProgram({self.name!r}, leaves={leaves}, "
                f"srams={len(self.srams)})")
