"""Stable serialization of a DHDL program (dict / JSON round-trip).

The serialized form is the durable half of a compiled artifact: the full
controller tree, every memory declaration, the DRAM collections *with
their input data*, and every symbolic expression.  Deserializing yields
a :class:`~repro.dhdl.ir.DhdlProgram` the simulator runs exactly like
the compiler-produced original.

Two properties matter beyond mere round-tripping:

* **Sharing is preserved.**  Expressions form a DAG with identity
  semantics (``Expr.__eq__`` is ``is``); the stage scheduler counts
  shared subtrees once, and the simulator binds :class:`~repro.patterns.
  expr.Idx` / :class:`~repro.patterns.expr.Var` leaves by object
  identity.  Every distinct node is therefore serialized once into a
  numbered table and referenced by index, so the decoded program has the
  same object graph — not just the same syntax.
* **Output is deterministic.**  Encoding traverses only ordered
  containers (declaration lists, child lists, statement lists), never
  sets, so two processes — regardless of hash randomization — produce
  identical dicts for identical programs.

An array's input data is stored as ``{"shape": [...], "b64": ...}``:
the base64 of its little-endian dtype bytes in C order, so every bit
survives (NaN payloads, ``-0.0``, subnormals) and decoding is one
``np.frombuffer`` behind a length, dtype and BOOL-byte check.
"""

from __future__ import annotations

import base64
import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.dhdl.control import Scheme
from repro.dhdl.ir import (Counter, CounterChain, DhdlProgram, EmitStmt,
                           Gather, HashReduceStmt, InnerCompute,
                           OuterController, ReduceStmt, Scatter,
                           StreamStore, TileLoad, TileStore, WriteStmt)
from repro.dhdl.memory import (BankingMode, DramRef, FifoDecl, Reg, Sram)
from repro.errors import IRError, PatternError
from repro.patterns import expr as E
from repro.patterns.collections import Array, Dyn, _np_dtype


def _plain(value) -> Any:
    """Coerce a scalar (possibly a numpy scalar) to a JSON-safe number."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise IRError(f"cannot serialize scalar {value!r} "
                  f"({type(value).__name__})")


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


class _Encoder:
    """One serialization pass over a program (shared expression table)."""

    def __init__(self, program: DhdlProgram):
        self.program = program
        self.nodes: List[dict] = []
        self._ids: Dict[int, int] = {}
        self._keep: List[E.Expr] = []      # pin ids for the memo's lifetime
        self._dram_names = {ref.name for ref in program.drams}
        self.aux_arrays: List[Array] = []  # arrays loaded but not in drams

    # -- memories ----------------------------------------------------------------
    def mem_ref(self, mem) -> List:
        """A ``[kind, name]`` reference to a declared memory."""
        if isinstance(mem, (Array, DramRef)):
            name = mem.name
            if name not in self._dram_names and isinstance(mem, Array):
                if all(a.name != name for a in self.aux_arrays):
                    self.aux_arrays.append(mem)
            return ["dram", name]
        if isinstance(mem, Sram):
            return ["sram", mem.name]
        if isinstance(mem, Reg):
            return ["reg", mem.name]
        if isinstance(mem, FifoDecl):
            return ["fifo", mem.name]
        raise IRError(f"cannot reference memory {mem!r}")

    # -- expressions --------------------------------------------------------------
    def expr(self, node: Optional[E.Expr]) -> Optional[int]:
        """Encode one expression DAG; returns its node id (or None)."""
        if node is None:
            return None
        key = id(node)
        if key in self._ids:
            return self._ids[key]
        if isinstance(node, E.Const):
            encoded = {"k": "const", "v": _plain(node.value),
                       "dt": node.dtype}
        elif isinstance(node, E.Idx):
            encoded = {"k": "idx", "name": node.name,
                       "extent": node.extent}
        elif isinstance(node, E.Var):
            encoded = {"k": "var", "name": node.name, "dt": node.dtype}
        elif isinstance(node, E.Load):
            encoded = {"k": "load", "mem": self.mem_ref(node.array),
                       "ix": [self.expr(i) for i in node.indices]}
        elif isinstance(node, E.BinOp):
            encoded = {"k": "bin", "op": node.op,
                       "a": self.expr(node.lhs), "b": self.expr(node.rhs)}
        elif isinstance(node, E.UnOp):
            encoded = {"k": "un", "op": node.op,
                       "a": self.expr(node.operand)}
        elif isinstance(node, E.Select):
            encoded = {"k": "sel", "c": self.expr(node.cond),
                       "t": self.expr(node.if_true),
                       "f": self.expr(node.if_false)}
        else:
            raise IRError(f"cannot serialize expression {node!r}")
        self.nodes.append(encoded)
        self._keep.append(node)
        self._ids[key] = len(self.nodes) - 1
        return self._ids[key]

    def exprs(self, nodes) -> List[int]:
        """Encode a sequence of expressions."""
        return [self.expr(n) for n in nodes]

    # -- counters -----------------------------------------------------------------
    def chain(self, chain: Optional[CounterChain]) -> Optional[dict]:
        if chain is None:
            return None
        return {
            "counters": [{"lo": self.expr(c.lo), "hi": self.expr(c.hi),
                          "step": c.step, "par": c.par}
                         for c in chain.counters],
            "indices": self.exprs(chain.indices),
        }

    # -- statements ---------------------------------------------------------------
    def stmt(self, stmt) -> dict:
        if isinstance(stmt, WriteStmt):
            return {"k": "write", "mem": self.mem_ref(stmt.mem),
                    "addr": self.exprs(stmt.addr),
                    "value": self.expr(stmt.value)}
        if isinstance(stmt, ReduceStmt):
            return {"k": "reduce",
                    "mems": [self.mem_ref(m) for m in stmt.mems],
                    "values": self.exprs(stmt.values),
                    "combines": self.exprs(stmt.combines),
                    "acc_a": self.exprs(stmt.acc_a),
                    "acc_b": self.exprs(stmt.acc_b),
                    "inits": [_plain(v) for v in stmt.inits],
                    "addr": self.exprs(stmt.addr),
                    "carry": stmt.carry}
        if isinstance(stmt, EmitStmt):
            return {"k": "emit", "fifo": stmt.fifo.name,
                    "cond": self.expr(stmt.cond),
                    "value": self.expr(stmt.value)}
        if isinstance(stmt, HashReduceStmt):
            return {"k": "hash", "mem": stmt.mem.name,
                    "key": self.expr(stmt.key),
                    "value": self.expr(stmt.value),
                    "combine": self.expr(stmt.combine),
                    "acc_a": self.expr(stmt.acc_a),
                    "acc_b": self.expr(stmt.acc_b),
                    "init": _plain(stmt.init),
                    "carry": stmt.carry}
        raise IRError(f"cannot serialize statement {stmt!r}")

    # -- controllers --------------------------------------------------------------
    def controller(self, ctrl) -> dict:
        if isinstance(ctrl, OuterController):
            return {"k": "outer", "name": ctrl.name,
                    "scheme": ctrl.scheme.name,
                    "chain": self.chain(ctrl.chain),
                    "stop_when_zero": (ctrl.stop_when_zero.name
                                       if ctrl.stop_when_zero is not None
                                       else None),
                    "max_trip": ctrl.max_trip,
                    "children": [self.controller(c)
                                 for c in ctrl.children]}
        if isinstance(ctrl, InnerCompute):
            return {"k": "inner", "name": ctrl.name,
                    "chain": self.chain(ctrl.chain),
                    "stmts": [self.stmt(s) for s in ctrl.stmts],
                    "address_class": ctrl.address_class}
        if isinstance(ctrl, TileLoad):
            return {"k": "tileload", "name": ctrl.name,
                    "dram": ctrl.dram.name, "sram": ctrl.sram.name,
                    "offsets": self.exprs(ctrl.offsets),
                    "tile_shape": list(ctrl.tile_shape), "par": ctrl.par}
        if isinstance(ctrl, TileStore):
            return {"k": "tilestore", "name": ctrl.name,
                    "dram": ctrl.dram.name, "sram": ctrl.sram.name,
                    "offsets": self.exprs(ctrl.offsets),
                    "tile_shape": list(ctrl.tile_shape), "par": ctrl.par,
                    "count": self.expr(ctrl.count)}
        if isinstance(ctrl, Gather):
            return {"k": "gather", "name": ctrl.name,
                    "dram": ctrl.dram.name,
                    "addr_sram": ctrl.addr_sram.name,
                    "dst_sram": ctrl.dst_sram.name,
                    "count": self.expr(ctrl.count), "par": ctrl.par}
        if isinstance(ctrl, Scatter):
            return {"k": "scatter", "name": ctrl.name,
                    "dram": ctrl.dram.name,
                    "addr_sram": ctrl.addr_sram.name,
                    "val_sram": ctrl.val_sram.name,
                    "count": self.expr(ctrl.count), "par": ctrl.par}
        if isinstance(ctrl, StreamStore):
            return {"k": "streamstore", "name": ctrl.name,
                    "dram": ctrl.dram.name, "fifo": ctrl.fifo.name,
                    "count_reg": ctrl.count_reg.name,
                    "base_offset": self.expr(ctrl.base_offset),
                    "accumulate": ctrl.accumulate}
        raise IRError(f"cannot serialize controller {ctrl!r}")


#: how the input data of an array of each dtype is packed: its
#: little-endian bytes, in C order
_WIRE = {E.FLOAT32: np.dtype("<f4"), E.INT32: np.dtype("<i4"),
         E.BOOL: np.dtype("|b1")}


def _array_data(spec: dict, dtype: str) -> np.ndarray:
    """The input data of one array from its ``{"shape", "b64"}`` record.
    Every malformed record — bad base64, a byte length that disagrees
    with the shape, a BOOL byte other than 0 or 1 — is an
    :class:`IRError`."""
    shape = spec["shape"]
    if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape):
        raise IRError(f"bad array data shape {shape!r}")
    try:
        raw = base64.b64decode(spec["b64"], validate=True)
    except (TypeError, ValueError) as err:     # binascii.Error too
        raise IRError(f"bad base64 array data: {err}") from None
    wire = _WIRE[dtype]
    want = math.prod(shape) * wire.itemsize
    if len(raw) != want:
        raise IRError(f"array data is {len(raw)} bytes; shape {shape} "
                      f"of {dtype} is {want}")
    if dtype == E.BOOL and np.frombuffer(raw, np.uint8).max(initial=0) > 1:
        raise IRError("BOOL array data holds a byte other than 0 or 1")
    return np.frombuffer(raw, wire).astype(_np_dtype(dtype)).reshape(shape)


def _array_to_dict(array: Array) -> dict:
    shape: List[Any] = []
    for dim in array.shape:
        shape.append({"dyn": dim.length_of.name}
                     if isinstance(dim, Dyn) else int(dim))
    data = None
    if array.data is not None:
        packed = np.ascontiguousarray(array.data, _WIRE[array.dtype])
        data = {"shape": list(array.data.shape),
                "b64": base64.b64encode(packed.tobytes()).decode("ascii")}
    return {"name": array.name, "shape": shape, "dtype": array.dtype,
            "max_elems": array.max_elems, "offchip": array.offchip,
            "data": data}


def program_to_dict(program: DhdlProgram) -> dict:
    """Serialize a program to a JSON-compatible dict."""
    enc = _Encoder(program)
    srams = [{"name": s.name, "shape": list(s.shape), "dtype": s.dtype,
              "banking": s.banking.value, "nbuf": s.nbuf,
              "bank_stride": s.bank_stride} for s in program.srams]
    regs = [{"name": r.name, "dtype": r.dtype, "init": _plain(r.init),
             "nbuf": r.nbuf} for r in program.regs]
    fifos = [{"name": f.name, "dtype": f.dtype, "depth": f.depth,
              "vector": f.vector} for f in program.fifos]
    root = enc.controller(program.root)
    arrays = [_array_to_dict(ref.array) for ref in program.drams]
    arrays += [_array_to_dict(a) for a in enc.aux_arrays]
    return {
        "name": program.name,
        "arrays": arrays,
        "drams": [ref.name for ref in program.drams],
        "srams": srams,
        "regs": regs,
        "fifos": fifos,
        "exprs": enc.nodes,
        "root": root,
        "reg_outputs": dict(program.reg_outputs),
    }


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class _Decoder:
    """Rebuilds the object graph from a program dict."""

    def __init__(self, data: dict):
        self.data = data
        self.arrays: Dict[str, Array] = {}
        self.drams: Dict[str, DramRef] = {}
        self.srams: Dict[str, Sram] = {}
        self.regs: Dict[str, Reg] = {}
        self.fifos: Dict[str, FifoDecl] = {}
        self.exprs: List[E.Expr] = []

    def _decode_arrays(self) -> None:
        specs = self.data["arrays"]
        deferred = []
        for spec in specs:
            if any(isinstance(d, dict) for d in spec["shape"]):
                deferred.append(spec)
            else:
                self.arrays[spec["name"]] = self._build_array(spec)
        for spec in deferred:
            self.arrays[spec["name"]] = self._build_array(spec)

    def _build_array(self, spec: dict) -> Array:
        if spec["dtype"] not in _WIRE:
            raise IRError(f"array {spec['name']!r} has unknown dtype "
                          f"{spec['dtype']!r}")
        shape: List[Any] = []
        for dim in spec["shape"]:
            if isinstance(dim, dict):
                shape.append(Dyn(self.arrays[dim["dyn"]]))
            else:
                shape.append(int(dim))
        array = Array(spec["name"], tuple(shape), spec["dtype"],
                      max_elems=spec["max_elems"],
                      offchip=spec["offchip"])
        if spec["data"] is not None:
            try:
                array.set_data(_array_data(spec["data"], spec["dtype"]))
            except PatternError as err:
                raise IRError(str(err)) from None
        return array

    def mem(self, ref: List):
        kind, name = ref
        try:
            if kind == "dram":
                return self.arrays[name]
            if kind == "sram":
                return self.srams[name]
            if kind == "reg":
                return self.regs[name]
            if kind == "fifo":
                return self.fifos[name]
        except KeyError:
            raise IRError(f"serialized program references undeclared "
                          f"{kind} {name!r}") from None
        raise IRError(f"unknown memory kind {kind!r}")

    # -- expressions --------------------------------------------------------------
    def _decode_exprs(self) -> None:
        try:
            for spec in self.data["exprs"]:
                kind = spec["k"]
                if kind == "const":
                    value = spec["v"]
                    if spec["dt"] == E.BOOL:
                        value = bool(value)
                    elif spec["dt"] == E.INT32:
                        value = int(value)
                    else:
                        value = float(value)
                    node: E.Expr = E.Const(value, spec["dt"])
                elif kind == "idx":
                    node = E.Idx(spec["name"], spec["extent"])
                elif kind == "var":
                    node = E.Var(spec["name"], spec["dt"])
                elif kind == "load":
                    node = E.Load(self.mem(spec["mem"]),
                                  [self.exprs[i] for i in spec["ix"]])
                elif kind == "bin":
                    node = E.BinOp(spec["op"], self.exprs[spec["a"]],
                                   self.exprs[spec["b"]])
                elif kind == "un":
                    node = E.UnOp(spec["op"], self.exprs[spec["a"]])
                elif kind == "sel":
                    node = E.Select(self.exprs[spec["c"]],
                                    self.exprs[spec["t"]],
                                    self.exprs[spec["f"]])
                else:
                    raise IRError(f"unknown expression kind {kind!r}")
                self.exprs.append(node)
        except PatternError as err:    # a node the tracer rejects
            raise IRError(f"serialized expression: {err}") from None

    def expr(self, idx: Optional[int]) -> Optional[E.Expr]:
        return None if idx is None else self.exprs[idx]

    # -- counters -----------------------------------------------------------------
    def chain(self, spec: Optional[dict]) -> Optional[CounterChain]:
        if spec is None:
            return None
        counters = [Counter(self.expr(c["lo"]), self.expr(c["hi"]),
                            step=c["step"], par=c["par"])
                    for c in spec["counters"]]
        indices = [self.expr(i) for i in spec["indices"]]
        return CounterChain(counters, indices)

    # -- statements ---------------------------------------------------------------
    def stmt(self, spec: dict):
        kind = spec["k"]
        if kind == "write":
            return WriteStmt(self.mem(spec["mem"]),
                             [self.expr(i) for i in spec["addr"]],
                             self.expr(spec["value"]))
        if kind == "reduce":
            return ReduceStmt(
                [self.mem(m) for m in spec["mems"]],
                [self.expr(i) for i in spec["values"]],
                [self.expr(i) for i in spec["combines"]],
                [self.expr(i) for i in spec["acc_a"]],
                [self.expr(i) for i in spec["acc_b"]],
                spec["inits"],
                addr=[self.expr(i) for i in spec["addr"]],
                carry=spec["carry"])
        if kind == "emit":
            return EmitStmt(self.fifos[spec["fifo"]],
                            self.expr(spec["cond"]),
                            self.expr(spec["value"]))
        if kind == "hash":
            return HashReduceStmt(
                self.srams[spec["mem"]], self.expr(spec["key"]),
                self.expr(spec["value"]), self.expr(spec["combine"]),
                self.expr(spec["acc_a"]), self.expr(spec["acc_b"]),
                spec["init"], carry=spec["carry"])
        raise IRError(f"unknown statement kind {kind!r}")

    # -- controllers --------------------------------------------------------------
    def controller(self, spec: dict):
        kind = spec["k"]
        if kind == "outer":
            ctrl = OuterController(
                spec["name"], Scheme[spec["scheme"]],
                chain=self.chain(spec["chain"]),
                stop_when_zero=(self.regs[spec["stop_when_zero"]]
                                if spec["stop_when_zero"] is not None
                                else None),
                max_trip=spec["max_trip"])
            for child in spec["children"]:
                ctrl.add(self.controller(child))
            return ctrl
        if kind == "inner":
            return InnerCompute(spec["name"], self.chain(spec["chain"]),
                                [self.stmt(s) for s in spec["stmts"]],
                                address_class=spec["address_class"])
        if kind == "tileload":
            return TileLoad(spec["name"], self.drams[spec["dram"]],
                            self.srams[spec["sram"]],
                            [self.expr(i) for i in spec["offsets"]],
                            spec["tile_shape"], par=spec["par"])
        if kind == "tilestore":
            return TileStore(spec["name"], self.drams[spec["dram"]],
                             self.srams[spec["sram"]],
                             [self.expr(i) for i in spec["offsets"]],
                             spec["tile_shape"], par=spec["par"],
                             count=self.expr(spec["count"]))
        if kind == "gather":
            return Gather(spec["name"], self.drams[spec["dram"]],
                          self.srams[spec["addr_sram"]],
                          self.srams[spec["dst_sram"]],
                          count=self.expr(spec["count"]),
                          par=spec["par"])
        if kind == "scatter":
            return Scatter(spec["name"], self.drams[spec["dram"]],
                           self.srams[spec["addr_sram"]],
                           self.srams[spec["val_sram"]],
                           count=self.expr(spec["count"]),
                           par=spec["par"])
        if kind == "streamstore":
            return StreamStore(spec["name"], self.drams[spec["dram"]],
                               self.fifos[spec["fifo"]],
                               self.regs[spec["count_reg"]],
                               base_offset=self.expr(spec["base_offset"]),
                               accumulate=spec["accumulate"])
        raise IRError(f"unknown controller kind {kind!r}")

    def decode(self) -> DhdlProgram:
        data = self.data
        program = DhdlProgram(data["name"])
        self._decode_arrays()
        for name in data["drams"]:
            ref = DramRef(self.arrays[name])
            program.drams.append(ref)
            self.drams[name] = ref
        for spec in data["srams"]:
            sram = Sram(spec["name"], spec["shape"], spec["dtype"],
                        BankingMode(spec["banking"]), spec["nbuf"],
                        bank_stride=spec["bank_stride"])
            program.srams.append(sram)
            self.srams[spec["name"]] = sram
        for spec in data["regs"]:
            reg = Reg(spec["name"], spec["dtype"], spec["init"],
                      nbuf=spec["nbuf"])
            program.regs.append(reg)
            self.regs[spec["name"]] = reg
        for spec in data["fifos"]:
            fifo = FifoDecl(spec["name"], spec["dtype"], spec["depth"],
                            spec["vector"])
            program.fifos.append(fifo)
            self.fifos[spec["name"]] = fifo
        self._decode_exprs()
        program.root = self.controller(data["root"])
        program.reg_outputs = dict(data["reg_outputs"])
        names = {program.root.name}
        names.update(self.srams)
        names.update(self.regs)
        names.update(self.fifos)
        names.update(ctrl.name for ctrl in program.root.walk())
        program._names = names
        return program


def program_from_dict(data: dict) -> DhdlProgram:
    """Rebuild a :class:`DhdlProgram` from :func:`program_to_dict` output."""
    return _Decoder(data).decode()
