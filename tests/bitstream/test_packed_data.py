"""Input data in an artifact: the base64 of little-endian dtype bytes.

A round trip must give back every bit of every array — NaN payloads,
signed zeros and float32 subnormals included — and a payload that does
not describe its array must fail as a typed :class:`IRError` from
``Bitstream.from_dict``, never as a numpy or base64 traceback.
"""

import base64
import json

import numpy as np
import pytest

from repro.bitstream import Bitstream
from repro.compiler.artifact import compile_to_bitstream
from repro.dhdl.ir import DhdlProgram
from repro.dhdl.memory import DramRef
from repro.dhdl.serialize import program_from_dict, program_to_dict
from repro.errors import ConfigError, IRError
from repro.patterns import expr as E
from repro.patterns.collections import Array, Dyn


def _bits(values, dtype):
    return np.asarray(values, dtype=dtype).view(f"u{dtype().itemsize}")


F32 = np.concatenate([
    _bits([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.25,
           np.finfo(np.float32).max, np.finfo(np.float32).tiny],
          np.float32),
    # a quiet NaN with a payload, a signalling one, negative NaN, and
    # the smallest and largest float32 subnormals
    np.array([0x7FC01234, 0x7F800001, 0xFFC00000, 0x00000001,
              0x007FFFFF, 0x80000001], dtype=np.uint32),
]).view(np.float32)
I32 = np.array([np.iinfo(np.int32).min, np.iinfo(np.int32).max, 0, -1, 1],
               dtype=np.int32)
B = np.array([True, False, False, True, True])


def _program(*arrays):
    prog = DhdlProgram("packed")
    prog.drams.extend(DramRef(a) for a in arrays)
    return prog


def _round_trip(prog):
    """Through canonical JSON text, as an artifact file goes."""
    text = json.dumps(program_to_dict(prog), sort_keys=True)
    return {ref.name: ref.array for ref in
            program_from_dict(json.loads(text)).drams}


@pytest.mark.parametrize("dtype, values", [
    (E.FLOAT32, F32), (E.INT32, I32), (E.BOOL, B),
], ids=["float32", "int32", "bool"])
def test_round_trip_is_bit_exact(dtype, values):
    flat = Array("flat", (len(values),), dtype, data=values)
    grid = Array("grid", (1, len(values)), dtype,
                 data=values.reshape(1, -1))
    cell = Array("cell", (), dtype, data=values[0])
    clone = _round_trip(_program(flat, grid, cell))
    for orig in (flat, grid, cell):
        got = clone[orig.name].data
        assert got.dtype == orig.data.dtype
        assert got.shape == orig.data.shape
        assert got.tobytes() == orig.data.tobytes()
        assert got.flags.writeable


def test_dyn_shaped_and_empty_arrays_round_trip():
    length = Array("n", (), E.INT32, data=np.int32(3))
    dyn = Array("v", (Dyn(length),), E.FLOAT32, max_elems=8,
                data=np.array([1.0, -0.0, np.nan], dtype=np.float32))
    empty = Array("e", (Dyn(length),), E.INT32, max_elems=8,
                  data=np.zeros(0, dtype=np.int32))
    clone = _round_trip(_program(dyn, empty, length))
    assert clone["v"].shape[0].length_of is clone["n"]
    assert clone["v"].data.tobytes() == dyn.data.tobytes()
    assert clone["e"].data.shape == (0,)
    assert clone["e"].data.dtype == np.int32
    assert int(clone["n"].data) == 3


def test_data_is_little_endian_base64():
    arr = Array("x", (2,), E.INT32, data=np.array([1, -2], np.int32))
    (spec,) = program_to_dict(_program(arr))["arrays"]
    assert spec["data"] == {
        "shape": [2],
        "b64": base64.b64encode(b"\x01\x00\x00\x00\xfe\xff\xff\xff")
        .decode("ascii")}


# -- hostile payloads -------------------------------------------------------

def _artifact_dict():
    data = compile_to_bitstream("innerproduct", "tiny").to_dict()
    spec = next(s for s in data["program"]["arrays"]
                if s["data"] is not None)
    return data, spec


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _wrong_length(spec):
    spec["data"]["b64"] = _b64(base64.b64decode(spec["data"]["b64"])[:-4])


def _shape_disagrees(spec):
    spec["data"]["shape"] = [spec["data"]["shape"][0] + 1]


def _bool_byte_two(spec):
    n = len(base64.b64decode(spec["data"]["b64"])) // 4
    spec["dtype"] = E.BOOL
    spec["data"]["b64"] = _b64(bytes([1, 0, 2] + [0] * (n - 3)))


@pytest.mark.parametrize("mutate", [
    lambda s: s["data"].update(b64="not*base64!"),
    lambda s: s["data"].update(b64="AAA"),               # bad padding
    lambda s: s["data"].update(b64="ü"),                  # not ASCII
    lambda s: s["data"].update(b64=None),
    _wrong_length,
    _shape_disagrees,
    lambda s: s["data"].update(shape=[-4]),
    lambda s: s["data"].update(shape="4"),
    _bool_byte_two,
    lambda s: s.update(dtype="float64"),
    lambda s: s.update(dtype="complex"),
], ids=["bad-chars", "bad-padding", "non-ascii", "not-a-string",
        "wrong-length", "shape-disagrees", "negative-shape", "shape-str",
        "bool-byte-2", "dtype-float64", "dtype-unknown"])
def test_hostile_payload_is_an_ir_error(mutate):
    data, spec = _artifact_dict()
    mutate(spec)
    with pytest.raises(IRError):
        Bitstream.from_dict(data)


def test_an_int_constant_past_int64_is_an_ir_error():
    data, _spec = _artifact_dict()
    const = next(e for e in data["program"]["exprs"]
                 if e["k"] == "const" and e["dt"] == E.INT32)
    const["v"] = 2 ** 79
    with pytest.raises(IRError, match="outside int64"):
        Bitstream.from_dict(json.loads(json.dumps(data)))


def test_a_reduce_combine_of_another_dtype_is_an_ir_error():
    """innerproduct's float32 dot product, its combine pointed at an
    int32 constant: what tracing rejects, decoding rejects too."""
    data, _spec = _artifact_dict()
    program = data["program"]
    stmt = next(s for leaf in _leaves(program["root"])
                for s in leaf["stmts"] if s["k"] == "reduce")
    stmt["combines"] = [next(k for k, e in enumerate(program["exprs"])
                             if e["k"] == "const" and e["dt"] == E.INT32)]
    with pytest.raises(IRError, match="ReduceStmt combine returns int32 "
                                      "for accumulator acc_a0, which is "
                                      "float32"):
        Bitstream.from_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize("kind", ["gather", "scatter"])
def test_a_sparse_address_scratchpad_of_floats_is_an_ir_error(kind):
    """bfs with its gather's or scatter's address scratchpad declared
    FLOAT32: a decoded artifact is rejected as a built program is,
    before anything runs."""
    data = compile_to_bitstream("bfs", "tiny").to_dict()
    program = data["program"]
    leaf = next(c for c in _controllers(program["root"])
                if c["k"] == kind)
    sram = next(s for s in program["srams"]
                if s["name"] == leaf["addr_sram"])
    sram["dtype"] = E.FLOAT32
    with pytest.raises(IRError, match=f"address scratchpad "
                                      f"'{sram['name']}' is float32"):
        Bitstream.from_dict(json.loads(json.dumps(data)))


def _controllers(ctrl):
    yield ctrl
    for child in ctrl.get("children", ()):
        yield from _controllers(child)


def _leaves(ctrl):
    if "stmts" in ctrl:
        yield ctrl
    for child in ctrl.get("children", ()):
        yield from _leaves(child)


def test_data_disagreeing_with_declared_shape_is_an_ir_error():
    data, spec = _artifact_dict()
    raw = base64.b64decode(spec["data"]["b64"])
    spec["data"] = {"shape": [len(raw) // 8, 2], "b64": _b64(raw)}
    with pytest.raises(IRError, match="declared"):
        Bitstream.from_dict(data)


def test_schema_1_artifact_is_rejected():
    data, spec = _artifact_dict()
    data["schema"] = 1
    raw = np.frombuffer(base64.b64decode(spec["data"].pop("b64")),
                        "<f4")
    spec["data"]["values"] = raw.tolist()     # the schema-1 layout
    with pytest.raises(ConfigError, match="schema 1"):
        Bitstream.from_dict(data)
