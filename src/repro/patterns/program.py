"""Programs: named DAGs of pattern steps with sequential loops.

A :class:`Program` is the unit of compilation and execution.  It owns the
symbolic arrays (DRAM collections) and a body of :class:`Step` /
:class:`Loop` nodes.  Steps within one body level execute in order (the
compiler may overlap them with coarse-grained pipelining when legal); a
:class:`Loop` is a sequential outer controller, as in the paper's LogReg,
SGD, Kmeans, CNN, PageRank and BFS benchmarks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import PatternError
from repro.patterns import expr as E
from repro.patterns.collections import Array
from repro.patterns.patterns import (FlatMap, Fold, HashReduce, Map, Pattern,
                                     ScatterMap)


class Step:
    """One pattern execution writing to one or more output arrays.

    ``par`` holds per-dimension parallelization factors for the pattern's
    own domain (innermost pattern dims for nested Map{Fold} are carried by
    ``inner_par``).  ``tile`` optionally overrides the compiler's tile-size
    choice per dimension.
    """

    def __init__(self, name: str, pattern: Pattern,
                 outputs: Sequence[Array],
                 length_output: Optional[Array] = None):
        self.name = name
        self.pattern = pattern
        self.outputs = tuple(outputs)
        self.length_output = length_output
        self.par: Tuple[int, ...] = tuple(1 for _ in pattern.dims)
        self.inner_par: int = 1
        self.outer_par: int = 1
        self.tile: Optional[Tuple[int, ...]] = None
        self._validate()

    def _validate(self):
        pattern = self.pattern
        if isinstance(pattern, ScatterMap):
            if len(self.outputs) != 1:
                raise PatternError("ScatterMap step needs exactly one target")
            if self.outputs[0].ndim != 1:
                raise PatternError("ScatterMap target must be 1-d")
            return
        if isinstance(pattern, FlatMap):
            if len(self.outputs) != 1 or self.length_output is None:
                raise PatternError(
                    "FlatMap step needs one output and a length output")
            if not self.outputs[0].is_dynamic:
                raise PatternError("FlatMap output must be dynamic")
            return
        if isinstance(pattern, HashReduce):
            if len(self.outputs) != pattern.width:
                raise PatternError("HashReduce outputs must match width")
            for out in self.outputs:
                if out.shape != (pattern.bins,):
                    raise PatternError(
                        f"HashReduce output {out.name!r} must have shape "
                        f"({pattern.bins},)")
            return
        if isinstance(pattern, Fold):
            if len(self.outputs) != pattern.width:
                raise PatternError("Fold outputs must match width")
            for out in self.outputs:
                if out.ndim != 0:
                    raise PatternError("Fold outputs must be 0-d cells")
            return
        if isinstance(pattern, Map):
            if len(self.outputs) != pattern.out_width:
                raise PatternError("Map outputs must match body width")
            for out in self.outputs:
                single = out.ndim == 0 and pattern.trip_hint() == 1
                if out.ndim != pattern.ndim and not single:
                    raise PatternError(
                        f"Map output {out.name!r} rank {out.ndim} != "
                        f"domain rank {pattern.ndim}")
            return
        raise PatternError(f"unsupported pattern type {type(pattern)}")

    def set_par(self, *factors: int, inner: int = 1,
                outer: int = 1) -> "Step":
        """Set parallelization factors.

        ``factors`` vectorise the pattern's own dims (the innermost one
        becomes the SIMD width); ``inner`` vectorises a nested Fold;
        ``outer`` unrolls the tile loop, duplicating the step's inner
        controllers to process ``outer`` tiles concurrently (the paper's
        outer-loop parallelization).
        """
        if factors:
            if len(factors) != len(self.pattern.dims):
                raise PatternError(
                    f"{len(factors)} par factors for "
                    f"{len(self.pattern.dims)}-d domain")
            self.par = tuple(factors)
        if inner < 1 or outer < 1:
            raise PatternError("parallelization factors must be >= 1")
        self.inner_par = inner
        self.outer_par = outer
        return self

    def __repr__(self):
        return f"Step({self.name!r}, {self.pattern!r})"


class Loop:
    """A sequential outer loop over its body.

    ``trip`` is the maximum trip count; if ``stop_when_zero`` names a 0-d
    int32 array, the loop exits early once that cell reads zero at the end
    of an iteration (BFS frontier termination).
    """

    def __init__(self, name: str, trip: int,
                 stop_when_zero: Optional[Array] = None,
                 index_cell: Optional[Array] = None):
        if trip <= 0:
            raise PatternError("loop trip count must be positive")
        self.name = name
        self.trip = trip
        self.stop_when_zero = stop_when_zero
        #: optional 0-d int32 cell holding the current iteration number
        self.index_cell = index_cell
        if index_cell is not None and (index_cell.shape != ()
                                       or index_cell.dtype != E.INT32):
            raise PatternError("loop index cell must be a 0-d int32 array")
        self.body: List[Union[Step, Loop]] = []

    def __repr__(self):
        return f"Loop({self.name!r}, trip={self.trip})"


class Program:
    """A named program: arrays + a body of steps and sequential loops."""

    def __init__(self, name: str):
        self.name = name
        self.arrays = {}
        self.inputs: List[Array] = []
        self.outputs: List[Array] = []
        self.body: List[Union[Step, Loop]] = []
        self._scope_stack: List[List] = [self.body]
        self._step_names = set()

    # -- array declaration ---------------------------------------------------
    def _register(self, array: Array) -> Array:
        if array.name in self.arrays:
            raise PatternError(f"duplicate array name {array.name!r}")
        self.arrays[array.name] = array
        return array

    def input(self, name: str, shape=(), dtype: str = E.FLOAT32,
              data=None, offchip: bool = False) -> Array:
        """Declare a DRAM input collection."""
        array = self._register(Array(name, shape, dtype, data=data,
                                     offchip=offchip))
        self.inputs.append(array)
        return array

    def output(self, name: str, shape=(), dtype: str = E.FLOAT32,
               max_elems: Optional[int] = None) -> Array:
        """Declare a DRAM output collection."""
        array = self._register(Array(name, shape, dtype,
                                     max_elems=max_elems))
        self.outputs.append(array)
        return array

    def temp(self, name: str, shape=(), dtype: str = E.FLOAT32,
             max_elems: Optional[int] = None, data=None,
             offchip: bool = False) -> Array:
        """Declare an intermediate DRAM collection (neither input nor
        output; still observable after execution)."""
        return self._register(Array(name, shape, dtype, data=data,
                                    max_elems=max_elems, offchip=offchip))

    # -- step construction -----------------------------------------------------
    def _add(self, step_or_loop):
        self._scope_stack[-1].append(step_or_loop)
        return step_or_loop

    def _fresh_name(self, name: str) -> str:
        if name in self._step_names:
            raise PatternError(f"duplicate step name {name!r}")
        self._step_names.add(name)
        return name

    def step(self, name: str, pattern: Pattern, outputs: Sequence[Array],
             length_output: Optional[Array] = None) -> Step:
        """Append a generic pattern step to the current scope."""
        return self._add(Step(self._fresh_name(name), pattern,
                              outputs, length_output))

    def map(self, name: str, out: Union[Array, Sequence[Array]], domain,
            f: Callable) -> Step:
        """Append a Map step."""
        outs = (out,) if isinstance(out, Array) else tuple(out)
        return self.step(name, Map(domain, f), outs)

    def update(self, name: str, cell: Array, value: Callable) -> Step:
        """Append a single-iteration Map writing one 0-d cell.

        ``value`` is a zero-argument callable returning the new value
        expression (it may read any program array).
        """
        return self.map(name, cell, 1, lambda _i: value())

    def fold(self, name: str, out: Union[Array, Sequence[Array]], domain,
             init, f: Callable, r: Callable) -> Step:
        """Append a Fold step (output(s) are 0-d cells)."""
        outs = (out,) if isinstance(out, Array) else tuple(out)
        return self.step(name, Fold(domain, init, f, r), outs)

    def flatmap(self, name: str, out: Array, length_out: Array, domain,
                g: Callable) -> Step:
        """Append a FlatMap step producing ``out`` and its length."""
        return self.step(name, FlatMap(domain, g), (out,), length_out)

    def filter(self, name: str, out: Array, length_out: Array, domain,
               cond: Callable, value: Callable) -> Step:
        """Append a filter (single-emission FlatMap) step."""
        return self.flatmap(name, out, length_out, domain,
                            lambda *idx: [(cond(*idx), value(*idx))])

    def hash_reduce(self, name: str, out: Union[Array, Sequence[Array]],
                    domain, bins: int, key: Callable, value: Callable,
                    r: Callable, init=0.0) -> Step:
        """Append a HashReduce step with ``bins`` accumulators."""
        outs = (out,) if isinstance(out, Array) else tuple(out)
        return self.step(
            name, HashReduce(domain, key, value, r, bins=bins, init=init),
            outs)

    def scatter(self, name: str, target: Array, domain, index: Callable,
                value: Callable) -> Step:
        """Append a ScatterMap step writing into ``target``."""
        return self.step(name, ScatterMap(domain, index, value), (target,))

    @contextmanager
    def loop(self, name: str, trip: int,
             stop_when_zero: Optional[Array] = None,
             index_cell: Optional[Array] = None):
        """Open a sequential outer loop scope.

        ``index_cell`` names a 0-d int32 array that reads the current
        iteration number inside the body (e.g. minibatch offsets).
        """
        loop = Loop(self._fresh_name(name), trip, stop_when_zero,
                    index_cell)
        self._add(loop)
        self._scope_stack.append(loop.body)
        try:
            yield loop
        finally:
            self._scope_stack.pop()

    # -- introspection -----------------------------------------------------------
    def walk_steps(self):
        """Yield every :class:`Step` in program order (loops flattened)."""
        def _walk(body):
            for node in body:
                if isinstance(node, Step):
                    yield node
                else:
                    yield from _walk(node.body)
        yield from _walk(self.body)

    def __repr__(self):
        return (f"Program({self.name!r}, arrays={len(self.arrays)}, "
                f"steps={sum(1 for _ in self.walk_steps())})")
