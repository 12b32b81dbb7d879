"""The seven benchmark workloads.

Every workload is closed loop and driven from this one process (the
``serve_mix`` server and its worker are the only children), never with
more than two connections, because the box has two cores.

A workload has three phases, all called by ``run.py``:

``setup(seed)``
    generate inputs from the seed, compute reference outputs, run one
    untimed warm-up operation.  Everything here counts towards
    ``setup_s``, never towards a pass.
``run_pass(rec, meter)``
    every operation of the workload once, each wrapped in spans on
    ``rec`` (the null recorder on untraced passes); ``meter`` is the
    machine-speed sampler of ``speed.py``, which only ``serve_mix``
    needs to touch.  Returns a
    :class:`PassResult`: pass wall time, per-operation outcomes, and the
    *exact* counters — numbers from the program's own statistics that
    must repeat bit for bit from pass to pass.
``attribution()``
    extra calls that exist only to attribute time to a layer
    (``Lowerer.lower`` on its own, direct ``DramModel`` drives, ...).
    Traced runs only, after the passes, so they never touch an
    end-to-end number.

Sizes are the largest that keep a pass near 3 s on the 2-core dev box, so
that at least three passes fit the driver's 10 s measuring window; see
``bench/README.md`` for the measured numbers behind each.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import layers
import programs
from paths import SRC_DIR, scratch_dir
from programs import Case, outputs_match
from spans import NULL as _NULL

from repro.apps.registry import get_app
from repro.bitstream.artifact import Bitstream
from repro.compiler.artifact import compile_to_bitstream, freeze_program
from repro.dhdl import Scheme
from repro.errors import ReproError
from repro.eval.bench import SYNTHETIC, batch_param_grid
from repro.fuzz.generator import build_program, gen_spec, spec_name
from repro.fuzz.oracle import ATOL, FUZZ_OPTIONS, RTOL
from repro.serve import (ServeClient, execute_job, parse_request,
                         sync_request, wait_healthy)
from repro.sim import Fabric, Machine
from repro.sim.batch import run_batch
from repro.tenancy import pack_apps

# ---------------------------------------------------------------------------
# Results of one pass
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """Outcome of one operation (times are ``perf_counter`` seconds)."""

    name: str
    started: float
    ended: float
    cycles: int
    ok: bool
    error: str = ""

    @property
    def span(self):
        return (self.started, self.ended)


@dataclass
class PassResult:
    ops: List[Op] = field(default_factory=list)
    #: (start, end) intervals that make up the pass's wall time, when
    #: that is not simply its operations back to back (``serve_mix``:
    #: the replay, whose requests overlap)
    segments: List[tuple] = field(default_factory=list)
    #: exact counters; equal in every pass of a run
    exact: Dict[str, float] = field(default_factory=lambda: defaultdict(int))
    #: values the workload measured itself (not via spans), by metric
    timed: Dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return sum(op.cycles for op in self.ops)

    @property
    def spans(self) -> List[tuple]:
        """The timed intervals: marks and harness work between
        operations are not part of a pass's wall time."""
        return self.segments or [op.span for op in self.ops]

    def count_sim(self, stats, sched) -> None:
        """Fold one solo run's ``SimStats`` (+ scheduler split)."""
        exact = self.exact
        if sched is not None:
            exact["sim.executed_cycles"] += sched.executed_cycles
            exact["sim.fast_forwarded_cycles"] += \
                sched.fast_forwarded_cycles
        for name in ("vector_issues", "ops_executed", "conflict_cycles",
                     "dram_stall_cycles", "fifo_stall_cycles"):
            exact[f"sim.{name}"] += getattr(stats, name)
        self.count_dram(stats.dram)

    def count_dram(self, dram: dict) -> None:
        for name in ("reads", "writes", "row_hits", "row_misses", "bytes"):
            self.exact[f"dram.{name}"] += dram.get(name, 0)

    def count_artifact(self, artifact: Bitstream, nbytes: int = 0) -> None:
        exact = self.exact
        exact["compiler.pcus_used"] += artifact.config.pcus_used
        exact["compiler.pmus_used"] += artifact.config.pmus_used
        exact["dhdl.leaves"] += len(artifact.config.leaf_timing)
        exact["dhdl.srams"] += len(artifact.dhdl.srams)
        exact["bitstream.bytes"] += nbytes


# ---------------------------------------------------------------------------
# The two solo pipelines
# ---------------------------------------------------------------------------


def run_pattern_case(rec, result: PassResult, op_id, case: Case) -> None:
    """trace -> compile -> encode -> decode -> build -> run -> check."""
    started = time.perf_counter()
    ok, cycles, error = False, 0, ""
    try:
        with rec.span("op", op=op_id):
            with rec.span("patterns.trace"):
                program = case.build()
            with rec.span("compiler.compile"):
                artifact = freeze_program(program, case.name, "bench",
                                          options=case.options)
            with rec.span("bitstream.encode"):
                blob = artifact.to_bytes()
            with rec.span("bitstream.decode"):
                clone = Bitstream.from_dict(json.loads(blob.decode("utf-8")))
            with rec.span("sim.build"):
                machine = Machine(clone.dhdl, clone.config)
            with rec.span("sim.run"):
                stats = machine.run()
            with rec.span("check"):
                ok = outputs_match(case, machine.result)
        cycles = stats.cycles
        result.count_artifact(clone, len(blob))
        result.count_sim(stats, machine.scheduler_stats)
    except ReproError as err:
        error = f"{type(err).__name__}: {err}"
    result.ops.append(Op(case.name, started, time.perf_counter(),
                         cycles, ok, error))


def run_dhdl_case(rec, result: PassResult, op_id, case: Case) -> None:
    """hand-built DHDL -> build -> run -> check (no compiler, no PCU)."""
    started = time.perf_counter()
    ok, cycles, error = False, 0, ""
    try:
        with rec.span("op", op=op_id):
            with rec.span("dhdl.build"):
                dhdl, config = case.build()
            with rec.span("sim.build"):
                machine = Machine(dhdl, config)
            with rec.span("sim.run"):
                stats = machine.run()
            with rec.span("check"):
                ok = outputs_match(case, machine.result)
        cycles = stats.cycles
        result.exact["dhdl.leaves"] += len(config.leaf_timing)
        result.exact["dhdl.srams"] += len(dhdl.srams)
        result.count_sim(stats, machine.scheduler_stats)
    except ReproError as err:
        error = f"{type(err).__name__}: {err}"
    result.ops.append(Op(case.name, started, time.perf_counter(),
                         cycles, ok, error))


class Workload:
    """Base: a list of pattern cases, each one operation of a pass."""

    name = "?"

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.cases: List[Case] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed operation, so no pass pays for lazy imports."""
        rng = np.random.default_rng(0)
        run_pattern_case(_NULL, PassResult(), "warm-up",
                         programs.make_gemm(rng, 4, 8, 4))

    def operations(self) -> list:
        """What one pass runs, one operation each."""
        return self.cases

    def run_op(self, rec, result: PassResult, k: int, item) -> None:
        run_pattern_case(rec, result, f"{item.name}#{k}", item)

    def run_pass(self, rec, meter) -> PassResult:
        result = PassResult()
        for k, item in enumerate(self.operations()):
            self.run_op(rec, result, k, item)
        return result

    def attribution(self) -> Dict[str, float]:
        return {}

    def corrupt_reference(self) -> None:
        """Break one expected output (``test_bench.py`` uses this to show
        the checks bite)."""
        case = self.cases[0]
        name = next(iter(case.expected))
        case.expected[name] = case.expected[name] + 1


# ---------------------------------------------------------------------------
# 1-3: solo programs
# ---------------------------------------------------------------------------


class DenseCompute(Workload):
    """gemm + gda: the per-lane datapath interpreter does >90 % of the
    work.  The compiled-datapath change must show here."""

    name = "dense_compute"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        gemm, gda = ((4, 8, 4), (16, 4)) if self.smoke \
            else ((32, 96, 32), (192, 12))
        self.cases = [programs.make_gemm(rng, *gemm),
                      programs.make_gda(rng, *gda)]
        self.warm_up()

    def attribution(self) -> Dict[str, float]:
        return layers.compile_layers(self.cases)


class DramStream(Workload):
    """TileLoad/TileStore only, no PCU datapath: scheduler fast-forward
    and the DDR3 model do all the work.  Bypass workload for datapath
    changes (prediction: no change)."""

    name = "dram_stream"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        tiles, words, scale = (8, 64, "tiny") if self.smoke \
            else (512, 512, "small")
        dhdl, _, _ = SYNTHETIC["dram_rowconf"](scale)
        source = next(d for d in dhdl.drams if d.name == "a")
        rowconf = Case("dram_rowconf",
                       lambda: SYNTHETIC["dram_rowconf"](scale)[:2],
                       {"o": np.array(source.array.data)})
        self.cases = [
            programs.make_memcpy(rng, Scheme.SEQUENTIAL, tiles, words),
            programs.make_memcpy(rng, Scheme.PIPELINE, tiles, words),
            rowconf]
        self.warm_up()

    def run_op(self, rec, result: PassResult, k: int, item) -> None:
        run_dhdl_case(rec, result, f"{item.name}#{k}", item)

    def attribution(self) -> Dict[str, float]:
        n = 500 if self.smoke else 20_000
        return {"dram.us_per_request.seq": layers.dram_drive("seq", n),
                "dram.us_per_request.rowconf":
                    layers.dram_drive("rowconf", n)}


class SparseGather(Workload):
    """pagerank + bfs + smdv on seeded CSR graphs: random gathers,
    coalescing and scatter writes, with data-dependent loop bounds.  A
    DRAM/scheduler gain on ``dram_stream`` that costs gathers shows
    here."""

    name = "sparse_gather"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        pagerank, bfs, smdv = ((2, 16, 3), (24, 3), (16, 4)) \
            if self.smoke else ((16, 256, 6), (1024, 4), (240, 8))
        self.cases = [programs.make_pagerank(rng, *pagerank),
                      programs.make_bfs(rng, *bfs),
                      programs.make_smdv(rng, *smdv)]
        self.warm_up()

    def attribution(self) -> Dict[str, float]:
        out = layers.compile_layers(self.cases)
        out["dram.us_per_request.random_rw"] = layers.dram_drive(
            "random_rw", 500 if self.smoke else 20_000)
        return out


# ---------------------------------------------------------------------------
# 4: many short programs
# ---------------------------------------------------------------------------


def registry_case(app_name: str, scale: str) -> Case:
    """A registry app at a registry scale, checked against what the
    reference executor computes for it."""
    app = get_app(app_name)
    started = time.perf_counter()
    expected = app.expected(app.build(scale))
    return Case(app_name, lambda: app.build(scale), expected,
                rtol=app.rtol, atol=app.atol,
                executor_s=time.perf_counter() - started)


def seeded_specs(seed: int, count: int) -> List[dict]:
    """``count`` fuzz specs whose *shapes* are the generator's fixed
    draws 0..count-1 and whose *data* is re-drawn from ``seed``.

    Drawing the shapes from the seed too would change a pass's work by
    about +-15 % from seed to seed (one spec's cost has a coefficient
    of variation of 0.95), which would swamp every regression bound;
    re-drawing only the data keeps simulated cycles within +-1 %.
    """
    specs = []
    for k in range(count):
        spec = copy.deepcopy(gen_spec(k))
        rng = np.random.default_rng([seed, 4, k])
        spec["seed"] = int(rng.integers(0, 2 ** 31))
        for step in spec["steps"]:
            step["data_seed"] = int(rng.integers(0, 2 ** 31))
        specs.append(spec)
    return specs


def spec_case(spec: dict) -> Case:
    program, outputs = build_program(spec)
    expected, executor_s = programs.executor_outputs(program)
    return Case(spec_name(spec), lambda: build_program(spec)[0],
                {name: expected[name] for name in outputs},
                options=FUZZ_OPTIONS, rtol=RTOL, atol=ATOL,
                executor_s=executor_s)


class FuzzMix(Workload):
    """100 short fuzz programs covering all nine step kinds.  The only
    workload where tracing, compile, (de)serialisation and ``Machine``
    construction are a visible share of a pass, so work moved *into*
    build/compile shows as a loss here."""

    name = "fuzz_mix"

    def setup(self, seed: int) -> None:
        self.specs = seeded_specs(seed, 6 if self.smoke else 100)
        self.cases = [spec_case(spec) for spec in self.specs]
        self.warm_up()

    def attribution(self) -> Dict[str, float]:
        out = layers.compile_layers(self.cases)
        out.update(layers.ring_tracer_ratio(self.cases[:20]))
        return out


# ---------------------------------------------------------------------------
# 5: the fabric loop
# ---------------------------------------------------------------------------


class MultiTenant(Workload):
    """pack + ``Fabric.run`` for 4 co-resident registry apps, once with
    uniform and once with 8:1:1:1 priorities.  The only workload on the
    fabric's own dense loop, the weighted FR-FCFS path and the packer."""

    name = "multi_tenant"

    MIXES = (("uniform", ("gemm", "tpchq6", "innerproduct",
                          "outerproduct"), (1, 1, 1, 1)),
             ("weighted", ("gemm", "tpchq6", "tpchq6", "tpchq6"),
              (8, 1, 1, 1)))

    def setup(self, seed: int) -> None:
        # registry inputs are fixed by App.rng; the seed is unused
        self.scale = "tiny" if self.smoke else "small"
        self.by_app = {
            app: registry_case(app, self.scale)
            for app in sorted({a for _, apps, _ in self.MIXES
                               for a in apps})}
        self.cases = list(self.by_app.values())
        self.warm_up()

    def operations(self) -> list:
        return list(self.MIXES)

    def run_op(self, rec, result: PassResult, k: int, item) -> None:
        mix, apps, priorities = item
        exact = result.exact
        started = time.perf_counter()
        ok, cycles, error = False, 0, ""
        try:
            with rec.span("op", op=mix):
                with rec.span("tenancy.pack"):
                    report = pack_apps(apps, self.scale)
                if not report.feasible:
                    raise ReproError(f"packing failed: {report.reason}")
                with rec.span("sim.build"):
                    fabric = Fabric()
                    handles = [
                        fabric.add_tenant(
                            t.artifact.dhdl, t.artifact.config,
                            name=t.footprint.app, priority=p)
                        for t, p in zip(report.tenants, priorities)]
                with rec.span("sim.fabric_run"):
                    fabric.run()
                with rec.span("check"):
                    ok = all(outputs_match(self.by_app[app],
                                           handle.machine.result)
                             for app, handle in zip(apps, handles))
            cycles = fabric.cycle
            exact["sim.fabric_cycles"] += fabric.cycle
            exact["tenancy.tenants"] += len(handles)
            for tenant, handle in zip(report.tenants, handles):
                result.count_artifact(tenant.artifact)
                exact["sim.fabric_finish_cycles_sum"] += \
                    handle.finish_cycle
                for name in ("vector_issues", "ops_executed",
                             "conflict_cycles", "dram_stall_cycles",
                             "fifo_stall_cycles"):
                    exact[f"sim.{name}"] += getattr(handle.stats, name)
            result.count_dram(fabric.dram.stats())
            for tenant in fabric.qos_summary()["tenants"].values():
                exact["dram.arb_won"] += tenant["arb_won"]
                exact["dram.arb_deferred"] += tenant["arb_deferred"]
        except ReproError as err:
            error = f"{type(err).__name__}: {err}"
        result.ops.append(Op(mix, started, time.perf_counter(), cycles,
                             ok, error))

    def attribution(self) -> Dict[str, float]:
        return {"dram.us_per_request.weighted": layers.dram_drive(
                    "weighted", 500 if self.smoke else 20_000),
                "eval.table7_perf_log_err":
                    layers.table7_log_error(self.scale)}


# ---------------------------------------------------------------------------
# 6: batched design-space sweeps
# ---------------------------------------------------------------------------


class DseSweep(Workload):
    """``run_batch`` over the Figure-7 timing grid: 78 instances of
    gemm, 26 of kmeans.  The record/replay traffic ``sim/batch.py``
    exists for; answers whether batching still earns its keep once the
    datapath is compiled."""

    name = "dse_sweep"

    def setup(self, seed: int) -> None:
        # registry inputs are fixed by App.rng; the seed is unused
        scale = "tiny" if self.smoke else "small"
        if self.smoke:
            grids = {"gemm": batch_param_grid(stages=(4, 8), banks=(16,),
                                              output_hops=(1,))}
        else:
            grids = {"gemm": batch_param_grid(),
                     "kmeans": batch_param_grid(banks=(4, 16),
                                                output_hops=(1,))}
        self.cases = [registry_case(app, scale) for app in grids]
        self.designs = [
            (case, compile_to_bitstream(case.name, scale), grids[case.name])
            for case in self.cases]
        self.warm_up()

    def operations(self) -> list:
        return self.designs

    def run_op(self, rec, result: PassResult, k: int, item) -> None:
        case, artifact, grid = item
        exact = result.exact
        started = time.perf_counter()
        with rec.span("op", op=case.name):
            with rec.span("sim.batch"):
                batch = run_batch(artifact, grid)
            with rec.span("check"):
                ok = all(inst.ok and outputs_match(case,
                                                   inst.machine.result)
                         for inst in batch)
        ended = time.perf_counter()
        exact["sim.batch_instances"] += len(batch)
        exact["sim.batch_cohorts"] += batch.cohorts
        exact["sim.batch_replayed"] += batch.replayed
        done = [inst for inst in batch if inst.stats is not None]
        for inst in done:
            result.count_sim(inst.stats, inst.machine.scheduler_stats)
        result.count_artifact(artifact)
        errors = [inst.error for inst in batch if inst.error]
        result.ops.append(Op(case.name, started, ended,
                             sum(inst.stats.cycles for inst in done),
                             ok, "; ".join(errors[:3])))

    def attribution(self) -> Dict[str, float]:
        return layers.batch_solo_base(self.designs)


# ---------------------------------------------------------------------------
# 7: through the server
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A fresh ``repro serve`` subprocess (1 worker) on its own temp
    cache and data directories, all inside the checkout."""

    def __enter__(self):
        self.root = scratch_dir("serve-")
        self.host, self.port = "127.0.0.1", _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["TMPDIR"] = self.root
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", self.host,
             "--port", str(self.port), "--jobs", "1",
             "--queue-depth", "64",
             "--cache-dir", os.path.join(self.root, "cache"),
             "--data-dir", os.path.join(self.root, "data")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            if not wait_healthy(self.host, self.port, timeout_s=60.0,
                                interval_s=0.02):
                raise RuntimeError("spawned server never became healthy")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.start_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc):
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.root, ignore_errors=True)
        return False

    def statsz(self) -> dict:
        return sync_request(self.host, self.port, "GET", "/statsz")[1]


def _percentile(samples: List[float], p: float) -> float:
    return float(np.percentile(samples, p)) if samples else 0.0


class ServeMix(Workload):
    """225 ``POST /simulate`` over 2 persistent connections to a fresh
    1-worker server: 75 unique fuzz specs + 150 seeded duplicates,
    shuffled.  The only path through HTTP, JSON, queue, coalescing,
    result LRU and the process pool."""

    name = "serve_mix"

    CONNECTIONS = 2
    MARK_SAMPLES = 16

    def setup(self, seed: int) -> None:
        unique = 4 if self.smoke else 75
        self.specs = seeded_specs(seed, unique)
        rng = np.random.default_rng([seed, 7])
        picks = list(range(unique)) \
            + [int(k) for k in rng.integers(unique, size=2 * unique)]
        self.order = [picks[int(k)] for k in rng.permutation(len(picks))]
        # the answer each request must carry: the same spec run in this
        # process, with no HTTP, queue, cache or pool in the way
        root = scratch_dir("serve-ref-")
        try:
            self.expected = []
            for spec in self.specs:
                payload = parse_request({"spec": spec}, "simulate") \
                    .payload(None, root)
                reply = execute_job(payload)
                if not reply["ok"]:
                    raise RuntimeError(f"reference run failed: {reply}")
                self.expected.append((reply["simulate"]["cycles"],
                                      reply["content_hash"]))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        # warm-up operation: one server start, one request
        with Server() as server:
            sync_request(server.host, server.port, "POST", "/simulate",
                         {"spec": self.specs[0]})

    def corrupt_reference(self) -> None:
        cycles, digest = self.expected[0]
        self.expected[0] = (cycles + 1, digest)

    async def _replay(self, server: Server, records: list) -> None:
        queue = deque(enumerate(self.order))

        async def connection(track: int) -> None:
            client = ServeClient(server.host, server.port)
            try:
                while queue:
                    slot, pick = queue.popleft()
                    started = time.perf_counter()
                    status, headers, body = await client.request(
                        "POST", "/simulate", {"spec": self.specs[pick]})
                    records.append((slot, pick, track, started,
                                    time.perf_counter(), status,
                                    int(headers.get("content-length", 0)),
                                    body))
            finally:
                await client.close()

        await asyncio.gather(*[connection(k + 1)
                               for k in range(self.CONNECTIONS)])

    def run_pass(self, rec, meter) -> PassResult:
        result = PassResult()
        records: list = []
        # this process mostly waits during the replay, and a core woken
        # from idle runs the kernel ~20 % slow for a while: sample just
        # before and after instead, while it is busy
        with Server() as server, meter.paused():
            before = server.statsz()
            meter.mark(self.MARK_SAMPLES)
            started = time.perf_counter()
            asyncio.run(self._replay(server, records))
            result.segments.append((started, time.perf_counter()))
            meter.mark(self.MARK_SAMPLES)
            after = server.statsz()
        result.timed["serve.start_s"] = server.start_s

        check_started = time.perf_counter()
        latencies = {"result-cache": [], "coalesced": [], "fresh": []}
        overheads = []
        for slot, pick, track, t0, t1, status, nbytes, body in sorted(
                records, key=lambda r: r[0]):
            want_cycles, want_hash = self.expected[pick]
            good = (status == 200 and isinstance(body, dict)
                    and body.get("simulate", {}).get("cycles")
                    == want_cycles
                    and body.get("content_hash") == want_hash)
            served = body.get("served", "fresh") \
                if isinstance(body, dict) else "error"
            ms = (t1 - t0) * 1e3
            fresh = served == "fresh"
            if good:
                latencies.setdefault(served, []).append(ms)
                if fresh:
                    overheads.append(ms - body["compile"]["compile_ms"]
                                     - body["simulate"]["sim_ms"])
            result.ops.append(Op(
                f"req{slot}", t0, t1, want_cycles if fresh and good else 0,
                good, "" if good else f"status {status}"))
            root = rec.add("op", t0, t1, None, f"req{slot}", track)
            rec.add("serve.request", t0, t1, root, f"req{slot}", track)
        rec.add("check", check_started, time.perf_counter(), None, "check")

        def delta(section: str, name: str) -> int:
            return after[section][name] - before[section][name]

        exact = result.exact
        # which duplicates coalesce onto an in-flight job and which hit
        # the result LRU depends on arrival timing; only their sum is
        # fixed by the request mix
        exact["serve.deduplicated"] = (
            delta("requests", "result_cache_hits")
            + delta("requests", "coalesced"))
        for section, name in (("work", "compiles"), ("work", "sims"),
                              ("requests", "rejected"),
                              ("requests", "timeouts"),
                              ("faults", "worker_crashes")):
            exact[f"serve.{name}"] = delta(section, name)
        timed = result.timed
        timed["serve.result_cache_hits"] = delta("requests",
                                                 "result_cache_hits")
        timed["serve.coalesced"] = delta("requests", "coalesced")
        started, ended = result.segments[0]
        timed["serve.req_per_s"] = len(records) / (ended - started)
        timed["serve.cached_p50_ms"] = _percentile(
            latencies["result-cache"], 50)
        timed["serve.fresh_p50_ms"] = _percentile(latencies["fresh"], 50)
        timed["serve.fresh_p95_ms"] = _percentile(latencies["fresh"], 95)
        timed["serve.overhead_p50_ms"] = _percentile(overheads, 50)
        timed["serve.response_bytes_p50"] = _percentile(
            [r[6] for r in records], 50)
        return result

    def attribution(self) -> Dict[str, float]:
        return layers.serve_in_process(
            [{"spec": self.specs[pick]} for pick in self.order])


WORKLOADS = {cls.name: cls for cls in (
    DenseCompute, DramStream, SparseGather, FuzzMix, MultiTenant,
    DseSweep, ServeMix)}
