"""Simulator performance harness: ``repro bench``.

Times the cycle simulator itself (not the modelled hardware) over the
benchmark registry and writes a machine-readable report,
``BENCH_<rev>.json``:

* per benchmark — simulated cycles, best-of-N wall-clock seconds,
  simulated cycles per wall-clock second, and (event scheduler) how many
  cycles were executed vs fast-forwarded;
* totals — aggregate cycles, seconds and cycles/sec.

The report doubles as a regression gate (:mod:`repro.eval.gate`):
``benchmarks/baseline.json`` pins every *simulated cycle count* (a
change means the simulator's answer changed — a correctness, not
performance, regression) and puts a floor under the aggregate
cycles-per-second (per-benchmark wall times are too noisy on shared CI
runners to gate individually).

Wall-clock timing covers ``Machine.run`` only; program build and
compilation are reported separately and not gated.
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import Dict, List, Optional

from repro.eval import gate

#: report format version (bump on incompatible layout changes)
FORMAT = 1


def _build_dram_rowconf(scale: str):
    """Hand-built DHDL stressor: a DRAM-latency-bound transfer loop.

    A sequential outer loop moves one 16-word tile per iteration from
    DRAM to DRAM through a scratchpad.  A padding array places the
    output exactly one row-group (4096 bursts) after the input, so each
    iteration's load and store hit the *same bank in different rows* —
    every burst pays the full precharge+activate row-miss latency.  The
    fabric spends almost all cycles waiting on DRAM, which is exactly
    the shape the event scheduler's fast-forward is built for; this is
    the workload the CI gate watches for event-scheduler regressions.
    """
    import numpy as np
    from repro.dhdl import (Counter, CounterChain, DhdlProgram,
                            OuterController, Scheme, TileLoad, TileStore,
                            validate)
    from repro.patterns import Array
    from repro.patterns import expr as E
    from repro.sim import AgAssignment, FabricConfig, LeafTiming

    iters = {"tiny": 128}.get(scale, 512)
    tile = 16
    n = iters * tile
    data = np.arange(n, dtype=np.float32)
    dhdl = DhdlProgram("dram_rowconf")
    dram_in = dhdl.dram(Array("a", (n,), E.FLOAT32, data=data))
    # 'a' occupies n*4 bytes from its 4 KB-aligned base; pad out to one
    # 256 KB row-group so 'o' shares channel+bank but not row with 'a'
    pad_words = (262144 - 4 * n) // 4
    dhdl.dram(Array("pad", (pad_words,), E.FLOAT32))
    dram_out = dhdl.dram(Array("o", (n,), E.FLOAT32))
    sram = dhdl.sram("t", (tile,), E.FLOAT32, nbuf=2)
    t = E.Idx("t")
    loop = OuterController(
        "loop", Scheme.SEQUENTIAL,
        chain=CounterChain([Counter(0, iters, par=1)], [t]))
    dhdl.root.add(loop)
    loop.add(TileLoad("ld", dram_in, sram, (t * tile,), (tile,)))
    loop.add(TileStore("st", dram_out, sram, (t * tile,), (tile,)))
    validate(dhdl)
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment(ag_ids=(0,))
    config.pcus_used = 1
    config.pmus_used = 1
    config.ags_used = 1

    def check(machine):
        got = machine.result("o")
        if not np.array_equal(got, data):
            raise AssertionError("dram_rowconf: output mismatch")

    return dhdl, config, check


#: synthetic (hand-built DHDL) benchmarks timed alongside the registry
SYNTHETIC = {"dram_rowconf": _build_dram_rowconf}


def git_rev(default: str = "local") -> str:
    """Short git revision of the working tree, or ``default``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return default
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else default


def _time_benchmark(name, dhdl, config, compile_s, check,
                    scheduler: str, repeat: int,
                    compare_dense: bool) -> Dict:
    """Time one prepared (dhdl, config) pair under the scheduler(s)."""
    from repro.sim import Machine

    row: Dict = {"name": name, "compile_s": round(compile_s, 6)}
    for mode in ([scheduler, "dense"] if compare_dense
                 else [scheduler]):
        best_s = None
        for _ in range(max(1, repeat)):
            machine = Machine(dhdl, config, scheduler=mode)
            t0 = time.perf_counter()
            stats = machine.run()
            wall = time.perf_counter() - t0
            if best_s is None or wall < best_s:
                best_s = wall
                best = machine, stats
        machine, stats = best
        if check is not None:
            check(machine)
        entry = {
            "cycles": stats.cycles,
            "wall_s": round(best_s, 6),
            "cycles_per_sec": round(stats.cycles / best_s)
            if best_s > 0 else 0,
        }
        sched = machine.scheduler_stats
        if sched is not None:
            entry["executed_cycles"] = sched.executed_cycles
            entry["fast_forwarded_cycles"] = \
                sched.fast_forwarded_cycles
        if mode == scheduler:
            row.update(entry)
        else:
            row["dense"] = entry
    if compare_dense and scheduler != "dense":
        dense_s = row["dense"]["wall_s"]
        row["speedup_vs_dense"] = round(
            dense_s / row["wall_s"], 3) if row["wall_s"] > 0 else 0.0
    return row


def run_benchmarks(scale: str = "small", scheduler: str = "event",
                   repeat: int = 3,
                   apps: Optional[List[str]] = None,
                   compare_dense: bool = False) -> dict:
    """Run the registry under one scheduler and collect timings.

    The report totals split wall time into ``compile_s`` (artifact
    preparation) and ``simulate_s`` (the gated ``Machine.run`` time).
    """
    from repro.apps.registry import ALL_APPS
    from repro.compiler.artifact import compile_to_bitstream

    names = apps or [app.name for app in ALL_APPS] + list(SYNTHETIC)
    rows = []
    # registry apps first, then the hand-built stressors (stable sort)
    for name in sorted(names, key=SYNTHETIC.__contains__):
        if name in SYNTHETIC:
            dhdl, config, check = SYNTHETIC[name](scale)
            compile_s = 0.0
        else:
            t0 = time.perf_counter()
            artifact = compile_to_bitstream(name, scale)
            compile_s = time.perf_counter() - t0
            dhdl, config, check = artifact.dhdl, artifact.config, None
        rows.append(_time_benchmark(name, dhdl, config, compile_s, check,
                                    scheduler, repeat, compare_dense))
    total_cycles = sum(r["cycles"] for r in rows)
    total_s = sum(r["wall_s"] for r in rows)
    total_compile_s = sum(r["compile_s"] for r in rows)
    return {
        "format": FORMAT,
        "rev": git_rev(),
        "scale": scale,
        "scheduler": scheduler,
        "repeat": repeat,
        "benchmarks": rows,
        "totals": {
            "cycles": total_cycles,
            "wall_s": round(total_s, 6),
            "cycles_per_sec": round(total_cycles / total_s)
            if total_s > 0 else 0,
            "compile_s": round(total_compile_s, 6),
            "simulate_s": round(total_s, 6),
        },
    }


# ---------------------------------------------------------------------------
# Batched-simulation benchmark (`repro bench --batch`, the CI gates job)
# ---------------------------------------------------------------------------

#: batch report format version
BATCH_FORMAT = 1


def batch_param_grid(stages=range(4, 17), banks=(4, 8, 16),
                     output_hops=(1, 3)) -> List[dict]:
    """The Figure-7-shaped timing grid the batch gate sweeps.

    The stages axis is exactly Figure 7a's range; banks and output hops
    add the PMU/network axes, giving 13*3*2 = 78 instances of one
    compiled design — a realistic DSE sweep shape.
    """
    return [{"stages": s, "banks": b, "output_hops": h}
            for s in stages for b in banks for h in output_hops]


def run_batch_benchmark(app: str = "gemm", scale: str = "small",
                        scheduler: str = "event",
                        params: Optional[List[dict]] = None,
                        sample: int = 6) -> dict:
    """Time ``Machine.run_batch`` against a sequential estimate.

    The batch side runs the full grid and is timed exactly.  The
    sequential side would take minutes at gate-relevant sizes, so it is
    *estimated*: ``sample`` instances spread across the grid are run
    solo (through the same :func:`repro.sim.batch.instantiate` the
    batch uses) and their mean wall time is extrapolated to N.  Every
    sampled instance is also compared bit-for-bit — SimStats and the
    full DRAM image — against its batch twin, so the benchmark doubles
    as an end-to-end equivalence check.
    """
    import numpy as np

    from repro.compiler.artifact import compile_to_bitstream
    from repro.sim.batch import instantiate, run_batch

    t0 = time.perf_counter()
    artifact = compile_to_bitstream(app, scale)
    compile_s = time.perf_counter() - t0
    params = params if params is not None else batch_param_grid()
    n = len(params)
    sample = max(1, min(sample, n))
    picks = sorted(set(np.linspace(0, n - 1, sample).astype(int)
                       .tolist()))

    solo = {}
    seq_s = 0.0
    for i in picks:
        machine = instantiate(artifact, params[i], scheduler=scheduler)
        t0 = time.perf_counter()
        machine.run()
        seq_s += time.perf_counter() - t0
        solo[i] = machine
    per_run_s = seq_s / len(picks)
    est_sequential_s = per_run_s * n

    t0 = time.perf_counter()
    batch = run_batch(artifact, params, scheduler=scheduler)
    batch_s = time.perf_counter() - t0

    mismatches = []
    for i, machine in solo.items():
        twin = batch[i]
        if twin.error is not None:
            mismatches.append(f"instance {i}: batch errored: "
                              f"{twin.error}")
            continue
        if not machine.stats.same_as(twin.stats):
            mismatches.append(f"instance {i}: SimStats diverge")
        for name, buf in machine.image.buffers.items():
            if not np.array_equal(buf, twin.machine.image.buffers[name]):
                mismatches.append(f"instance {i}: DRAM image "
                                  f"{name!r} diverges")
    errors = [f"instance {r.index}: {r.error}"
              for r in batch if r.error is not None]
    speedup = est_sequential_s / batch_s if batch_s > 0 else 0.0
    # cycles the stepping core had to execute for the followers (the
    # dense reference executes every one): deterministic, so the gate
    # pins it — free-running replay leaves lost shows here as a count
    followers = [r for r in batch if r.role == "replay" and r.ok]
    follower_executed = sum(
        r.stats.cycles if r.machine.scheduler_stats is None
        else r.machine.scheduler_stats.executed_cycles
        for r in followers)
    return {
        "format": BATCH_FORMAT,
        "rev": git_rev(),
        "app": app,
        "scale": scale,
        "scheduler": scheduler,
        "instances": n,
        "cohorts": batch.cohorts,
        "replayed": batch.replayed,
        "follower_cycles": sum(r.stats.cycles for r in followers),
        "follower_executed_cycles": follower_executed,
        "sampled": len(picks),
        "compile_s": round(compile_s, 6),
        "per_run_s": round(per_run_s, 6),
        "est_sequential_s": round(est_sequential_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(speedup, 3),
        "verified": len(picks) - len(mismatches),
        "mismatches": mismatches,
        "errors": errors,
    }


def render_batch(report: dict) -> str:
    """Human-readable batch benchmark summary."""
    return "\n".join([
        f"batched simulation — {report['app']} ({report['scale']}), "
        f"{report['instances']} instances, scheduler="
        f"{report['scheduler']}, rev={report['rev']}",
        f"  cohorts {report['cohorts']}, replayed {report['replayed']}, "
        f"compile {report['compile_s'] * 1e3:.0f} ms",
        f"  sequential estimate: {report['per_run_s'] * 1e3:.0f} ms/run "
        f"x {report['instances']} = {report['est_sequential_s']:.2f} s "
        f"(measured on {report['sampled']} sampled instances)",
        f"  batch: {report['batch_s']:.2f} s  ->  speedup "
        f"{report['speedup']:.1f}x",
        f"  followers: {report['follower_executed_cycles']} of "
        f"{report['follower_cycles']} simulated cycles executed",
        f"  equivalence: {report['verified']}/{report['sampled']} "
        f"sampled instances bit-identical"
        + (f"; MISMATCHES: {report['mismatches']}"
           if report["mismatches"] else ""),
    ])


def cmd_bench_batch(args) -> int:
    """The ``repro bench --batch`` path (wired from :func:`cmd_bench`)."""
    baseline = gate.load(args.baseline)
    app = (args.apps[0] if args.apps else "gemm")
    scale = "tiny" if args.quick else args.scale
    report = run_batch_benchmark(app=app, scale=scale,
                                 scheduler=args.scheduler)
    print(render_batch(report))
    path = os.path.join(args.out, f"BATCH_{report['rev']}.json")
    return gate.finish(report, path, baseline,
                       {"mismatches": [], "errors": []})


def render(report: dict) -> str:
    """Human-readable table for the terminal."""
    lines = [f"simulator benchmark — scale={report['scale']} "
             f"scheduler={report['scheduler']} rev={report['rev']}",
             f"{'benchmark':14s} {'cycles':>9s} {'wall ms':>9s} "
             f"{'kcyc/s':>8s} {'exec':>9s} {'fastfwd':>9s}"
             + ("  speedup" if any('speedup_vs_dense' in r for r in
                                   report['benchmarks']) else "")]
    for row in report["benchmarks"]:
        line = (f"{row['name']:14s} {row['cycles']:9d} "
                f"{row['wall_s'] * 1e3:9.2f} "
                f"{row['cycles_per_sec'] / 1e3:8.1f} "
                f"{row.get('executed_cycles', row['cycles']):9d} "
                f"{row.get('fast_forwarded_cycles', 0):9d}")
        if "speedup_vs_dense" in row:
            line += f"  {row['speedup_vs_dense']:6.2f}x"
        lines.append(line)
    totals = report["totals"]
    lines.append(f"{'total':14s} {totals['cycles']:9d} "
                 f"{totals['wall_s'] * 1e3:9.2f} "
                 f"{totals['cycles_per_sec'] / 1e3:8.1f}")
    if "compile_s" in totals:
        lines.append(f"wall split: compile "
                     f"{totals['compile_s'] * 1e3:.2f} ms, simulate "
                     f"{totals['simulate_s'] * 1e3:.2f} ms")
    return "\n".join(lines)


def cmd_bench(args) -> int:
    """Entry point for ``repro bench`` (wired from the CLI)."""
    if getattr(args, "multi", False):
        from repro.eval.multi import cmd_bench_multi
        return cmd_bench_multi(args)
    if getattr(args, "batch", False):
        return cmd_bench_batch(args)
    baseline = gate.load(args.baseline)
    scale = "tiny" if args.quick else args.scale
    repeat = 1 if args.quick else args.repeat
    report = run_benchmarks(scale=scale, scheduler=args.scheduler,
                            repeat=repeat, apps=args.apps or None,
                            compare_dense=args.compare_dense)
    print(render(report))
    path = os.path.join(args.out, f"BENCH_{report['rev']}.json")
    return gate.finish(report, path, baseline)
