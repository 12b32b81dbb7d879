"""The answer gate: ``repro bench``.

One deterministic run in four sections, every value of it a simulated
answer (nothing is timed), written as one report, ``GATE_<rev>.json``,
and held by :mod:`repro.eval.gate` against one committed baseline,
``benchmarks/baseline.json``:

* ``solo`` — every registry app plus the DRAM-bound ``dram_rowconf`` at
  ``tiny`` under the event core: simulated cycles per row, and how many
  of them the core executed rather than fast-forwarded;
* ``batch`` — ``run_batch`` over the 78-instance Figure-7-style grid of
  gemm at ``small``; six sampled instances also run solo and are
  compared bit for bit (SimStats and the DRAM image);
* ``multi`` and ``qos`` — the co-resident fabric
  (:mod:`repro.eval.multi`).

A drift in a pinned value means the simulator's answer changed.  Host
speed is not gated here: ``tools/speed_gate.py`` holds ``bench/run.py``
reports to the newest committed ``benchmarks/BENCH_<rev>_pr<N>.json``.
"""

from __future__ import annotations

import os
import subprocess
from typing import List, Optional

from repro.eval import gate

#: report format version (bump on incompatible layout changes)
FORMAT = 2

#: what every report must hold, with or without a baseline
INVARIANTS = {"batch": {"mismatches": [], "errors": []},
              "multi": {"equivalence_failures": []}}


def _build_dram_rowconf(scale: str):
    """Hand-built DHDL stressor: a DRAM-latency-bound transfer loop.

    A sequential outer loop moves one 16-word tile per iteration from
    DRAM to DRAM through a scratchpad.  A padding array places the
    output exactly one row-group (4096 bursts) after the input, so each
    iteration's load and store hit the *same bank in different rows* —
    every burst pays the full precharge+activate row-miss latency.  The
    fabric spends almost all cycles waiting on DRAM, which is exactly
    the shape the event scheduler's fast-forward is built for; this is
    the workload whose ``executed_cycles`` pin watches the event
    scheduler.
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


def run_benchmarks() -> dict:
    """The ``solo`` section: each registry app, then each hand-built
    stressor, run once at ``tiny`` under the event core."""
    from repro.apps.registry import ALL_APPS
    from repro.compiler.artifact import compile_to_bitstream
    from repro.sim import Machine

    rows = []
    for name in [app.name for app in ALL_APPS] + list(SYNTHETIC):
        if name in SYNTHETIC:
            dhdl, config, check = SYNTHETIC[name]("tiny")
        else:
            artifact = compile_to_bitstream(name, "tiny")
            dhdl, config, check = artifact.dhdl, artifact.config, None
        machine = Machine(dhdl, config)
        stats = machine.run()
        if check is not None:
            check(machine)
        sched = machine.scheduler_stats
        rows.append({"name": name, "cycles": stats.cycles,
                     "executed_cycles": sched.executed_cycles,
                     "fast_forwarded_cycles": sched.fast_forwarded_cycles})
    return {"scale": "tiny", "scheduler": "event", "benchmarks": rows,
            "totals": {"cycles": sum(row["cycles"] for row in rows)}}


def render_solo(section: dict) -> str:
    """Human-readable ``solo`` section."""
    lines = [f"solo — {len(section['benchmarks'])} rows at "
             f"{section['scale']}, {section['scheduler']} core",
             f"  {'benchmark':14s} {'cycles':>9s} {'exec':>9s} "
             f"{'fastfwd':>9s}"]
    for row in section["benchmarks"]:
        lines.append(f"  {row['name']:14s} {row['cycles']:9d} "
                     f"{row['executed_cycles']:9d} "
                     f"{row['fast_forwarded_cycles']:9d}")
    lines.append(f"  {'total':14s} {section['totals']['cycles']:9d}")
    return "\n".join(lines)


def batch_param_grid(stages=range(4, 17), banks=(4, 8, 16),
                     output_hops=(1, 3)) -> List[dict]:
    """The Figure-7-shaped timing grid the ``batch`` section sweeps.

    The stages axis is exactly Figure 7a's range; banks and output hops
    add the PMU/network axes, giving 13*3*2 = 78 instances of one
    compiled design — a realistic DSE sweep shape.
    """
    return [{"stages": s, "banks": b, "output_hops": h}
            for s in stages for b in banks for h in output_hops]


def run_batch_benchmark(app: str = "gemm", scale: str = "small",
                        params: Optional[List[dict]] = None,
                        sample: int = 6) -> dict:
    """The ``batch`` section: ``run_batch`` over ``params`` (default
    :func:`batch_param_grid`).

    ``sample`` instances spread across the grid are also run solo,
    through the same :func:`repro.sim.batch.instantiate` the batch
    uses, and compared bit for bit — SimStats and the full DRAM image —
    against their batch twins.
    """
    import numpy as np

    from repro.compiler.artifact import compile_to_bitstream
    from repro.sim.batch import instantiate, run_batch

    artifact = compile_to_bitstream(app, scale)
    params = params if params is not None else batch_param_grid()
    n = len(params)
    picks = sorted(set(np.linspace(0, n - 1, max(1, min(sample, n)))
                       .astype(int).tolist()))
    batch = run_batch(artifact, params)
    mismatches = []
    for i in picks:
        machine = instantiate(artifact, params[i])
        machine.run()
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
    # cycles the event core had to execute for the followers: free-running
    # replay leaves lost shows here as a count
    followers = [r for r in batch if r.role == "replay" and r.ok]
    return {
        "app": app,
        "scale": scale,
        "instances": n,
        "cohorts": batch.cohorts,
        "replayed": batch.replayed,
        "follower_cycles": sum(r.stats.cycles for r in followers),
        "follower_executed_cycles": sum(
            r.machine.scheduler_stats.executed_cycles for r in followers),
        "sampled": len(picks),
        "verified": len(picks) - len(mismatches),
        "mismatches": mismatches,
        "errors": [f"instance {r.index}: {r.error}"
                   for r in batch if r.error is not None],
    }


def render_batch(section: dict) -> str:
    """Human-readable ``batch`` section."""
    return "\n".join([
        f"batched simulation — {section['app']} ({section['scale']}), "
        f"{section['instances']} instances",
        f"  cohorts {section['cohorts']}, replayed {section['replayed']}",
        f"  followers: {section['follower_executed_cycles']} of "
        f"{section['follower_cycles']} simulated cycles executed",
        f"  equivalence: {section['verified']}/{section['sampled']} "
        f"sampled instances bit-identical"
        + (f"; MISMATCHES: {section['mismatches']}"
           if section["mismatches"] else ""),
    ])


def run_gate() -> dict:
    """All four sections, at the sizes ``benchmarks/baseline.json``
    pins."""
    from repro.eval.multi import run_multi_benchmark, run_qos_benchmark

    return {"format": FORMAT, "rev": git_rev(),
            "solo": run_benchmarks(),
            "batch": run_batch_benchmark(),
            "multi": run_multi_benchmark(),
            "qos": run_qos_benchmark()}


def render(report: dict) -> str:
    """Human-readable report, one block per section."""
    from repro.eval.multi import render_multi, render_qos

    return "\n\n".join([render_solo(report["solo"]),
                         render_batch(report["batch"]),
                         render_multi(report["multi"]),
                         render_qos(report["qos"])])


def cmd_bench(args) -> int:
    """Entry point for ``repro bench`` (wired from the CLI)."""
    baseline = gate.load(args.baseline)
    os.makedirs(args.out, exist_ok=True)    # a bad --out fails before the run
    report = run_gate()
    print(render(report))
    path = os.path.join(args.out, f"GATE_{report['rev']}.json")
    return gate.finish(report, path, baseline, INVARIANTS)
