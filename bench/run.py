#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name, outputs checked.

    python3 bench/run.py --workload NAME --seed N            # 3 + 1 passes
    python3 bench/run.py --workload NAME --seed N --seconds 10 --trace 0
    python3 bench/run.py --all --out BENCH_<rev>.json
    python3 bench/run.py --all --repeat-check

One run is one workload in a fresh process: set-up, then untraced passes
(end-to-end metrics), then traced passes (per-layer metrics from spans
recorded around calls into each layer, plus attribution-only calls).
With ``--trace 0`` or ``--trace 1`` — how the PR driver calls it — only
the untraced or only the traced half is reported, measured for
``--seconds``, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Without ``--trace``
both halves run (``--passes`` untraced passes, one traced) and every
metric is printed.

Simulated time (``sim_cycles``: cycles of the modelled Plasticine) and
host time (everything else: seconds the Python simulator takes) are
never mixed.  ``BENCHMARK.json`` is the list of metric names and units;
this file computes them.  See ``bench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()      # set-up time starts here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import paths  # noqa: E402
import speed  # noqa: E402

sys.path.insert(0, paths.SRC_DIR)

#: set-up is repeated so ``setup_s`` can be a median: twice at least, a
#: third time unless that would push total set-up time past the budget
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0

#: span name -> the per-layer metric its self time feeds
SPAN_METRICS = {
    "patterns.trace": "patterns.trace_s",
    "compiler.compile": "compiler.compile_s",
    "dhdl.build": "dhdl.build_s",
    "bitstream.encode": "bitstream.encode_s",
    "bitstream.decode": "bitstream.decode_s",
    "sim.build": "sim.build_s",
    "sim.run": "sim.run_s",
    "sim.fabric_run": "sim.fabric_run_s",
    "sim.batch": "sim.batch_s",
    "tenancy.pack": "tenancy.pack_s",
    "serve.request": "serve.request_s",
    "check": "bench.check_s",
    "op": "bench.op_self_s",
}

#: units of host times, and of rates per host time: scaled to (from)
#: reference machine speed
TIME_UNITS = ("s", "ms", "us")
RATE_UNITS = ("1/s",)


def load_contract() -> dict:
    with open(paths.CONTRACT) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def raw_s(spans) -> float:
    return sum(ended - started for started, ended in spans)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


class Run:
    """Set-up, passes and metric computation for one workload."""

    def __init__(self, name: str, seed: int, units: dict,
                 smoke: bool = False):
        self.meter = speed.Meter()
        self.meter.start()
        try:
            import workloads  # heavy: numpy + every repro layer
        except ImportError:
            self.meter.stop()
            raise
        self.import_s = self.meter.at_reference(
            [(_T0, time.perf_counter())])
        self.name = name
        self.seed = seed
        self.units = units      # metric name -> unit, from BENCHMARK.json
        self.workload = workloads.WORKLOADS[name](smoke=smoke)
        self.setup_times = []
        self.untraced = []      # PassResult per untraced pass
        self.traced = []        # (PassResult, Recorder) per traced pass
        self.samples = {}       # metric name -> sample count

    # -- phases --------------------------------------------------------------
    def setup(self, repeats: int = SETUP_REPEATS) -> None:
        spent = 0.0
        while True:
            gc.collect()
            started = time.perf_counter()
            self.workload.setup(self.seed)
            span = (started, time.perf_counter())
            self.setup_times.append(self.meter.at_reference([span]))
            took = span[1] - span[0]
            spent += took
            done = len(self.setup_times)
            if done >= repeats or (done >= 2
                                   and spent + took > SETUP_BUDGET_S):
                return

    def one_pass(self, traced: bool) -> float:
        """Run one pass; returns everything it cost, untimed parts too."""
        from spans import NULL, Recorder
        gc.collect()
        started = time.perf_counter()
        if traced:
            rec = Recorder()
            self.traced.append(
                (self.workload.run_pass(rec, self.meter), rec))
        else:
            self.untraced.append(self.workload.run_pass(NULL, self.meter))
        return time.perf_counter() - started

    def measure(self, kinds, seconds, rounds) -> None:
        """Repeat one round of passes (``kinds``: a traced flag each).

        With ``rounds`` given, exactly that many rounds.  Otherwise for
        ``seconds``: at least one round (two, for a single-pass round,
        so pass-to-pass equality is always checked), then more while at
        least half of another round still fits.
        """
        started = time.perf_counter()
        costs = []
        least = 2 if len(kinds) == 1 else 1
        while True:
            costs.append(sum(self.one_pass(traced) for traced in kinds))
            if rounds is not None:
                if len(costs) >= rounds:
                    return
            elif len(costs) >= least and (
                    time.perf_counter() - started
                    + 0.5 * statistics.median(costs) >= seconds):
                return

    # -- correctness ---------------------------------------------------------
    def verdict(self):
        """(attempted, failed, problems): an operation fails on an output
        mismatch, an error or a bad response; a pass whose simulated
        cycles or exact counters differ from the first pass's adds one
        failure of its own."""
        passes = self.untraced + [p for p, _ in self.traced]
        attempted = failed = 0
        problems = []
        first = passes[0]
        for index, result in enumerate(passes):
            attempted += len(result.ops)
            for op in result.ops:
                if not op.ok:
                    failed += 1
                    problems.append(f"pass {index}: {op.name}: "
                                    f"{op.error or 'output mismatch'}")
            if result.cycles != first.cycles:
                failed += 1
                problems.append(
                    f"pass {index}: sim_cycles {result.cycles} != "
                    f"{first.cycles} in pass 0")
            diff = sorted(k for k in set(first.exact) | set(result.exact)
                          if first.exact.get(k, 0)
                          != result.exact.get(k, 0))
            if diff:
                failed += 1
                problems.append(f"pass {index}: exact counters differ "
                                f"from pass 0: {diff}")
        return attempted, failed, problems

    # -- metrics -------------------------------------------------------------
    def wall_s(self, result) -> float:
        """One pass's wall time at reference machine speed."""
        return self.meter.at_reference(result.spans)

    def end_to_end(self) -> dict:
        walls = [self.wall_s(p) for p in self.untraced]
        wall_s = statistics.median(walls)
        cycles = self.untraced[0].cycles
        for name in ("wall_s", "sim_kcycles_per_s"):
            self.samples[name] = len(walls)
        self.samples["setup_s"] = len(self.setup_times)
        return {
            "wall_s": wall_s,
            "sim_kcycles_per_s": cycles / wall_s / 1000.0,
            "sim_cycles": cycles,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": self.import_s + statistics.median(self.setup_times),
        }

    def at_reference(self, values: dict, spans) -> dict:
        """Scale every host time and rate (told by its unit) measured
        during ``spans`` from raw seconds, sampler included, to
        reference speed."""
        factor = self.meter.at_reference(spans) / raw_s(spans)
        scale = {**dict.fromkeys(TIME_UNITS, factor),
                 **dict.fromkeys(RATE_UNITS, 1.0 / factor)}
        return {name: value * scale.get(self.units.get(name), 1)
                for name, value in values.items()}

    def layer_times(self, result, rec) -> dict:
        """One traced pass: layer self times and the workload's own
        timings, at reference speed."""
        values = {SPAN_METRICS[name]: seconds
                  for name, seconds in rec.self_times().items()}
        values.update(result.timed)
        values = self.at_reference(values, result.spans)
        raw = sum(ended - started - self.meter.sampling_s(started, ended)
                  for started, ended in result.spans)
        values["bench.raw_wall_s"] = raw
        values["bench.machine_slowdown"] = raw / self.wall_s(result)
        return values

    def per_layer(self) -> dict:
        import numpy as np
        per_pass = [self.layer_times(p, rec) for p, rec in self.traced]
        out = {name: statistics.median(v[name] for v in per_pass)
               for name in per_pass[0]}
        for name in out:
            self.samples[name] = len(per_pass)
        first = self.traced[0][0]
        out.update(first.exact)
        out["patterns.executor_s"] = sum(
            case.executor_s for case in self.workload.cases)

        started = time.perf_counter()
        extra = self.workload.attribution()
        ended = time.perf_counter()
        out.update(self.at_reference(extra, [(started, ended)]))

        # per-operation latency, pooled over the untraced passes; only
        # where one pass has enough operations for a percentile to mean
        # anything (fuzz_mix: 100 per pass, serve_mix: 225)
        if self.untraced and len(self.untraced[0].ops) >= 50:
            ops = [self.meter.at_reference([op.span]) * 1e3
                   for p in self.untraced for op in p.ops]
            out["bench.op_p50_ms"] = float(np.percentile(ops, 50))
            out["bench.op_p95_ms"] = float(np.percentile(ops, 95))
            self.samples["bench.op_p50_ms"] = len(ops)
            self.samples["bench.op_p95_ms"] = len(ops)

        # derived: host time per simulated event, shares, ratios
        cycles = first.cycles
        traced_wall = statistics.median(self.wall_s(p)
                                        for p, _ in self.traced)
        run_s = out.get("sim.run_s", 0.0)
        executed = out.get("sim.executed_cycles", 0)
        skipped = out.get("sim.fast_forwarded_cycles", 0)
        out["sim.ff_share"] = ratio(skipped, executed + skipped)
        if run_s:
            out["sim.us_per_executed_cycle"] = ratio(run_s * 1e6, executed)
            out["sim.us_per_vector_issue"] = ratio(
                run_s * 1e6, out.get("sim.vector_issues", 0))
        out["sim.fabric_us_per_cycle"] = ratio(
            out.get("sim.fabric_run_s", 0.0) * 1e6,
            out.get("sim.fabric_cycles", 0))
        batch_s = out.get("sim.batch_s", 0.0)
        out["sim.batch_ms_per_instance"] = ratio(
            batch_s * 1e3, out.get("sim.batch_instances", 0))
        out["sim.batch_speedup_vs_solo"] = ratio(
            out.pop("_batch_sequential_s", 0.0), batch_s)
        hits = out.get("dram.row_hits", 0)
        out["dram.row_hit_ratio"] = ratio(
            hits, hits + out.get("dram.row_misses", 0))
        from repro.arch.params import DEFAULT
        out["dram.busy_fraction"] = ratio(
            out.get("dram.bytes", 0), cycles * DEFAULT.dram.peak_gbps)
        if self.untraced:
            base = statistics.median(self.wall_s(p) for p in self.untraced)
            out["bench.trace_overhead_pct"] = \
                (traced_wall - base) / base * 100
        return out

    def exact_names(self) -> list:
        """Per-layer metrics that must repeat bit for bit."""
        names = set(self.traced[0][0].exact) if self.traced else set()
        return sorted(names | {
            "sim.ff_share", "dram.row_hit_ratio", "dram.busy_fraction",
            "trace.events", "eval.table7_perf_log_err",
            "bitstream.cache_hits", "bitstream.cache_misses"})

    def write_trace(self) -> str:
        """Chrome/Perfetto JSON of the last traced pass (raw host
        microseconds: a picture of what happened, not a measurement)."""
        os.makedirs(paths.OUT_DIR, exist_ok=True)
        path = os.path.join(paths.OUT_DIR, f"{self.name}.trace.json")
        result, rec = self.traced[-1]
        rec.write(path, {"workload": self.name, "seed": self.seed,
                         "raw_wall_s": raw_s(result.spans),
                         "sim_cycles": result.cycles})
        return path


def run_workload(args, contract: dict) -> dict:
    """Run one workload in this process; returns its report."""
    units = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
             for m in contract[group]}
    run = Run(args.workload, args.seed, units, smoke=args.smoke)
    try:
        return measure_and_report(run, args, contract, units)
    finally:
        run.meter.stop()


def measure_and_report(run: Run, args, contract: dict, units: dict) -> dict:
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]
    run.setup(1 if args.trace == 1 else SETUP_REPEATS)
    if args.trace == 0:
        run.measure([False], seconds, args.passes)
    elif args.trace == 1:
        # alternate, so both medians see the same machine weather
        run.measure([False, True], seconds, args.passes)
    else:
        run.measure([False], None, args.passes or 3)
        run.measure([True], None, 1)

    metrics = {}
    if args.trace != 1:
        metrics.update(run.end_to_end())
    if args.trace != 0:
        metrics.update(run.per_layer())
        run.write_trace()
    attempted, failed, problems = run.verdict()
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    wanted = (contract["end_to_end"] if args.trace != 1 else []) \
        + (contract["per_layer"] if args.trace != 0 else [])
    return {
        "workload": args.workload, "seed": args.seed,
        "smoke": args.smoke, "trace": args.trace,
        "passes": {"untraced": len(run.untraced),
                   "traced": len(run.traced),
                   "setups": len(run.setup_times)},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        # a layer that is not on this workload's path reports 0
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                "unit": m["unit"],
                                "n": run.samples.get(m["name"], 1)}
                    for m in wanted},
        "exact": run.exact_names() if args.trace != 0 else [],
    }


def print_report(report: dict) -> None:
    passes = report["passes"]
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"({passes['setups']} set-ups, {passes['untraced']} untraced + "
          f"{passes['traced']} traced passes)")
    for name, entry in report["metrics"].items():
        value = entry["value"]
        if value == 0 and "." in name:
            continue    # a layer that is not on this workload's path
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:32s} {shown:>14s} {entry['unit']:10s} "
              f"n={entry['n']}")
    print(f"  failed_share {report['failed']}/{report['attempted']}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


def result_line(report: dict) -> str:
    """The driver's contract: the last line of standard output."""
    return json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in report["metrics"].items()}})


# ---------------------------------------------------------------------------
# Several workloads, each in its own process
# ---------------------------------------------------------------------------


def run_in_subprocess(name: str, args) -> dict:
    """One workload in a fresh process, so ``peak_rss_mb`` and import
    state are its own; returns the child's ``--out`` report."""
    os.makedirs(paths.OUT_DIR, exist_ok=True)
    handle, path = tempfile.mkstemp(suffix=".json", dir=paths.OUT_DIR)
    os.close(handle)
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--out", path]
    if args.passes is not None:
        argv += ["--passes", str(args.passes)]
    if args.smoke:
        argv.append("--smoke")
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL)
        with open(path) as report:
            loaded = json.load(report)
    finally:
        os.unlink(path)
    loaded["exit_code"] = proc.returncode
    return loaded


def repeat_check(names, args, contract: dict) -> int:
    """Two complete sets of runs of the same code must agree: exact
    metrics identical, bounded end-to-end metrics within their bound."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    status = 0
    for name in names:
        first, second = (run_in_subprocess(name, args) for _ in range(2))
        print(f"== {name}")
        for report in (first, second):
            if not report["correct"]:
                status = 1
                print(f"  FAIL run failed: {report['problems'][:3]}")
        for metric, entry in first["metrics"].items():
            a, b = entry["value"], second["metrics"][metric]["value"]
            if a == 0 and b == 0:
                continue    # a layer that is not on this workload's path
            if metric in first["exact"] or metric == "sim_cycles":
                verdict = "exact" if a == b else "FAIL differs"
            elif metric in bounds:
                drift = abs(b - a) / a
                verdict = (f"{drift:6.1%} of {bounds[metric]:.0%}"
                           if drift <= bounds[metric]
                           else f"FAIL {drift:.1%} > {bounds[metric]:.0%}")
            else:
                verdict = ""
            if verdict.startswith("FAIL"):
                status = 1
            print(f"  {metric:32s} {a:>14.6g} {b:>14.6g} "
                  f"{entry['unit']:10s} {verdict}")
    print("repeat-check", "FAILED" if status else "passed")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="list the workloads and exit")
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="every workload, each in its own subprocess")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --trace: how long to measure "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced passes, end-to-end metrics; "
                             "1: traced passes, per-layer metrics; "
                             "omitted: both")
    parser.add_argument("--passes", type=int, default=None,
                        help="untraced passes (with --trace: rounds) "
                             "instead of measuring for --seconds")
    parser.add_argument("--out", metavar="PATH",
                        help="write the full JSON report here")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the chosen workloads as two complete "
                             "sets and fail unless they agree")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (seconds in total); for "
                             "bench/test_bench.py, not for measuring")
    args = parser.parse_args(argv)
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]

    if args.list:
        for entry in contract["workloads"]:
            print(f"{entry['name']:14s} {entry['why']}")
        return 0
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if not args.all and args.workload is None:
        parser.error("give --workload NAME, --all or --list")
    chosen = names if args.all else [args.workload]

    if args.repeat_check:
        return repeat_check(chosen, args, contract)
    if args.all:
        reports = [run_in_subprocess(name, args) for name in chosen]
        for report in reports:
            print_report(report)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump({"seed": args.seed, "workloads": reports},
                          handle, indent=2, sort_keys=True)
                handle.write("\n")
        return 1 if any(r["exit_code"] for r in reports) else 0

    try:
        report = run_workload(args, contract)
    except ImportError as err:
        print(f"cannot import the program under test from "
              f"{paths.SRC_DIR}: {err}", file=sys.stderr)
        return 2
    print_report(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(result_line(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
