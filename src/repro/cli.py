"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Chip summary: parameters, area breakdown, peak numbers.
``list``
    The Table 4 benchmark registry.
``compile APP [--scale SCALE] [--out PATH]``
    Compile one benchmark to a frozen bitstream artifact (through the
    on-disk compile cache unless ``--no-cache``) and print its content
    hash; with ``--out`` also write the artifact JSON to a chosen path.
``run [APP] [--artifact PATH] [--scale SCALE] [--floorplan] [--ir]``
    Compile, cycle-simulate and validate one benchmark — or, with
    ``--artifact``, skip the compiler entirely and simulate a
    previously saved bitstream.  ``--floorplan`` prints which unit each
    grid site hosts, read from the sites the artifact records, so a
    saved artifact and a fresh compile print the same floorplan.  With
    ``--trace`` the simulator records
    per-cycle stall attribution and prints the breakdown plus a
    utilization waterfall; give a PATH to also write a Chrome/Perfetto
    trace JSON.  ``--scheduler`` selects the cycle loop (event-driven
    wakeup scheduler by default, ``dense`` for the tick-everything
    reference), ``--max-cycles`` and ``--watchdog`` bound runaway and
    deadlocked simulations.  ``--batch`` simulates N timing variants
    (``--sweep stages=4,8,16 --sweep banks=4,16`` or an explicit
    ``--batch-params`` JSON list) of one compiled design in a single
    batched pass.
``bench [--out DIR] [--baseline PATH]``
    The answer gate: one deterministic run of four sections — the
    registry at ``tiny`` (``solo``), ``run_batch`` over a 78-instance
    Figure-7-style grid (``batch``), a two-app co-run (``multi``) and a
    weighted QoS co-run (``qos``) — written as ``GATE_<rev>.json``.
    Nothing in it is timed.  ``--baseline PATH`` gates the report
    against a committed baseline (``benchmarks/baseline.json``) — a
    partial report whose leaves are exact pins and whose
    ``min_``/``max_`` keys are bounds (``repro.eval.gate``); a failed
    pin exits 1, an unusable baseline exits 2 before anything runs.
``table5 | table6 | table7``
    Regenerate a paper table: every benchmark is compiled and measured
    in this process, and nothing is written to disk.
``figure7 PARAM``
    Run one Figure 7 sweep (stages, regs_per_stage, scalar_in,
    scalar_out, vector_in, vector_out).
``serve [--port N] [--jobs N] [--queue-depth N] [--cache-dir DIR]``
    Run the async compile-and-simulate HTTP service (``repro.serve``):
    clients POST program specs, registry apps, or precompiled artifact
    hashes and get back SimStats, stall attribution, and trace URLs.
``chaos [--seed N] [--scenarios M]``
    Run registry apps under seeded random fault plans
    (``repro.faults``): every scenario must end bit-correct (clean,
    degraded, or recovered) or with a typed, attributed FaultError —
    never a hang, never silent corruption.
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_info(args) -> int:
    from repro.arch.params import DEFAULT
    from repro.arch.power import max_chip_power
    from repro.eval import table5
    print(table5.render(table5.generate()))
    print(f"\ngrid: {DEFAULT.grid_cols}x{DEFAULT.grid_rows} "
          f"({DEFAULT.num_pcus} PCUs + {DEFAULT.num_pmus} PMUs), "
          f"{DEFAULT.num_ags} AGs, "
          f"{DEFAULT.num_coalescing_units} coalescing units")
    print(f"peak: {DEFAULT.peak_tflops:.1f} TFLOPS, "
          f"{DEFAULT.onchip_mb:.0f} MB on chip, "
          f"{DEFAULT.dram.peak_gbps:.1f} GB/s DRAM, "
          f"{max_chip_power():.1f} W max")
    return 0


def _cmd_list(args) -> int:
    from repro.apps import ALL_APPS
    for app in ALL_APPS:
        kind = "sparse" if app.sparse else "dense"
        print(f"{app.name:14s} {kind:7s} {app.display}")
    return 0


def _cmd_compile(args) -> int:
    from repro.bitstream.cache import CompileCache
    from repro.compiler.artifact import compile_app_cached

    cache = None if args.no_cache else CompileCache(args.cache_dir)
    started = time.time()
    artifact, outcome = compile_app_cached(args.app, args.scale,
                                           cache=cache)
    wall_ms = (time.time() - started) * 1e3
    summary = artifact.summary()
    source = {"hit": "loaded from cache", "miss": "compiled and cached",
              "off": "compiled (cache disabled)"}[outcome]
    print(f"{args.app} ({args.scale}): {source} in {wall_ms:.0f} ms")
    print(f"  key:          {summary['key']}")
    print(f"  content hash: {summary['content_hash']}")
    print(f"  artifact:     {summary['bytes']} bytes, "
          f"{summary['leaves']} leaves, {summary['srams']} srams, "
          f"{summary['pcus_used']} PCUs / {summary['pmus_used']} PMUs")
    if args.out:
        path = artifact.save(args.out)
        print(f"  wrote {path}")
    return 0


def _print_trace(machine, tracer, path) -> int:
    """Stall attribution + waterfall of a traced run; Chrome trace JSON
    to ``path`` when one was given.  Returns the exit status."""
    if tracer is None:
        return 0
    from repro.trace import render_waterfall, write_chrome_trace
    report = machine.trace_report()
    print()
    print(report.render())
    print()
    print(render_waterfall(tracer, report))
    if path:
        try:
            write_chrome_trace(path, tracer, report)
        except OSError as err:
            print(f"cannot write trace to {path}: {err}",
                  file=sys.stderr)
            return 1
        print(f"\nwrote Chrome trace to {path} "
              f"(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _parse_sweeps(sweeps) -> list:
    """``--sweep KEY=V1,V2,...`` flags -> cross-product override grid."""
    axes = []
    for text in sweeps:
        key, sep, values = text.partition("=")
        if not sep or not values:
            raise ValueError(
                f"--sweep wants KEY=V1,V2,..., got {text!r}")
        axes.append((key.strip(), [int(v) for v in values.split(",")]))
    grid = [{}]
    for key, vals in axes:
        grid = [{**point, key: v} for point in grid for v in vals]
    return grid


def _batch_params_from(args) -> list:
    """The per-instance override list selected by the batch flags."""
    import json as _json

    if args.batch_params:
        text = args.batch_params
        if text.startswith("@"):
            with open(text[1:]) as fh:
                text = fh.read()
        params = _json.loads(text)
        if not isinstance(params, list):
            raise ValueError("--batch-params wants a JSON list of "
                             "override dicts")
        return params
    if args.sweep:
        return _parse_sweeps(args.sweep)
    # default demo sweep: Figure 7a's stages axis
    return [{"stages": s} for s in range(4, 17)]


def _cmd_run_batch(args) -> int:
    """``repro run --batch``: one compile, N simulated instances."""
    from repro.apps import get_app
    from repro.bitstream import Bitstream
    from repro.compiler.artifact import freeze_program
    from repro.sim.batch import run_batch

    try:
        params = _batch_params_from(args)
    except ValueError as err:
        print(f"repro run --batch: {err}", file=sys.stderr)
        return 2
    app = None
    started = time.time()
    if args.artifact:
        source = Bitstream.load(args.artifact)
        label = f"{source.app} ({source.scale}) from {args.artifact}"
    else:
        app = get_app(args.app)
        program = app.build(args.scale)
        source = freeze_program(program, app.name, args.scale)
        label = f"{app.display} ({args.scale})"
    compile_s = time.time() - started
    started = time.time()
    batch = run_batch(source, params, scheduler=args.scheduler)
    sim_s = time.time() - started
    validated = 0
    validatable = 0
    if app is not None:
        expected = app.expected(program)
        for inst in batch:
            if not inst.ok or "data" in inst.params:
                continue
            validatable += 1
            results = {name: inst.machine.result(name)
                       for name in expected}
            app.check(program, results, expected)
            validated += 1
    print(f"{label}: {len(batch)} instances, {batch.cohorts} "
          f"cohort(s), {batch.replayed} replayed")
    print(f"  compile {compile_s * 1e3:.0f} ms, batch simulate "
          f"{sim_s * 1e3:.0f} ms "
          f"({sim_s * 1e3 / max(1, len(batch)):.0f} ms/instance)")
    if app is not None:
        print(f"  outputs: {validated}/{validatable} instances "
              f"VALIDATED against the reference executor")
    print(f"  {'#':>3s} {'role':6s} {'cycles':>9s}  params")
    failures = 0
    for inst in batch:
        if inst.ok:
            detail = f"{inst.stats.cycles:9d}"
        else:
            failures += 1
            detail = f"{'ERROR':>9s}"
        compact = ", ".join(f"{k}={v}" for k, v in inst.params.items()
                            if k != "data") or "(as compiled)"
        if "data" in inst.params:
            compact += " +data"
        print(f"  {inst.index:3d} {inst.role:6s} {detail}  {compact}")
        if not inst.ok:
            print(f"      {inst.error}")
    return 1 if failures else 0


def _cmd_run_multi(args) -> int:
    from repro.errors import MappingError
    from repro.tenancy import co_run

    priorities = args.priority
    if priorities is not None and len(priorities) != len(args.multi):
        print(f"repro run --multi: --priority wants one weight per "
              f"app ({len(args.multi)} apps, {len(priorities)} "
              f"weights)", file=sys.stderr)
        return 2
    if args.trace:
        print("repro run --multi: --trace takes no PATH here (each "
              "tenant's stall attribution is printed)", file=sys.stderr)
        return 2
    tracers = []
    tracer_factory = None
    if args.trace is not None:
        from repro.trace import RingTracer

        def tracer_factory(name):
            tracers.append(RingTracer(sample=args.trace_sample))
            return tracers[-1]
    started = time.time()
    try:
        res = co_run(args.multi, scale=args.scale,
                     watchdog=args.watchdog,
                     max_cycles=args.max_cycles,
                     tracer_factory=tracer_factory,
                     priorities=priorities,
                     scheduler=args.scheduler)
    except MappingError as err:
        print(f"repro run --multi: {err}", file=sys.stderr)
        return 1
    elapsed = time.time() - started
    n = len(res.tenants)
    print(f"co-resident fabric: {n} tenants, "
          f"{res.fabric_cycles} cycles ({elapsed * 1e3:.0f} ms)")
    print(f"  {'tenant':14s} {'region':>10s} {'prio':>4s} "
          f"{'cycles':>8s} {'dram B/cyc':>10s}  validated")
    for t in res.tenants:
        if t.region:
            col0, row0, cols, rows = t.region
            region = f"{cols}x{rows}@({col0},{row0})"
        else:
            region = "full"
        bpc = t.stats.dram.get("bytes", 0) / max(1, t.stats.cycles)
        print(f"  {t.name:14s} {region:>10s} {t.priority:4d} "
              f"{t.stats.cycles:8d} {bpc:10.1f}  "
              f"{'yes' if t.validated else 'no'}")
    util = ", ".join(f"{ch}={v['util'] * 100:.1f}%"
                     for ch, v in sorted(res.channel_util.items()))
    print(f"  shared DRAM channel utilization: {util}")
    for t in res.tenants:
        share = ", ".join(f"{ch}={v['util'] * 100:.1f}%"
                          for ch, v in sorted(t.channel_util.items()))
        print(f"    {t.name}: {share}")
    if res.qos and res.qos.get("weighted"):
        print("  QoS arbitration (weighted FR-FCFS):")
        for name, entry in sorted(res.qos["tenants"].items()):
            print(f"    {name}: weight {entry['priority']}, "
                  f"won {entry['arb_won']} / deferred "
                  f"{entry['arb_deferred']} contended grants")
    if tracers:
        from repro.trace.attribution import build_report
        for t, tracer in zip(res.tenants, tracers):
            print(f"\n{t.name}:")
            print(build_report(tracer, t.stats).render())
    return 0


def _cmd_run(args) -> int:
    from repro.apps import get_app
    from repro.dhdl import format_program
    from repro.sim import Machine

    if args.multi:
        return _cmd_run_multi(args)
    if args.batch:
        if not args.app and not args.artifact:
            print("repro run --batch: give an APP name or --artifact "
                  "PATH", file=sys.stderr)
            return 2
        return _cmd_run_batch(args)
    # a saved artifact and a fresh compile are two sources of one
    # artifact (and app-or-None and its program); everything after is
    # one path
    if args.artifact:
        from repro.bitstream import Bitstream
        artifact = Bitstream.load(args.artifact)
        scale = artifact.scale
        try:
            app = get_app(artifact.app)
        except KeyError:
            app = None
        program = app.build(scale) if app is not None else None
        label = f"{artifact.app} ({scale}) from {args.artifact}"
        origin = f"hash {artifact.content_hash[:12]}"
    elif args.app:
        from repro.compiler.artifact import freeze_program
        app = get_app(args.app)
        scale = args.scale
        program = app.build(scale)
        started = time.time()
        artifact = freeze_program(program, app.name, scale)
        origin = f"compile {(time.time() - started) * 1e3:.0f} ms"
        label = f"{app.display} ({scale})"
    else:
        print("repro run: give an APP name or --artifact PATH",
              file=sys.stderr)
        return 2
    dhdl, config = artifact.dhdl, artifact.config
    if args.ir:
        print(format_program(dhdl))
        print()
    tracer = None
    if args.trace is not None:
        from repro.trace import RingTracer
        tracer = RingTracer(sample=args.trace_sample)
    started = time.time()
    machine = Machine(dhdl, config, tracer=tracer,
                      scheduler=args.scheduler,
                      max_cycles=args.max_cycles,
                      watchdog=args.watchdog)
    stats = machine.run()
    sim_s = time.time() - started
    verdict = "simulated (no registry app to validate against)"
    if app is not None:
        expected = app.expected(program)
        results = {name: machine.result(name) for name in expected}
        app.check(program, results, expected)
        verdict = "VALIDATED against the reference executor"
    util = config.utilization()
    print(f"{label}: {verdict}")
    print(f"  cycles: {stats.cycles}  "
          f"({origin}, simulate {sim_s * 1e3:.0f} ms)")
    print(f"  fabric: {config.pcus_used} PCUs "
          f"({100 * util['pcu']:.1f}%), "
          f"{config.pmus_used} PMUs "
          f"({100 * util['pmu']:.1f}%), "
          f"{config.ags_used} AGs")
    dram = stats.dram
    print(f"  DRAM: {dram['reads']} read / {dram['writes']} write "
          f"bursts, {dram['row_hits']} row hits, "
          f"{dram['bytes'] / max(1, stats.cycles):.1f} B/cycle")
    print(f"  datapath: {stats.ops_executed} ops, "
          f"{stats.conflict_cycles} bank-conflict stalls, "
          f"{stats.fifo_stall_cycles} FIFO stalls")
    if args.floorplan:
        print()
        print(render_floorplan(artifact))
    return _print_trace(machine, tracer, args.trace)


def render_floorplan(artifact) -> str:
    """ASCII floorplan of an artifact: which unit each grid site hosts."""
    from repro.compiler.place_route import site_kinds
    config = artifact.config
    params = config.params
    kinds = site_kinds(params, artifact.options.pmu_fraction)
    owner = {site: name for name, sites in config.sites.items()
             for site in sites}
    labels = {}
    legend = []
    for k, name in enumerate(sorted(config.sites)):
        tag = chr(ord("A") + k % 26)
        labels[name] = tag
        legend.append(f"  {tag} = {name}")
    lines = ["floorplan (PCU sites '.', PMU sites ',', placed units "
             "lettered):"]
    for row in range(params.grid_rows):
        cells = []
        for col in range(params.grid_cols):
            site = (col, row)
            if site in owner:
                cells.append(labels[owner[site]])
            else:
                cells.append("." if kinds[site] == "pcu" else ",")
        lines.append(" ".join(cells))
    return "\n".join(lines + legend)


def _cmd_table(args) -> int:
    from repro.eval import table5, table6, table7
    if args.command == "table5":
        print(table5.render(table5.generate()))
    elif args.command == "table6":
        print(table6.render(table6.generate(scale=args.scale)))
        print()
        print(table6.render_control(
            table6.control_overhead(scale="tiny")))
    else:
        print(table7.render(table7.generate(scale=args.scale,
                                            validate=False)))
    return 0


def _cmd_figure7(args) -> int:
    from repro.eval import figure7
    if args.simulate:
        values = figure7.SIM_SWEEPS.get(args.param)
        if values is None:
            print(f"cannot sweep {args.param!r} in the simulator; "
                  f"one of: {sorted(figure7.SIM_SWEEPS)}",
                  file=sys.stderr)
            return 2
        result = figure7.sim_sweep(args.param, values, app=args.app,
                                   scale=args.scale)
        print(figure7.render_sim(result))
        return 0
    for key, (param, values) in figure7.SWEEPS.items():
        if param == args.param:
            curves = figure7.sweep(param, values, scale=args.scale)
            print(figure7.render(param, curves))
            print(f"\noverhead-minimising value: "
                  f"{figure7.best_value(curves)}")
            return 0
    print(f"unknown parameter {args.param!r}; one of: "
          f"{[p for p, _ in figure7.SWEEPS.values()]}",
          file=sys.stderr)
    return 2


def _cmd_fuzz(args) -> int:
    from repro.fuzz import replay_corpus, run_campaign
    campaign = run_campaign(args.seed, args.runs, shrink=args.shrink,
                            save_dir=args.save_failures,
                            progress=print,
                            batched=args.batch_oracle)
    print(campaign.summary())
    status = 1 if campaign.divergences else 0
    if args.corpus is not None:
        replayed = replay_corpus(args.corpus)
        bad = [(p, r) for p, r in replayed if not r.ok]
        print(f"corpus: {len(replayed)} specs replayed, "
              f"{len(bad)} failing")
        for path, result in bad:
            print(f"  {path}: {result.describe()}")
        if bad:
            status = 1
    return status


def _cmd_serve(args) -> int:
    from repro.serve import ReproService, ServeConfig, run_server
    config = ServeConfig(
        jobs=args.jobs, queue_depth=args.queue_depth,
        cache_dir=args.cache_dir, no_cache=args.no_cache,
        data_dir=args.data_dir, timeout_s=args.timeout,
        result_cache=args.result_cache)
    return run_server(ReproService(config), host=args.host,
                      port=args.port)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Plasticine (ISCA 2017) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="chip summary")
    sub.add_parser("list", help="benchmark registry")
    comp = sub.add_parser(
        "compile", help="compile one benchmark to a bitstream artifact")
    comp.add_argument("app")
    comp.add_argument("--scale", default="small",
                      choices=("tiny", "small"))
    comp.add_argument("--out", default=None, metavar="PATH",
                      help="also write the artifact JSON here")
    comp.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="compile-cache directory (default "
                           "$REPRO_CACHE_DIR or ~/.cache/repro)")
    comp.add_argument("--no-cache", action="store_true",
                      help="always compile; never read or write the "
                           "artifact cache")
    run = sub.add_parser("run", help="compile+simulate one benchmark")
    run.add_argument("app", nargs="?", default=None)
    run.add_argument("--multi", nargs="+", default=None, metavar="APP",
                     help="co-simulate several benchmarks as tenants "
                          "of one shared fabric (disjoint regions, "
                          "shared DRAM channels, per-tenant stats)")
    run.add_argument("--priority", nargs="+", type=_positive_int,
                     default=None, metavar="W",
                     help="with --multi: one QoS weight per app for "
                          "the shared DRAM arbitration (all-equal "
                          "weights run plain FR-FCFS bit-identically)")
    run.add_argument("--artifact", default=None, metavar="PATH",
                     help="simulate a saved bitstream artifact instead "
                          "of compiling")
    run.add_argument("--scale", default="small",
                     choices=("tiny", "small"))
    run.add_argument("--floorplan", action="store_true",
                     help="print which unit each grid site hosts")
    run.add_argument("--ir", action="store_true")
    run.add_argument("--trace", nargs="?", const="", default=None,
                     metavar="PATH",
                     help="record per-cycle stall attribution; with a "
                          "PATH also write Chrome/Perfetto trace JSON")
    run.add_argument("--trace-sample", type=_positive_int, default=1,
                     metavar="N",
                     help="record detailed events only every N cycles "
                          "(attribution stays exact)")
    run.add_argument("--batch", action="store_true",
                     help="simulate N parameter variants of one "
                          "compiled design in a single batched pass "
                          "(see --sweep / --batch-params)")
    run.add_argument("--sweep", action="append", default=[],
                     metavar="KEY=V1,V2,...",
                     help="with --batch: sweep one timing parameter "
                          "(repeatable; flags cross-product)")
    run.add_argument("--batch-params", default=None, metavar="JSON",
                     help="with --batch: explicit JSON list of "
                          "per-instance override dicts (or @FILE)")
    run.add_argument("--scheduler", default="event",
                     choices=("event", "dense"),
                     help="cycle loop: event-driven wakeup scheduler "
                          "(default) or the dense reference loop")
    run.add_argument("--max-cycles", type=_positive_int,
                     default=20_000_000, metavar="N",
                     help="abort the simulation after N cycles")
    run.add_argument("--watchdog", type=_positive_int, default=50_000,
                     metavar="N",
                     help="raise DeadlockError after N cycles without "
                          "forward progress")
    bench = sub.add_parser(
        "bench", help="check the simulator's answers against a baseline")
    bench.add_argument("--out", default=".", metavar="DIR",
                       help="directory for GATE_<rev>.json")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="gate the report against a committed "
                            "baseline (exact pins and min_/max_ bounds, "
                            "see repro.eval.gate), e.g. "
                            "benchmarks/baseline.json")
    for name in ("table5", "table6", "table7"):
        t = sub.add_parser(name, help=f"regenerate {name}")
        t.add_argument("--scale", default="small",
                       choices=("tiny", "small"))
    fig = sub.add_parser("figure7", help="run one Figure 7 sweep")
    fig.add_argument("param")
    fig.add_argument("--scale", default="small",
                     choices=("tiny", "small"))
    fig.add_argument("--simulate", action="store_true",
                     help="sweep a *timing* parameter through the "
                          "batched cycle simulator (cycles curve) "
                          "instead of the area model")
    fig.add_argument("--app", default="gemm", metavar="APP",
                     help="--simulate: which registry benchmark to "
                          "sweep (default gemm)")
    fuzz = sub.add_parser(
        "fuzz", help="differential-fuzz the executors (see repro.fuzz)")
    fuzz.add_argument("--seed", type=int, default=0, metavar="N",
                      help="first campaign seed (default 0)")
    fuzz.add_argument("--runs", type=_positive_int, default=50,
                      metavar="N",
                      help="number of consecutive seeds to fuzz "
                           "(default 50)")
    fuzz.add_argument("--batch-oracle", action="store_true",
                      help="also pin every passing spec batch-vs-"
                           "sequential (run_batch under timing "
                           "variants must match solo runs bit-for-bit)")
    fuzz.add_argument("--shrink", action="store_true",
                      help="minimize each failing program before "
                           "reporting it")
    fuzz.add_argument("--save-failures", default=None, metavar="DIR",
                      help="write failing specs (and .min.json shrunk "
                           "twins with --shrink) into DIR")
    fuzz.add_argument("--corpus", nargs="?", const="tests/fuzz/corpus",
                      default=None, metavar="DIR",
                      help="also replay the checked-in regression "
                           "corpus (default dir: tests/fuzz/corpus)")
    serve = sub.add_parser(
        "serve", help="run the compile-and-simulate HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--jobs", type=_positive_int, default=2,
                       metavar="N",
                       help="simulator worker processes (default 2)")
    serve.add_argument("--queue-depth", type=_positive_int, default=64,
                       metavar="N",
                       help="jobs allowed to wait for a worker before "
                            "new submissions get 429 (default 64)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared compile cache (default "
                            "$REPRO_CACHE_DIR or ~/.cache/repro)")
    serve.add_argument("--no-cache", action="store_true",
                       help="compile every miss from scratch; never "
                            "touch the artifact cache")
    serve.add_argument("--data-dir", default=None, metavar="DIR",
                       help="artifact + trace store (default "
                            "<cache root>/serve)")
    serve.add_argument("--timeout", type=float, default=300.0,
                       metavar="S",
                       help="per-job wall-clock timeout in seconds "
                            "(default 300)")
    serve.add_argument("--result-cache", type=int, default=256,
                       metavar="N",
                       help="completed {job, params} results to keep "
                            "for exact replay (0 disables; default "
                            "256)")
    chaos = sub.add_parser(
        "chaos", help="run seeded random fault-injection scenarios")
    chaos.add_argument("--seed", type=int, default=0, metavar="N",
                       help="campaign seed (default 0); the same seed "
                            "replays the same scenarios")
    chaos.add_argument("--scenarios", type=_positive_int, default=25,
                       metavar="M",
                       help="scenarios to run (default 25)")
    chaos.add_argument("--scale", default="tiny",
                       choices=("tiny", "small"),
                       help="registry-app scale (default tiny)")
    chaos.add_argument("--multi-every", type=int, default=10,
                       metavar="K",
                       help="every K-th scenario is multi-tenant: a "
                            "unit failure in one tenant of a packed "
                            "fabric, recovered by migrating the "
                            "tenant (0 disables; default 10)")
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="also write the JSON report here")
    chaos.add_argument("--verbose", action="store_true",
                       help="print each scenario as it classifies")
    return parser


def _dispatch(args) -> int:
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "bench":
        from repro.eval.bench import cmd_bench
        return cmd_bench(args)
    if args.command in ("table5", "table6", "table7"):
        return _cmd_table(args)
    if args.command == "figure7":
        return _cmd_figure7(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "chaos":
        from repro.faults.chaos import cmd_chaos
        return cmd_chaos(args)
    return 2


def main(argv=None) -> int:
    """CLI entry point.

    Bad input — an unknown app, an override the design rejects, a path
    that cannot be read — is one ``repro <command>: <message>`` line on
    stderr and exit status 2, never a traceback.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ReproError, OSError) as err:
        print(f"repro {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
