#!/usr/bin/env python
"""Host-speed gate for CI: fresh ``bench/run.py`` reports against the
newest committed ones.

Usage::

    python3 bench/run.py --workload dram_stream --seed 0 --trace 0 \\
        --out speed/dram_stream.json
    python tools/speed_gate.py speed/dram_stream.json [...]

Each report's ``wall_s`` (the median untraced pass, at reference machine
speed) may be at most the median ``wall_s`` of the same workload in the
three newest committed ``benchmarks/BENCH_<rev>_pr<N>.json`` files that
have it (highest N first) times 1 + the ``wall_s`` bound of
``BENCHMARK.json``: one low reading does not set a ceiling, and a
committed speed-up lowers the ceilings once it is the middle reading.
The ceiling is held through :func:`repro.eval.gate.check`.  Prints, per
workload, both numbers and the files the ceiling comes from.  Exits 1
when a report is over its ceiling, and 2 when there is nothing to
compare with: no committed file, or a workload no committed file has.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
import sys
from typing import Dict, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.eval import gate  # noqa: E402

BENCHMARKS = os.path.join(REPO, "benchmarks")


#: how many of the newest committed readings a ceiling is the median of
NEWEST = 3


def references(directory: str) -> Dict[str, Tuple[float, str]]:
    """Per workload, the median ``wall_s`` of the :data:`NEWEST`
    ``BENCH_<rev>_pr<N>.json`` files in ``directory`` with the highest
    N that have it, and the names of those files."""
    files = []
    for path in glob.glob(os.path.join(directory, "BENCH_*_pr*.json")):
        match = re.search(r"_pr(\d+)\.json$", path)
        if match:
            files.append((int(match.group(1)), path))
    readings: Dict[str, List[Tuple[float, str]]] = {}
    for _, path in sorted(files, reverse=True):
        with open(path) as fh:
            committed = json.load(fh)
        for workload in committed["workloads"]:
            kept = readings.setdefault(workload["workload"], [])
            if len(kept) < NEWEST:
                kept.append((_wall(workload), os.path.basename(path)))
    return {name: (statistics.median(wall for wall, _ in kept),
                   ", ".join(path for _, path in kept))
            for name, kept in readings.items()}


def wall_bound() -> float:
    """The ``wall_s`` regression bound of ``BENCHMARK.json``."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return next(metric["bound"] for metric in contract["end_to_end"]
                if metric["name"] == "wall_s")


def _wall(report: dict) -> float:
    return report["metrics"]["wall_s"]["value"]


def check(reports: List[dict], best: Dict[str, Tuple[float, str]],
          bound: float) -> List[str]:
    """Failures of ``reports`` against the ``best`` committed
    ``wall_s`` per workload (:func:`references`); raises KeyError
    naming a workload ``best`` does not have."""
    have, ceilings = {}, {}
    for report in reports:
        name = report["workload"]
        if name not in best:
            raise KeyError(name)
        floor, path = best[name]
        have[name] = {"wall_s": _wall(report)}
        ceilings[name] = {"max_wall_s": floor * (1 + bound)}
        print(f"{name}: wall_s {_wall(report):.3f} s against "
              f"{floor:.3f} s ({path}) x {1 + bound:g} = "
              f"{floor * (1 + bound):.3f} s")
    return gate.check(have, ceilings)


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    best = references(BENCHMARKS)
    if not best:
        print(f"speed gate: no BENCH_<rev>_pr<N>.json in {BENCHMARKS}",
              file=sys.stderr)
        return 2
    print(f"speed gate: against the median wall_s of the {NEWEST} newest "
          f"committed files in {os.path.relpath(BENCHMARKS, REPO)}")
    reports = []
    for name in argv:
        with open(name) as fh:
            reports.append(json.load(fh))
    try:
        failures = check(reports, best, wall_bound())
    except KeyError as err:
        print(f"speed gate: the committed BENCH_<rev>_pr<N>.json files "
              f"have no workload {err}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
