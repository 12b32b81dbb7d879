#!/usr/bin/env python
"""Host-speed gate for CI: fresh ``bench/run.py`` reports against the
newest committed one.

Usage::

    python3 bench/run.py --workload dram_stream --seed 0 --trace 0 \\
        --out speed/dram_stream.json
    python tools/speed_gate.py speed/dram_stream.json [...]

Each report's ``wall_s`` (the median untraced pass, at reference machine
speed) may be at most the same workload's ``wall_s`` in the newest
committed ``benchmarks/BENCH_<rev>_pr<N>.json`` (highest N, compared as
a number) times 1 + the ``wall_s`` bound of ``BENCHMARK.json``.  The
ceiling is held through :func:`repro.eval.gate.check`.  Prints the file
it compared against and both numbers per workload.  Exits 1 when a
report is over its ceiling, and 2 when there is nothing to compare
with: no committed file, or a workload the committed file lacks.
"""

from __future__ import annotations

import glob
import json
import os
import re
import sys
from typing import List, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.eval import gate  # noqa: E402

BENCHMARKS = os.path.join(REPO, "benchmarks")


def newest(directory: str) -> Optional[str]:
    """The ``BENCH_<rev>_pr<N>.json`` in ``directory`` with the highest
    N, or None."""
    numbered = []
    for path in glob.glob(os.path.join(directory, "BENCH_*_pr*.json")):
        match = re.search(r"_pr(\d+)\.json$", path)
        if match:
            numbered.append((int(match.group(1)), path))
    return max(numbered)[1] if numbered else None


def wall_bound() -> float:
    """The ``wall_s`` regression bound of ``BENCHMARK.json``."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return next(metric["bound"] for metric in contract["end_to_end"]
                if metric["name"] == "wall_s")


def _wall(report: dict) -> float:
    return report["metrics"]["wall_s"]["value"]


def check(reports: List[dict], committed: dict, bound: float) -> List[str]:
    """Failures of ``reports`` against ``committed``; raises KeyError
    naming a workload ``committed`` does not have."""
    by_name = {w["workload"]: w for w in committed["workloads"]}
    have, ceilings = {}, {}
    for report in reports:
        name = report["workload"]
        if name not in by_name:
            raise KeyError(name)
        median = _wall(by_name[name])
        have[name] = {"wall_s": _wall(report)}
        ceilings[name] = {"max_wall_s": median * (1 + bound)}
        print(f"{name}: wall_s {_wall(report):.3f} s against "
              f"{median:.3f} s x {1 + bound:g} = "
              f"{median * (1 + bound):.3f} s")
    return gate.check(have, ceilings)


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    path = newest(BENCHMARKS)
    if path is None:
        print(f"speed gate: no BENCH_<rev>_pr<N>.json in {BENCHMARKS}",
              file=sys.stderr)
        return 2
    with open(path) as fh:
        committed = json.load(fh)
    print(f"speed gate: against {os.path.relpath(path, REPO)}")
    reports = []
    for name in argv:
        with open(name) as fh:
            reports.append(json.load(fh))
    try:
        failures = check(reports, committed, wall_bound())
    except KeyError as err:
        print(f"speed gate: {os.path.basename(path)} has no workload "
              f"{err}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
