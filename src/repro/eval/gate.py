"""Baseline gates: the one module that knows the baseline format.

Every ``--baseline`` file under ``benchmarks/`` is a *partial report*.
:func:`check` walks it key by key against the report a benchmark just
produced:

* a plain leaf is an exact pin — the report must hold the same value at
  the same place (cycle counts, workload sizes, ``"mismatches": []``);
* ``min_X`` / ``max_X`` bound the report's ``X`` from below / above
  (host-speed floors, latency ceilings); the headroom is part of the
  number and is explained in the file's ``comment``;
* a dict recurses, and a list of dicts that carry ``name`` is matched
  row by row on that name — report rows the baseline lacks are new
  benchmarks and stay ungated, baseline rows the report lacks fail;
* ``comment`` / ``_comment`` keys are skipped;
* a key the report does not have is a failure, never a skip, so a
  misspelt floor cannot silently gate nothing.

:func:`load` runs *before* the benchmark (a baseline that cannot gate
anything, or whose bound is not a number, is a usage error, exit 2, not
a traceback after minutes of simulation); :func:`finish` is the shared
tail of every gated command.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional

_COMMENTS = ("comment", "_comment")


def _named_rows(value) -> bool:
    return (isinstance(value, list) and bool(value)
            and all(isinstance(row, dict) and "name" in row
                    for row in value))


def pins(baseline) -> int:
    """How many report values ``baseline`` gates."""
    if isinstance(baseline, dict):
        return sum(pins(value) for key, value in baseline.items()
                   if key not in _COMMENTS)
    if _named_rows(baseline):
        return sum(pins(row) for row in baseline)
    return 1


def _bad_bounds(baseline, path: str = "") -> List[str]:
    """Key paths of ``min_``/``max_`` values that are not numbers."""
    bad: List[str] = []
    for key, value in baseline.items():
        if key in _COMMENTS:
            continue
        where = path + key
        if key[:4] in ("min_", "max_"):
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                bad.append(f"{where} = {value!r}")
        elif isinstance(value, dict):
            bad += _bad_bounds(value, where + ".")
        elif _named_rows(value):
            for row in value:
                bad += _bad_bounds(row, f"{where}[{row['name']}].")
    return bad


def check(report, baseline: dict, path: str = "") -> List[str]:
    """Hold ``report`` against ``baseline``; returns failure messages
    (empty = pass), each starting with the path of the offending key."""
    failures: List[str] = []
    for key, want in baseline.items():
        if key in _COMMENTS:
            continue
        bound = key[:4] if key[:4] in ("min_", "max_") else ""
        name = key[len(bound):]
        where = path + name
        if not isinstance(report, dict) or name not in report:
            failures.append(
                f"{where}: gated by the baseline (key {key!r}) but the "
                f"report has no such field — misspelt, or the report "
                f"shape changed")
            continue
        have = report[name]
        if bound:
            floor = bound == "min_"
            if not isinstance(have, (int, float)) or \
                    (have < want if floor else have > want):
                failures.append(
                    f"{where}: {have!r} is "
                    f"{'below' if floor else 'above'} the committed "
                    f"{'floor' if floor else 'ceiling'} {want!r}")
        elif isinstance(want, dict):
            failures += check(have, want, where + ".")
        elif _named_rows(want):
            rows = {row.get("name"): row for row in have
                    if isinstance(row, dict)} \
                if isinstance(have, list) else {}
            for row in want:
                at = f"{where}[{row['name']}]"
                if row["name"] in rows:
                    failures += check(rows[row["name"]], row, at + ".")
                else:
                    failures.append(f"{at}: pinned by the baseline but "
                                    f"the report has no row of that name")
        elif have != want:
            failures.append(
                f"{where}: {have!r}, pinned at {want!r} (the answer "
                f"changed; refresh the baseline only for an intended "
                f"model change)")
    return failures


def load(path: Optional[str]) -> Optional[dict]:
    """Read and validate a ``--baseline`` file (``None`` = ungated).

    Exits with status 2 and one line on stderr, like any other bad
    command-line argument, when the file is missing, is not JSON, pins
    nothing or bounds a value by something other than a number.
    """
    if not path:
        return None
    try:
        with open(path) as fh:
            baseline = json.load(fh)
        if not isinstance(baseline, dict) or not pins(baseline):
            raise ValueError("it pins nothing (want a JSON object with "
                             "at least one gated key; see docs/CI.md)")
        bad = _bad_bounds(baseline)
        if bad:
            raise ValueError(f"a min_/max_ bound must be a number: "
                             f"{', '.join(bad)}")
    except (OSError, ValueError) as err:
        print(f"unusable baseline {path}: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    return baseline


def finish(report: dict, path: Optional[str], baseline: Optional[dict],
           invariants: Optional[dict] = None) -> int:
    """Shared tail of a gated command; returns its exit status.

    Writes ``report`` to ``path`` (when given), then holds it against
    the command's own ``invariants`` (baseline-shaped; they apply with
    or without a ``--baseline``) and the loaded ``baseline``, printing
    each failure as a ``FAIL:`` line on stderr.
    """
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {path}")
    # a key both pin fails both checks with the same message: print it once
    failures = list(dict.fromkeys(check(report, invariants or {})
                                  + check(report, baseline or {})))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if baseline is not None and not failures:
        print(f"gate passed: all {pins(baseline)} baseline pins held")
    return 1 if failures else 0
