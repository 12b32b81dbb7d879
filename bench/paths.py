"""Where the benchmark lives, and the one place it may write."""

from __future__ import annotations

import os
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
#: traces, temp caches and server data all go here (git-ignored)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def scratch_dir(prefix: str) -> str:
    """A fresh temporary directory inside the checkout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)
