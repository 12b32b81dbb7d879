"""CompileCache under concurrent multi-process writers.

The serving tier points every pool worker at one shared cache
directory, so identical compile keys race: each writer must land a
valid entry (unique temp name + atomic rename; canonical bytes make
"last writer wins" indistinguishable from "first writer wins") and
count its own store exactly once.
"""

import json
import multiprocessing

import pytest

from repro.bitstream import Bitstream, CompileCache
from repro.compiler.artifact import freeze_program
from repro.fuzz.generator import build_program

SPEC = {"version": 1, "seed": 5, "n": 48,
        "steps": [{"kind": "map", "reads": 1, "depth": 1,
                   "expr_seed": 3, "data_seed": 4, "par": 4}]}


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    program, _ = build_program(SPEC)
    art = freeze_program(program, "cache-race", "tiny")
    path = tmp_path_factory.mktemp("art") / "artifact.json"
    art.save(path)
    return path


def _hammer(task):
    """Worker: load the artifact and put it repeatedly into one cache."""
    artifact_path, cache_dir, rounds = task
    art = Bitstream.load(artifact_path)
    cache = CompileCache(cache_dir)
    for _ in range(rounds):
        cache.put(art)
    return cache.stats.stores


def test_racing_puts_of_one_key_all_succeed(artifact, tmp_path):
    cache_dir = tmp_path / "cache"
    rounds, workers = 25, 4
    tasks = [(str(artifact), str(cache_dir), rounds)] * workers
    with multiprocessing.Pool(workers) as pool:
        stores = pool.map(_hammer, tasks)
    # every put counted once, no writer crashed on a racing rename
    assert stores == [rounds] * workers
    cache = CompileCache(cache_dir)
    assert cache.entries() == 1
    art = Bitstream.load(artifact)
    got = cache.get(art.key)
    assert got is not None and got.content_hash == art.content_hash
    # no temp-file litter left behind by any racer
    leftovers = [p for p in cache.dir.rglob("*.tmp")]
    assert leftovers == []


def _recover(task):
    """Worker: rendezvous on a barrier, then hit the corrupt entry.

    Every worker calls ``get`` at (as close as the OS allows) the same
    instant, so several of them observe the corrupt bytes and race to
    unlink the entry.  Returns what happened, or the exception that
    escaped — the parent asserts none did.
    """
    artifact_path, cache_dir, barrier = task
    art = Bitstream.load(artifact_path)
    cache = CompileCache(cache_dir)
    barrier.wait(timeout=30)
    try:
        got = cache.get(art.key)
    except Exception as err:  # noqa: BLE001 — the test wants the type
        return f"raised {type(err).__name__}: {err}"
    if got is not None:
        return "returned an artifact from corrupt bytes"
    return ("corrupt" if cache.stats.corrupt else "miss")


def test_concurrent_corrupt_entry_recovery(artifact, tmp_path):
    """Two+ processes recovering one corrupt entry must not surface
    ``FileNotFoundError``: the loser of the unlink race swallows it and
    reports a plain miss/corrupt outcome."""
    cache_dir = tmp_path / "cache"
    art = Bitstream.load(artifact)
    cache = CompileCache(cache_dir)
    path = cache.put(art)
    path.write_bytes(b'{"truncated": ')  # a torn write
    workers = 4
    with multiprocessing.Manager() as manager:
        barrier = manager.Barrier(workers)
        tasks = [(str(artifact), str(cache_dir), barrier)] * workers
        with multiprocessing.Pool(workers) as pool:
            outcomes = pool.map(_recover, tasks)
    # nobody raised and nobody decoded garbage; at least one worker saw
    # (and dropped) the corrupt entry
    assert all(o in ("corrupt", "miss") for o in outcomes), outcomes
    assert "corrupt" in outcomes
    assert not path.exists()
    # the slot is immediately rewritable and serves clean afterwards
    cache2 = CompileCache(cache_dir)
    cache2.put(art)
    got = cache2.get(art.key)
    assert got is not None and got.content_hash == art.content_hash


def test_save_is_atomic_and_litter_free(artifact, tmp_path):
    art = Bitstream.load(artifact)
    out = tmp_path / "deep" / "nested" / "a.json"
    art.save(out)
    art.save(out)  # overwrite in place is fine
    assert json.loads(out.read_text())["app"] == "cache-race"
    assert list(out.parent.glob("*.tmp")) == []
