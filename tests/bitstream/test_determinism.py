"""Golden determinism: compilation is a pure function of its inputs.

Artifacts are canonical JSON produced by traversing only *ordered*
containers, so the same (app, scale, params, options) must yield
byte-identical bitstreams in any process — regardless of
``PYTHONHASHSEED``, dict insertion history, or anything else ambient.
The golden hashes below pin that property per registry app; a diff
here means the compiler's output changed and the schema/cache story
needs a deliberate decision (bump ``SCHEMA_VERSION`` or accept the new
hashes).

Regenerate after an intentional compiler change with::

    PYTHONPATH=src python -c "
    from repro.apps import ALL_APPS
    from repro.compiler.artifact import compile_to_bitstream
    for a in ALL_APPS:
        b = compile_to_bitstream(a.name, 'tiny')
        print(f'    \"{a.name}\": \"{b.content_hash}\",')"
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.compiler.artifact import compile_to_bitstream

#: pinned at schema 4, whose params carry the whole memory record
#: (geometry, queue depth and DDR3 timings in one ``DramParams``)
GOLDEN_TINY = {
    "innerproduct": "caa269db00e3daeb02ea6e887bd82fe5"
                    "6b96e6674445c346dd946aa731bfc5cb",
    "outerproduct": "934d92d19b97f9d05216097baddf0dac"
                    "dbdc8a954d17024e6beef66dbae28ef4",
    "blackscholes": "71e5ac2cabbf0b575378b7f9956568a2"
                    "2a35de369416538c16997f7dc097d53e",
    "tpchq6": "b4600e04ce9cee211b7db5c06774d52f"
              "8342886f5480c31cc193ed18d106892c",
    "gemm": "28dc84f5916593bbffdf1f422235b8e7"
            "9b12980c856d53a444436ce8b2d79936",
    "gda": "3afb52f29f7f69676d6e8ba1b4fb0397"
           "c8c0900935f2b23f8b6538e9bade4b00",
    "logreg": "70b6ee0836a80f3ecc99ac320a05151b"
              "4daa6ee9ce02e98b4591e2890660eaf7",
    "sgd": "0626a844a756e76b7ed7fcd7d2518564"
           "abc35380f99f3f847ad1ede798ee9b0a",
    "kmeans": "bd746f429d826f3e50eae73d937a9ed5"
              "ef9c3095b1ca631a2e930fa7c4fe1220",
    "cnn": "8493aa617458e66c22203797804b3273"
           "708cea489554445be1dae6aa584927c5",
    "smdv": "ed1bc0b42a90fbfbaa5f6f1c3f5d1702"
            "4b66222504fae023450ef7057aace960",
    "pagerank": "f3a5efe777e23c15649d5a820c74e488"
                "6d16c50382ef1a14c7dfed674f7ee0ad",
    "bfs": "300022d44f89dba515b2ca45e5805c6e"
           "a3b7051603ae240f80e3af64bf2ae578",
}


def test_golden_covers_every_registry_app():
    assert set(GOLDEN_TINY) == {a.name for a in ALL_APPS}


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_content_hash_pinned(app):
    artifact = compile_to_bitstream(app.name, "tiny")
    assert artifact.content_hash == GOLDEN_TINY[app.name], (
        f"{app.name} artifact bytes changed — see the module docstring "
        "for the regeneration recipe")


_SNIPPET = ("import sys\n"
            "from repro.compiler.artifact import compile_to_bitstream\n"
            "sys.stdout.write("
            "compile_to_bitstream('kmeans', 'tiny').content_hash)\n")


def test_fresh_processes_agree_bytewise():
    """Two interpreters with different hash seeds produce the same
    artifact — the golden test's premise, checked explicitly."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    hashes = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", _SNIPPET],
                              env=env, capture_output=True, text=True,
                              check=True)
        hashes.append(proc.stdout.strip())
    assert hashes[0] == hashes[1] == GOLDEN_TINY["kmeans"]
