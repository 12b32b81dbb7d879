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

#: pinned at schema 3, which records every unit's grid sites (the
#: compute leaves' PCU sites as well as the scratchpads' PMU sites)
GOLDEN_TINY = {
    "innerproduct": "41942fcb4717beafa8abfae2481cc586"
                    "15a1a1525b0fc243b66162b67f023791",
    "outerproduct": "d383658311605b2c40e3bba874903b02"
                    "5ef2553855b0a9d54d67c72c0fa985a5",
    "blackscholes": "ec21dd940fb07233267754d5995ac367"
                    "01ed7d4c01c7d3bd6b3e97600eada873",
    "tpchq6": "617dc7da008ca6060b62a1c7ee4a8f18"
              "bb00ce1fe316420fd1374bae2a220e18",
    "gemm": "4e4e1a3626377c72535d5c2ae5b71920"
            "10bae0a28ac0bff39a553a487e8cb66e",
    "gda": "ec4056d3fa887b8c80021542a1b82532"
           "19e59610de738196b5226db81d6a64fa",
    "logreg": "1343c12327c66b27a5817611986a7939"
              "f99b113f808e01e1de740a169ef8bff0",
    "sgd": "3999afc8137f1a4eeb5499d3f5ecafcc"
           "6c182290b44b601122c7c9e7139dd8c4",
    "kmeans": "d8853a94ee2340ac2e2e54ff2e9b32e7"
              "5ed216f05c9506bdc9839354021e442a",
    "cnn": "5f3dcf54bb8c7761a0b508562398953a"
           "4cfa2a5727362e34d85efc4e6140b27b",
    "smdv": "6b1df097efb6f1c76b514606caab253d"
            "e697a2ef185039b5d32ba890b5890f03",
    "pagerank": "3a386c527414d01931cffd74496d6ade"
                "be44b5e29c2ec45126c0b54e2ec932a2",
    "bfs": "0d259303cee9ecd9241bb649bb189b94"
           "f6b3084ad3cfe57873ae26e3024e78ad",
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
