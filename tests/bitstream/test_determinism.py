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

GOLDEN_TINY = {
    "innerproduct": "4667609ecde274127c99d63fe1fc54fb"
                    "f418dcdfcab2ef3c43939841919b02ea",
    "outerproduct": "87ebd1774d42292a0df64843129a40c9"
                    "3681c5a298315059b3e7b465f5b9cae7",
    "blackscholes": "6e83f8ba8049b88a8b60af6381949d18"
                    "54b4ce65f42f9126a3141d69ccde0c94",
    "tpchq6": "bd972434d4a10f55313c76259b4d12bf"
              "9915f88dfe0dd20d468645815dfa0eb7",
    "gemm": "2c01a8a707294c92d0e7856482ea35cf"
            "d26cd1b9fcd2f596cb53a7514230ece6",
    "gda": "43d69c15313e66e3238eb5af36226d50"
           "13413a9a08c671ce2bc796425a9c475c",
    "logreg": "bbf24a463e770d1643deb2bf4d2dc13a"
              "67f77715c08f398f446fa1884a87b1c6",
    "sgd": "985f51b325fb255844edcce530f1c012"
           "3dbf531d30b2cc24c9799de2a5320a33",
    "kmeans": "48c653c46a65f1dbdcd5551169e78d2a"
              "ee340b6b61fe436e83400738c549a600",
    "cnn": "cc119cff63d602d00ab45e969dd8b4b6"
           "4dda026a69bdc3a64899089574785835",
    "smdv": "b8f5a3e4f9887aef4f3e3a5f79305477"
            "96ee434d378deb12c44ae01fa281405b",
    "pagerank": "fc4154783b90d8c666b433a9acb4fbd0"
                "6abdffd2ad7d29bc414180eab54a2cfe",
    "bfs": "8e9855f28e72d663eadbfa1213825333"
           "77aef199752f0f9dcb4bb60999e08225",
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
