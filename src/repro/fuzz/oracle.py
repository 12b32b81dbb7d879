"""The three-way differential oracle.

One spec is judged by running its program through every executor the
repo has and demanding agreement:

1. **reference executor** — the functional semantics (ground truth);
2. **bitstream round-trip** — the compiled artifact is serialized to
   canonical bytes and re-loaded through
   :mod:`repro.dhdl.serialize` before any simulation, so the frozen
   compiler->simulator contract itself is under test (content hashes
   must survive the round-trip);
3. **dense simulator** — the cycle-exact reference loop, run from the
   round-tripped artifact;
4. **event simulator** — the wakeup scheduler, run from a *second*
   round-tripped artifact (machines mutate their DRAM image, so each
   leg gets a fresh one).

Agreement means: every program output matches the executor within
float tolerance (exactly, for ints), the dense and event memory images
are bit-identical, and the dense and event ``SimStats`` are equal
field-for-field.

Failures carry a *stage* (where the pipeline broke) and a *detail*
payload; :func:`repro.fuzz.shrink.failure_signature` compresses those
into the equivalence class the shrinker preserves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bitstream.artifact import Bitstream, CompileOptions
from repro.errors import ReproError
from repro.fuzz.generator import build_program, spec_name
from repro.patterns.executor import run_program

#: legitimate float reassociation (vector folds, tree combines) bounds
#: the executor-vs-simulator drift; int outputs must match exactly
RTOL = 1e-3
ATOL = 1e-3

#: compile options used for every fuzz program: small tiles force
#: multi-tile execution even at fuzz sizes
FUZZ_OPTIONS = CompileOptions(tile_words=128, whole_budget=4096)

#: pipeline stages, in order
STAGES = ("build", "execute", "compile", "roundtrip", "sim-dense",
          "sim-event", "compare")


@dataclass
class OracleResult:
    """Outcome of one oracle run."""

    spec: dict
    ok: bool
    stage: str = "compare"
    error: str = ""
    #: machine-readable mismatch descriptions, e.g.
    #: ``["dense-vs-executor:out0", "stats:cycles"]``
    mismatches: List[str] = field(default_factory=list)
    cycles: int = 0

    def describe(self) -> str:
        """One-line human summary."""
        if self.ok:
            return (f"{spec_name(self.spec)}: OK "
                    f"({self.cycles} cycles)")
        what = self.error or "; ".join(self.mismatches)
        return f"{spec_name(self.spec)}: FAIL at {self.stage}: {what}"


def _expected_images(program, names) -> Dict[str, np.ndarray]:
    env = run_program(program)
    return {name: env.buffers[name].copy() for name in names}


def _result_of(machine, array) -> np.ndarray:
    got = np.asarray(machine.result(array))
    return got


def _compare_output(name: str, want: np.ndarray, got: np.ndarray,
                    leg: str, mismatches: List[str]) -> None:
    got = got.reshape(-1)[:want.size].reshape(want.shape)
    if want.dtype.kind == "f":
        close = np.allclose(got, want, rtol=RTOL, atol=ATOL)
    else:
        close = np.array_equal(got, want)
    if not close:
        mismatches.append(f"{leg}:{name}")


def run_oracle(spec: dict, trip_error: bool = False) -> OracleResult:
    """Run one spec through the full differential pipeline.

    ``trip_error=True`` re-raises unexpected (non-:class:`ReproError`)
    exceptions instead of folding them into the result — useful under
    pytest where a traceback beats a one-line summary.
    """
    stage = "build"
    try:
        program, outputs = build_program(spec)
        stage = "execute"
        expected = _expected_images(program, outputs)
        stage = "compile"
        from repro.compiler.artifact import freeze_program
        artifact = freeze_program(program, spec_name(spec), "fuzz",
                                  options=FUZZ_OPTIONS)
        stage = "roundtrip"
        blob = artifact.to_bytes()
        clone_a = Bitstream.from_bytes(blob)
        clone_b = Bitstream.from_bytes(blob)
        result = OracleResult(spec, ok=True)
        if clone_a.content_hash != artifact.content_hash:
            result.ok = False
            result.stage = "roundtrip"
            result.mismatches.append("roundtrip:content_hash")
            return result
        stage = "sim-dense"
        dense = clone_a.machine(scheduler="dense")
        dense_stats = dense.run()
        stage = "sim-event"
        event = clone_b.machine(scheduler="event")
        event_stats = event.run()
        stage = "compare"
        result.cycles = dense_stats.cycles
        for name in outputs:
            _compare_output(name, expected[name],
                            _result_of(dense, name), "dense-vs-executor",
                            result.mismatches)
            _compare_output(name, expected[name],
                            _result_of(event, name), "event-vs-executor",
                            result.mismatches)
        # dense vs event: the full DRAM memory image, bit-exact
        for array in clone_a.dhdl.drams:
            a = _result_of(dense, array.name)
            b = _result_of(event, array.name)
            if not np.array_equal(a, b):
                result.mismatches.append(f"dense-vs-event:{array.name}")
        sd = dataclasses.asdict(dense_stats)
        se = dataclasses.asdict(event_stats)
        for key in sd:
            if sd[key] != se[key]:
                result.mismatches.append(f"stats:{key}")
        if result.mismatches:
            result.ok = False
            result.stage = "compare"
        return result
    except ReproError as err:
        return OracleResult(spec, ok=False, stage=stage,
                            error=f"{type(err).__name__}: {err}")
    except Exception as err:  # noqa: BLE001 — a crasher IS a finding
        if trip_error:
            raise
        return OracleResult(spec, ok=False, stage=stage,
                            error=f"{type(err).__name__}: {err}")


#: timing-override variants every batched-oracle run simulates: the
#: as-compiled design plus shallow pipelines, re-banked scratchpads and
#: a throttled DRAM queue — the axes most likely to reorder events
BATCH_VARIANTS = ({}, {"stages": 3}, {"stages": 9, "banks": 8},
                  {"dram_queue_depth": 4})


def run_oracle_batched(spec: dict, variants=BATCH_VARIANTS,
                       trip_error: bool = False) -> OracleResult:
    """Pin ``run_batch`` against sequential runs on one spec.

    Each variant is simulated twice from the same frozen artifact: once
    inside one batched pass (leader + log-replaying followers) and once
    as a plain sequential :meth:`Machine.run` built through the same
    :func:`repro.sim.batch.instantiate` helper.  Agreement is bit-exact:
    every ``SimStats`` field and the full DRAM memory image per variant.
    """
    from repro.sim.batch import instantiate, run_batch
    stage = "build"
    try:
        program, _ = build_program(spec)
        stage = "compile"
        from repro.compiler.artifact import freeze_program
        artifact = freeze_program(program, spec_name(spec), "fuzz",
                                  options=FUZZ_OPTIONS)
        stage = "sim-batch"
        batch = run_batch(artifact, list(variants))
        stage = "sim-sequential"
        result = OracleResult(spec, ok=True)
        for i, overrides in enumerate(variants):
            solo = instantiate(artifact, overrides)
            try:
                solo_stats = solo.run()
                solo_error = None
            except ReproError as err:
                solo_stats = None
                solo_error = f"{type(err).__name__}: {err}"
            twin = batch[i]
            if (twin.error is None) != (solo_error is None):
                result.mismatches.append(
                    f"batch-vs-solo[{i}]:outcome "
                    f"({twin.error!r} vs {solo_error!r})")
                continue
            if solo_error is not None:
                if twin.error != solo_error:
                    result.mismatches.append(
                        f"batch-vs-solo[{i}]:error-text")
                continue
            result.cycles += solo_stats.cycles
            if not solo_stats.same_as(twin.stats):
                diverged = [k for k, v in solo_stats.as_dict().items()
                            if twin.stats.as_dict()[k] != v]
                result.mismatches.append(
                    f"batch-vs-solo[{i}]:stats:{','.join(diverged)}")
            for name, buf in solo.image.buffers.items():
                if not np.array_equal(
                        buf, twin.machine.image.buffers[name]):
                    result.mismatches.append(
                        f"batch-vs-solo[{i}]:dram:{name}")
        if result.mismatches:
            result.ok = False
            result.stage = "compare-batch"
        return result
    except ReproError as err:
        return OracleResult(spec, ok=False, stage=stage,
                            error=f"{type(err).__name__}: {err}")
    except Exception as err:  # noqa: BLE001 — a crasher IS a finding
        if trip_error:
            raise
        return OracleResult(spec, ok=False, stage=stage,
                            error=f"{type(err).__name__}: {err}")
