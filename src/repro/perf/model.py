"""Analytical Plasticine performance model for paper-scale datasets.

The cycle-level simulator validates mappings on scaled-down data; the
paper's Table 7 runs datasets up to 768 M elements, which no Python
simulator can step through cycle by cycle.  Steady-state throughput of
every benchmark is linear in its iteration count, so we extrapolate with
a roofline-style model whose terms mirror the simulator's mechanisms:

* **compute** — utilized FLOPs/cycle = lanes x pipeline stages in use x
  duplicated inner controllers, capped at the chip peak;
* **streaming** — dense traffic at the DDR3 peak times a calibrated
  efficiency;
* **random** — gathers/scatters limited by the tFAW activation budget
  of the memory record (``faw_activates`` row activations per ``t_faw``
  cycles per channel: 16 per 30 ns across 4 channels), multiplied by the
  useful words each burst carries after coalescing;
* **sequential** — pipeline fill/drain per dependent outer iteration.

Every constant is either a hardware parameter from
:mod:`repro.arch.params` or an explicitly documented calibration knob.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.params import DEFAULT, PlasticineParams
from repro.arch.workload import WorkloadProfile


@dataclass(frozen=True)
class PerfKnobs:
    """Calibration knobs for the analytical model."""

    #: fraction of the DDR3 peak dense streams achieve (row-hit heavy)
    stream_efficiency: float = 0.82
    #: average useful 4-byte words per random burst after coalescing
    coalesce_words: float = 1.6
    #: fraction of configured FUs doing useful work in the steady state
    compute_efficiency: float = 0.85
    #: pipeline fill/drain cycles charged per sequential outer iteration
    seq_overhead_cycles: int = 40


DEFAULT_KNOBS = PerfKnobs()


def random_access_gbps(params: PlasticineParams = DEFAULT,
                       knobs: PerfKnobs = DEFAULT_KNOBS) -> float:
    """Useful random-access bandwidth (GB/s) through the coalescers."""
    dram = params.dram
    bursts_per_ns = (dram.channels * dram.faw_activates
                     / (dram.t_faw / params.clock_ghz))
    return bursts_per_ns * knobs.coalesce_words * 4.0


def _roofs(profile: WorkloadProfile, params: PlasticineParams,
           knobs: PerfKnobs) -> "dict[str, float]":
    """Seconds each roof takes for one workload, per-app overrides
    applied: ``compute``, ``stream``, ``random`` and ``sequential``."""
    clock_hz = params.clock_ghz * 1e9

    # compute roof: lanes x pipeline x outer duplication, chip capped
    peak_per_cycle = params.num_pcus * params.pcu.fus
    if profile.plasticine_parallelism is not None:
        exploited = profile.plasticine_parallelism
    else:
        exploited = (profile.inner_parallelism
                     * max(1, min(profile.pipeline_ops,
                                  params.pcu.stages * 16))
                     * profile.outer_parallelism)
    per_cycle = min(peak_per_cycle,
                    exploited) * knobs.compute_efficiency

    # memory roofs
    if profile.plasticine_coalesce_words is not None:
        knobs = replace(knobs,
                        coalesce_words=profile.plasticine_coalesce_words)
    return {
        "compute": profile.flops / (per_cycle * clock_hz),
        "stream": profile.stream_bytes / (params.dram.peak_gbps * 1e9
                                          * knobs.stream_efficiency),
        "random": (4.0 * profile.random_accesses
                   / (random_access_gbps(params, knobs) * 1e9)),
        "sequential": (profile.sequential_iters
                       * knobs.seq_overhead_cycles) / clock_hz,
    }


def plasticine_runtime_s(profile: WorkloadProfile,
                         params: PlasticineParams = DEFAULT,
                         knobs: PerfKnobs = DEFAULT_KNOBS) -> float:
    """Estimated Plasticine runtime in seconds for one workload."""
    roofs = _roofs(profile, params, knobs)
    return (max(roofs["compute"], roofs["stream"] + roofs["random"])
            + roofs["sequential"])


def bound_of(profile: WorkloadProfile,
             params: PlasticineParams = DEFAULT,
             knobs: PerfKnobs = DEFAULT_KNOBS) -> str:
    """Which roof binds this workload on Plasticine."""
    roofs = _roofs(profile, params, knobs)
    return max(("compute", "stream", "random"), key=roofs.get)
