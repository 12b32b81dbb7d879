"""Fault plans: seeded, serializable schedules of fault events.

A :class:`FaultPlan` is a list of :class:`FaultEvent`\\ s sorted by
cycle.  Plans are *deterministic*: the same plan against the same
artifact always produces the same run, so every chaos scenario can be
replayed from its seed alone.

Event kinds
-----------
``unit_fail``     a PCU/AG leaf dies at cycle C: its datapath stops
                  responding (ticks become no-ops).  Detected by the
                  liveness watchdog and surfaced as a
                  :class:`~repro.errors.FaultError` naming the unit,
                  its placed sites and the trip cycle.
``link_degrade``  the routes feeding/draining a compute leaf degrade at
                  cycle C: ``extra`` hops of latency are added to its
                  pipeline drain.  Functionally correct, just slower.
``dram_slow``     one DRAM channel's bursts take ``extra`` additional
                  cycles from cycle C on.  Functionally correct.
``dram_corrupt``  one word of one DRAM array is bit-flipped (XOR
                  ``xor_mask``) at cycle C.  Silent at injection time;
                  detected end-to-end by DRAM-image checksums.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.errors import ConfigError

#: recognised fault kinds
KINDS = ("unit_fail", "link_degrade", "dram_slow", "dram_corrupt")

#: kinds that leave results bit-correct (slower, not wrong)
DEGRADE_KINDS = ("link_degrade", "dram_slow")

#: kinds treated as transient by recovery (retry without the event)
TRANSIENT_KINDS = ("dram_corrupt",)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    cycle: int
    kind: str
    #: leaf name (unit_fail / link_degrade)
    unit: str = ""
    #: channel index (dram_slow)
    channel: int = -1
    #: DRAM array name (dram_corrupt)
    array: str = ""
    #: word offset within the array (dram_corrupt)
    word: int = 0
    #: bit-flip mask applied to the word's raw bytes (dram_corrupt)
    xor_mask: int = 1
    #: extra latency in cycles (link_degrade / dram_slow)
    extra: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if self.cycle < 1:
            raise ConfigError(
                f"fault cycle must be >= 1, got {self.cycle}")

    def describe(self) -> str:
        if self.kind == "unit_fail":
            return f"@{self.cycle} unit_fail {self.unit}"
        if self.kind == "link_degrade":
            return (f"@{self.cycle} link_degrade {self.unit} "
                    f"+{self.extra}")
        if self.kind == "dram_slow":
            return (f"@{self.cycle} dram_slow ch{self.channel} "
                    f"+{self.extra}")
        return (f"@{self.cycle} dram_corrupt {self.array}[{self.word}] "
                f"^{self.xor_mask:#x}")

    def to_dict(self) -> dict:
        return {"cycle": self.cycle, "kind": self.kind,
                "unit": self.unit, "channel": self.channel,
                "array": self.array, "word": self.word,
                "xor_mask": self.xor_mask, "extra": self.extra}

    @staticmethod
    def from_dict(data: dict) -> "FaultEvent":
        return FaultEvent(**data)


@dataclass
class FaultPlan:
    """A schedule of fault events (kept sorted by cycle)."""

    events: List[FaultEvent] = field(default_factory=list)
    #: seed the plan was generated from (None for hand-built plans)
    seed: Optional[int] = None

    def __post_init__(self):
        self.events = sorted(self.events,
                             key=lambda e: (e.cycle, e.kind, e.unit,
                                            e.channel, e.array, e.word))

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        head = f"FaultPlan(seed={self.seed}): " if self.seed is not None \
            else "FaultPlan: "
        if not self.events:
            return head + "no events"
        return head + "; ".join(e.describe() for e in self.events)

    def without(self, kinds: Iterable[str]) -> "FaultPlan":
        """A copy with every event of the given kinds dropped
        (recovery: retry without the transient / re-placed faults)."""
        drop = set(kinds)
        return FaultPlan([e for e in self.events if e.kind not in drop],
                         seed=self.seed)

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "events": [e.to_dict() for e in self.events]}

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        return FaultPlan(
            [FaultEvent.from_dict(e) for e in data["events"]],
            seed=data.get("seed"))


def random_plan(seed: int, *, units: Tuple[str, ...] = (),
                arrays: Tuple[Tuple[str, int], ...] = (),
                channels: int = 4, max_cycle: int = 1000,
                max_events: int = 3,
                kinds: Tuple[str, ...] = KINDS) -> FaultPlan:
    """A seeded random plan against one compiled design.

    ``units`` are candidate leaf names (unit_fail / link_degrade),
    ``arrays`` are ``(name, words)`` pairs (dram_corrupt), ``channels``
    the channel count (dram_slow).  Kinds with no candidates are
    skipped; an empty candidate set yields an empty plan.
    """
    rng = random.Random(seed)
    usable = [k for k in kinds
              if (k in ("unit_fail", "link_degrade") and units)
              or (k == "dram_slow" and channels > 0)
              or (k == "dram_corrupt" and arrays)]
    events: List[FaultEvent] = []
    if usable:
        for _ in range(rng.randint(1, max_events)):
            kind = rng.choice(usable)
            cycle = rng.randint(1, max(1, max_cycle))
            if kind in ("unit_fail", "link_degrade"):
                events.append(FaultEvent(
                    cycle=cycle, kind=kind, unit=rng.choice(units),
                    extra=rng.randint(4, 64)))
            elif kind == "dram_slow":
                events.append(FaultEvent(
                    cycle=cycle, kind=kind,
                    channel=rng.randrange(channels),
                    extra=rng.randint(8, 128)))
            else:
                name, words = rng.choice(arrays)
                events.append(FaultEvent(
                    cycle=cycle, kind=kind, array=name,
                    word=rng.randrange(max(1, words)),
                    xor_mask=1 << rng.randrange(31)))
    return FaultPlan(events, seed=seed)
