"""Memory requests flowing between the fabric and the DRAM model."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

_ids = itertools.count()


@dataclass(eq=False)
class DramRequest:
    """One 64-byte burst transaction.

    ``tag`` is an opaque handle the issuer uses to match completions
    (e.g. which gather element this burst serves).

    Requests compare by identity: ``req_id`` is unique, so field
    equality could say nothing else, and the channel queue's
    ``remove`` must not run a nine-field comparison against every
    older entry.
    """

    byte_addr: int
    is_write: bool = False
    tag: object = None
    req_id: int = field(default_factory=lambda: next(_ids))
    arrival_cycle: int = 0
    complete_cycle: Optional[int] = None
    #: tenant that issued the burst (stamped by the DramModel at submit
    #: time; None outside multi-tenant runs).  Drives per-tenant
    #: bandwidth accounting and interference attribution.
    tenant: Optional[int] = None
    #: bank and row within the owning channel, decoded from
    #: ``byte_addr`` once at submit so the scheduler's queue scans
    #: never re-derive them (-1 until submitted)
    bank: int = -1
    row: int = -1

    @property
    def done(self) -> bool:
        """True once the model has scheduled the data transfer."""
        return self.complete_cycle is not None

    def __repr__(self):
        kind = "W" if self.is_write else "R"
        return f"DramRequest({kind}@{self.byte_addr:#x}, id={self.req_id})"
