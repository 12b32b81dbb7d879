"""Memory requests flowing between the fabric and the DRAM model."""

from __future__ import annotations

import itertools

_ids = itertools.count()


class DramRequest:
    """One 64-byte burst transaction.

    ``tag`` is an opaque handle the issuer uses to match completions
    (e.g. which gather element this burst serves); ``callback``, set by
    ``DramModel.submit``, is called with the request once its data has
    transferred.  ``issuer``, when set, hears the cycle the request will
    complete at as its channel issues it (``issuer.note_issue``).

    Requests compare by identity: ``req_id`` is unique, so field
    equality could say nothing else, and the channel queue's
    ``remove`` must not compare fields against every older entry.
    """

    __slots__ = ("byte_addr", "is_write", "tag", "req_id", "arrival_cycle",
                 "complete_cycle", "tenant", "bank", "row", "callback",
                 "issuer")

    def __init__(self, byte_addr: int, is_write: bool = False,
                 tag: object = None, bank: int = -1, row: int = -1):
        self.byte_addr = byte_addr
        self.is_write = is_write
        self.tag = tag
        self.req_id = next(_ids)
        self.arrival_cycle = 0
        #: set when the channel scheduler issues the burst
        self.complete_cycle = None
        #: tenant that issued the burst (stamped by the DramModel at
        #: submit time; None outside multi-tenant runs).  Drives
        #: per-tenant bandwidth accounting and interference attribution.
        self.tenant = None
        #: bank and row within the owning channel: decoded from
        #: ``byte_addr`` once, by the issuer or at submit, so the
        #: scheduler's queue scans never re-derive them (-1: not yet)
        self.bank = bank
        self.row = row
        self.callback = None
        self.issuer = None

    @property
    def done(self) -> bool:
        """True once the model has scheduled the data transfer."""
        return self.complete_cycle is not None

    def __repr__(self):
        kind = "W" if self.is_write else "R"
        return f"DramRequest({kind}@{self.byte_addr:#x}, id={self.req_id})"
