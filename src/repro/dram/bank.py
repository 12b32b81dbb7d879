"""DRAM bank state machine: open row tracking and timing enforcement."""

from __future__ import annotations

from typing import Optional

from repro.dram.timing import DdrTiming
from repro.errors import DramProtocolError


class Bank:
    """One DRAM bank: at most one open row, busy windows between commands.

    ``issue`` commits the bank to servicing one column access, enforcing
    tRCD/tRP/tRAS windows.  Time is the caller's monotonically
    non-decreasing cycle.
    """

    def __init__(self, timing: DdrTiming):
        self.timing = timing
        self.open_row: Optional[int] = None
        #: cycle until which the bank's command machinery is busy
        self.ready_at: int = 0
        #: cycle the current row was activated (for tRAS)
        self.activated_at: int = 0
        self.hits = 0
        self.misses = 0
        self.empties = 0

    def issue(self, row: int, now: int, is_write: bool) -> int:
        """Commit a column access to ``row``; returns completion cycle."""
        if now < 0:
            raise DramProtocolError("negative cycle")
        start = max(now, self.ready_at)
        timing = self.timing
        if self.open_row == row:
            self.hits += 1
            done = start + timing.row_hit_latency
            busy = start + timing.t_ccd
        elif self.open_row is None:
            self.empties += 1
            self.activated_at = start
            done = start + timing.row_empty_latency
            busy = start + timing.t_rcd + timing.t_ccd
        else:
            self.misses += 1
            earliest_pre = max(start, self.activated_at + timing.t_ras)
            self.activated_at = earliest_pre + timing.t_rp
            done = earliest_pre + timing.row_miss_latency
            busy = self.activated_at + timing.t_rcd + timing.t_ccd
        if is_write:
            busy += timing.t_wr - timing.t_ccd
        self.open_row = row
        self.ready_at = busy
        return done

    def __repr__(self):
        return f"Bank(open_row={self.open_row}, ready_at={self.ready_at})"
