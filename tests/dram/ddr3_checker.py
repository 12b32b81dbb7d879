"""A DDR3 command log and timing-legality checker (test-only).

:func:`command_log` records every request each channel's FR-FCFS
scheduler issues, while it is open: the cycle the scheduler decided,
the bank and row, the commands the bank then performs — precharge (a
row miss), activate (a miss or an empty bank), column — the cycle the
data transfer completes, the direction and the address.  The command
cycles are derived from the bank's state just before ``Bank.issue``,
the way the bank derives them, so the log is what the model did, not
what it was asked to do.

:func:`violations` holds one channel's log to the DDR3 rules the model
claims (``repro.dram.timing``): tRCD, tRP and tRAS per bank, tCCD
between a bank's column commands and between any two of the rank's (a
channel is one rank), one burst per data-bus slot, and tFAW — at most
``faw_activates`` activates in any ``t_faw`` window.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional

from repro.dram.bank import Bank
from repro.dram.channel import Channel

#: every rule :func:`violations` checks
RULES = ("tRCD", "tRP", "tRAS", "tCCD", "tCCD_rank", "bus", "tFAW")


class Command(NamedTuple):
    """One issued request, as the channel and its bank carried it out."""

    decide: int
    bank: int
    row: int
    #: the cycle the open row was closed (a row miss), else None
    precharge: Optional[int]
    #: the cycle the row was opened (None: a row hit)
    activate: Optional[int]
    column: int
    complete: int
    write: bool
    addr: int


class CommandLog:
    """Issued commands, per channel object, in issue order."""

    def __init__(self):
        self._by_channel: Dict[Channel, List[Command]] = {}
        #: (precharge, activate, column) of the bank issue in progress
        self._pending = None

    def commands(self, dram) -> List[List[Command]]:
        """The log of each of ``dram``'s channels, by channel index."""
        return [list(self._by_channel.get(channel, ()))
                for channel in dram.channels]


@contextmanager
def command_log():
    """Record every channel's issued commands while the block runs."""
    log = CommandLog()
    issue, tick = Bank.issue, Channel.tick

    def logged_issue(bank, row, now, is_write):
        timing = bank.timing
        start = max(now, bank.ready_at)
        precharge = activate = None
        if bank.open_row == row:
            column = start
        elif bank.open_row is None:
            activate = start
            column = start + timing.t_rcd
        else:
            precharge = max(start, bank.activated_at + timing.t_ras)
            activate = precharge + timing.t_rp
            column = activate + timing.t_rcd
        log._pending = (precharge, activate, column)
        return issue(bank, row, now, is_write)

    def logged_tick(channel, now):
        request = tick(channel, now)
        if request is not None:
            precharge, activate, column = log._pending
            log._by_channel.setdefault(channel, []).append(Command(
                now, request.bank, request.row, precharge, activate,
                column, request.complete_cycle, request.is_write,
                request.byte_addr))
        return request

    Bank.issue, Channel.tick = logged_issue, logged_tick
    try:
        yield log
    finally:
        Bank.issue, Channel.tick = issue, tick


def violations(commands: List[Command], timing) -> Dict[str, List]:
    """Per rule of :data:`RULES`, what in one channel's log breaks it
    (empty lists: the log is legal)."""
    found: Dict[str, List] = {rule: [] for rule in RULES}
    #: bank -> (its last activate, its last column command)
    last: Dict[int, tuple] = {}
    for command in commands:
        activated, column = last.get(command.bank, (None, None))
        if (command.activate is not None
                and command.column - command.activate < timing.t_rcd):
            found["tRCD"].append(command)
        if command.precharge is not None:
            if command.activate - command.precharge < timing.t_rp:
                found["tRP"].append(command)
            if (activated is None
                    or command.precharge - activated < timing.t_ras):
                found["tRAS"].append(command)
        if column is not None and command.column - column < timing.t_ccd:
            found["tCCD"].append(command)
        last[command.bank] = (
            activated if command.activate is None else command.activate,
            command.column)
    columns = sorted(command.column for command in commands)
    found["tCCD_rank"] = [(a, b) for a, b in zip(columns, columns[1:])
                          if b - a < timing.t_ccd]
    slots = sorted(command.complete for command in commands)
    found["bus"] = [(a, b) for a, b in zip(slots, slots[1:])
                    if b - a < timing.t_burst]
    activates = sorted(command.activate for command in commands
                       if command.activate is not None)
    window = timing.faw_activates
    found["tFAW"] = [activates[k:k + window + 1]
                     for k in range(len(activates) - window)
                     if activates[k + window] - activates[k] < timing.t_faw]
    return found
