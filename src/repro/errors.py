"""Exception hierarchy for the Plasticine reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish library failures from programming errors in user code.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class UnknownAppError(ReproError, KeyError):
    """No benchmark of that name in the registry.

    Also a :class:`KeyError` — what the failed lookup raised before it
    was typed — so ``except KeyError`` callers keep working.
    """

    #: KeyError's own ``__str__`` would ``repr()`` the message
    __str__ = Exception.__str__


class PatternError(ReproError):
    """Malformed parallel pattern (bad domain, bad function arity, ...)."""


class TraceError(PatternError):
    """A user function could not be traced into the symbolic expression IR."""


class IRError(ReproError):
    """Malformed DHDL IR (dangling references, invalid nesting, ...)."""


class LoweringError(ReproError):
    """Pattern-to-DHDL lowering failed."""


class MappingError(ReproError):
    """The compiler could not map a design onto the fabric.

    Raised by partitioning (virtual unit does not fit any physical unit
    shape), placement (not enough units), or routing (link capacity
    exhausted).
    """


class ConfigError(ReproError):
    """Invalid or inconsistent unit configuration ("bitstream")."""


class SimulationError(ReproError):
    """The cycle-level simulator reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No unit made progress for the configured watchdog interval."""


class ReplayError(SimulationError):
    """A batch follower disagreed with its leader's log: it ran out of
    logged activations, or evaluated inputs the leader did not."""


class DramProtocolError(SimulationError):
    """A DRAM command violated DDR3 timing or state rules."""


class FaultError(SimulationError):
    """An injected (or detected) hardware fault surfaced during a run.

    Carries enough context to attribute the failure: the cycle at which
    the fault fired (or was detected), the unit / resource it hit, the
    fault kind, and — for multi-tenant runs — the tenant and its region.
    """

    def __init__(self, message: str, *,
                 cycle=None, unit=None, sites=None, kind=None,
                 tenant=None, region=None, detail=None):
        super().__init__(message)
        #: cycle the fault event fired at (None if unknown)
        self.cycle = cycle
        #: name of the affected unit / channel / array
        self.unit = unit
        #: grid sites ((col, row) tuples) of the affected unit, if known
        self.sites = tuple(sites) if sites else ()
        #: one of repro.faults.plan.KINDS
        self.kind = kind
        #: tenant name for multi-tenant runs (None solo)
        self.tenant = tenant
        #: (col0, row0, cols, rows) region of the affected tenant
        self.region = tuple(region) if region else None
        #: free-form context (stall attribution, checksum mismatches...)
        self.detail = detail

    def attribution(self) -> dict:
        """Structured attribution for reports and chaos logs."""
        return {"cycle": self.cycle, "unit": self.unit,
                "sites": [list(s) for s in self.sites],
                "kind": self.kind, "tenant": self.tenant,
                "region": list(self.region) if self.region else None,
                "detail": self.detail}


class ArchError(ReproError):
    """Invalid architecture parameters (out of Table 3 ranges, ...)."""
