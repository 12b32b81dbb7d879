"""Structural validation of program specs, with field-level errors.

One spec schema is shared by two front doors: the fuzz harness
(:mod:`repro.fuzz.generator` replays corpus entries and shrink
candidates) and the serving tier (:mod:`repro.serve` accepts specs over
HTTP from arbitrary clients).  Both want the same property — a malformed
spec must fail *at the boundary* with a message that names the offending
field, not three layers deep in the compiler with a stack trace about
counter chains.

:func:`validate_spec` walks the spec against a declarative per-kind
field table and returns every problem found as a :class:`SpecError`
carrying a JSON-path-style location (``steps[2].par``).
:func:`check_spec` raises :class:`InvalidSpecError` (a
:class:`~repro.errors.PatternError`, so the shrinker and oracle treat a
rejected candidate exactly like any other non-building spec), and the
service maps the same error list onto a structured 400 response.

Bounds are deliberately wider than the generator's own ranges — every
spec the generator or shrinker can produce passes — but tight enough
that a service client cannot request an unbounded simulation (``n``,
step counts, and parallelism are all capped).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isfinite
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import PatternError

#: schema version this validator understands (mirrors
#: ``repro.fuzz.generator.SPEC_VERSION``; imported there to stay in sync)
SPEC_VERSION = 1

#: hard caps a submitted spec may not exceed (service DoS guard)
MAX_N = 4096
MAX_STEPS = 8
MAX_DIM = 4096
MAX_PAR = 64
MAX_SEED = 2 ** 63 - 1


@dataclass(frozen=True)
class SpecError:
    """One problem at one location inside a spec."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"

    def to_dict(self) -> Dict[str, str]:
        return {"path": self.path, "message": self.message}


class InvalidSpecError(PatternError):
    """A spec failed validation; ``errors`` lists every finding."""

    def __init__(self, errors: List[SpecError]):
        self.errors = list(errors)
        shown = "; ".join(str(e) for e in self.errors[:4])
        if len(self.errors) > 4:
            shown += f" (+{len(self.errors) - 4} more)"
        super().__init__(f"invalid program spec: {shown}")


# ---------------------------------------------------------------------------
# Field checkers
# ---------------------------------------------------------------------------

Checker = Callable[[Any], str]  # returns "" when valid


def _int(lo: int, hi: int) -> Checker:
    def check(value):
        if isinstance(value, bool) or not isinstance(value, int):
            return f"expected an integer, got {type(value).__name__}"
        if not lo <= value <= hi:
            return f"expected an integer in [{lo}, {hi}], got {value}"
        return ""
    return check


def _number(lo: float, hi: float) -> Checker:
    def check(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"expected a number, got {type(value).__name__}"
        if not isfinite(value) or not lo <= value <= hi:
            return f"expected a finite number in [{lo}, {hi}], got {value}"
        return ""
    return check


def _bool(value) -> str:
    if not isinstance(value, bool):
        return f"expected a boolean, got {type(value).__name__}"
    return ""


def _choice(*allowed: str) -> Checker:
    def check(value):
        if value not in allowed:
            return f"expected one of {sorted(allowed)}, got {value!r}"
        return ""
    return check


def _tile(value) -> str:
    if value is None:
        return ""
    if (not isinstance(value, list) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, int)
                   or v < 1 for v in value)):
        return "expected null or a pair of positive integers"
    return ""


def _par_pair(value) -> str:
    if (not isinstance(value, list) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, int)
                   or not 1 <= v <= MAX_PAR for v in value)):
        return f"expected a pair of integers in [1, {MAX_PAR}]"
    return ""


_seed = _int(0, MAX_SEED)
_depth = _int(0, 8)
_par = _int(1, MAX_PAR)
_dim = _int(1, MAX_DIM)

#: per-kind field tables: name -> (checker, required)
_STEP_FIELDS: Dict[str, Dict[str, Tuple[Checker, bool]]] = {
    "map": {"reads": (_int(1, 8), True), "depth": (_depth, True),
            "expr_seed": (_seed, True), "data_seed": (_seed, True),
            "par": (_par, True)},
    "map2d": {"rows": (_dim, True), "cols": (_dim, True),
              "tile": (_tile, False), "par": (_par_pair, True),
              "depth": (_depth, True), "expr_seed": (_seed, True),
              "data_seed": (_seed, True)},
    "fold": {"combine": (_choice("sum", "max", "min"), True),
             "depth": (_depth, True), "expr_seed": (_seed, True),
             "data_seed": (_seed, True), "par": (_par, True),
             "outer": (_int(1, 8), True)},
    "map_fold": {"rows": (_dim, True), "cols": (_dim, True),
                 "inner_par": (_par, True), "depth": (_depth, True),
                 "expr_seed": (_seed, True), "data_seed": (_seed, True)},
    "segfold": {"rows": (_dim, True), "mean_seg": (_int(1, 64), True),
                "depth": (_depth, True), "expr_seed": (_seed, True),
                "data_seed": (_seed, True)},
    "filter": {"threshold": (_number(-1e6, 1e6), True),
               "par": (_par, True), "consume": (_bool, False),
               "data_seed": (_seed, True)},
    "hash_reduce": {"bins": (_int(1, 1024), True),
                    "stride": (_int(1, MAX_DIM), True),
                    "offset": (_int(0, MAX_DIM), True),
                    "depth": (_depth, True), "expr_seed": (_seed, True),
                    "data_seed": (_seed, True), "par": (_par, True)},
    "scatter": {"m": (_dim, True), "stride": (_int(1, MAX_DIM), True),
                "offset": (_int(0, MAX_DIM), True),
                "depth": (_depth, True), "expr_seed": (_seed, True),
                "data_seed": (_seed, True)},
    "loop": {"trip": (_int(1, 64), True),
             "decay": (_number(-10.0, 10.0), True), "par": (_par, True),
             "data_seed": (_seed, True)},
}


def _check_step(step: Any, k: int, errors: List[SpecError]) -> None:
    where = f"steps[{k}]"
    if not isinstance(step, dict):
        errors.append(SpecError(
            where, f"expected an object, got {type(step).__name__}"))
        return
    kind = step.get("kind")
    if kind not in _STEP_FIELDS:
        errors.append(SpecError(
            f"{where}.kind",
            f"expected one of {sorted(_STEP_FIELDS)}, got {kind!r}"))
        return
    fields = _STEP_FIELDS[kind]
    for name, (checker, required) in fields.items():
        if name not in step:
            if required:
                errors.append(SpecError(
                    f"{where}.{name}",
                    f"required field for kind {kind!r} is missing"))
            continue
        problem = checker(step[name])
        if problem:
            errors.append(SpecError(f"{where}.{name}", problem))
    for name in sorted(step):
        if name != "kind" and name not in fields:
            errors.append(SpecError(
                f"{where}.{name}",
                f"unknown field for kind {kind!r}"))
    # semantic checks beyond field types
    if kind == "scatter" and not any(
            e.path.startswith(where) for e in errors):
        if gcd(int(step["stride"]), int(step["m"])) != 1:
            errors.append(SpecError(
                f"{where}.stride",
                f"stride {step['stride']} is not coprime with m "
                f"{step['m']}: the scatter index map must be a "
                f"bijection or results depend on collision order"))


def validate_spec(spec: Any) -> List[SpecError]:
    """Every problem in ``spec``, or an empty list when it is valid."""
    if not isinstance(spec, dict):
        return [SpecError(
            "", f"expected a spec object, got {type(spec).__name__}")]
    errors: List[SpecError] = []
    version = spec.get("version")
    if version != SPEC_VERSION:
        errors.append(SpecError(
            "version",
            f"expected supported spec version {SPEC_VERSION}, "
            f"got {version!r}"))
    problem = _int(1, MAX_N)(spec.get("n"))
    if "n" not in spec:
        errors.append(SpecError("n", "required field is missing"))
    elif problem:
        errors.append(SpecError("n", problem))
    if "seed" in spec:
        problem = _seed(spec["seed"])
        if problem:
            errors.append(SpecError("seed", problem))
    steps = spec.get("steps")
    if not isinstance(steps, list) or not steps:
        errors.append(SpecError(
            "steps", "expected a non-empty list of step objects"))
    elif len(steps) > MAX_STEPS:
        errors.append(SpecError(
            "steps", f"at most {MAX_STEPS} steps allowed, "
                     f"got {len(steps)}"))
    else:
        for k, step in enumerate(steps):
            _check_step(step, k, errors)
    for name in sorted(spec):
        if name not in ("version", "seed", "n", "steps"):
            errors.append(SpecError(name, "unknown field"))
    return errors


def check_spec(spec: Any) -> None:
    """Raise :class:`InvalidSpecError` unless ``spec`` is valid."""
    errors = validate_spec(spec)
    if errors:
        raise InvalidSpecError(errors)
