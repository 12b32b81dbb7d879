"""Access-pattern analysis over traced expressions.

The compiler classifies each :class:`~repro.patterns.expr.Load` the way
Section 2.2 of the paper does:

* **affine** — the address is a linear function of pattern indices; these
  map to strided banking and dense DRAM bursts;
* **random** — the address itself depends on loaded data; these map to
  duplication-mode scratchpads on chip and gather/scatter off chip.

Affine addresses are represented as ``const + sum(coeff[idx] * idx)``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.patterns import expr as E


class Affine:
    """A linear address form ``const + sum(coeffs[idx] * idx)``."""

    def __init__(self, const: int = 0,
                 coeffs: Optional[Dict[E.Idx, int]] = None):
        self.const = const
        self.coeffs: Dict[E.Idx, int] = dict(coeffs or {})

    def __add__(self, other: "Affine") -> "Affine":
        coeffs = dict(self.coeffs)
        for idx, coeff in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0) + coeff
        return Affine(self.const + other.const, coeffs)

    def __neg__(self) -> "Affine":
        return Affine(-self.const,
                      {i: -c for i, c in self.coeffs.items()})

    def scale(self, factor: int) -> "Affine":
        """Multiply every term by a constant."""
        return Affine(self.const * factor,
                      {i: c * factor for i, c in self.coeffs.items()})

    def stride_of(self, idx: E.Idx) -> int:
        """Coefficient of one index (0 when absent)."""
        return self.coeffs.get(idx, 0)

    def is_const(self) -> bool:
        """True when no index participates."""
        return not any(self.coeffs.values())

    def __repr__(self):
        terms = " + ".join(f"{c}*{i.name}" for i, c in self.coeffs.items()
                           if c)
        return f"Affine({self.const}{' + ' + terms if terms else ''})"


def as_affine(node: E.Expr) -> Optional[Affine]:
    """Try to express an int expression as an affine form; None if not."""
    if isinstance(node, E.Const):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            return None
        return Affine(const=node.value)
    if isinstance(node, E.Idx):
        return Affine(coeffs={node: 1})
    if isinstance(node, E.UnOp) and node.op == "neg":
        inner = as_affine(node.operand)
        return -inner if inner is not None else None
    if isinstance(node, E.BinOp):
        lhs = as_affine(node.lhs)
        rhs = as_affine(node.rhs)
        if node.op == "add" and lhs is not None and rhs is not None:
            return lhs + rhs
        if node.op == "sub" and lhs is not None and rhs is not None:
            return lhs + (-rhs)
        if node.op == "mul" and lhs is not None and rhs is not None:
            if lhs.is_const():
                return rhs.scale(lhs.const)
            if rhs.is_const():
                return lhs.scale(rhs.const)
    return None


class LoadClass:
    """Classification of one load: affine per-dimension forms or random."""

    def __init__(self, load: E.Load, affine_dims: Optional[Tuple] = None):
        self.load = load
        self.affine_dims = affine_dims

    @property
    def is_affine(self) -> bool:
        """True when every address dimension is affine in the indices."""
        return self.affine_dims is not None

    @property
    def is_gather(self) -> bool:
        """True when the address depends on loaded data (random access)."""
        return not self.is_affine

    def flat_affine(self, shape) -> Optional[Affine]:
        """Row-major flattened affine address, when static shape allows."""
        if not self.is_affine:
            return None
        flat = Affine()
        stride = 1
        for dim_size, form in zip(reversed(shape),
                                  reversed(self.affine_dims)):
            if not isinstance(dim_size, int):
                return None
            flat = flat + form.scale(stride)
            stride *= dim_size
        return flat

    def __repr__(self):
        kind = "affine" if self.is_affine else "gather"
        return f"LoadClass({self.load.array.name}, {kind})"


def classify_load(load: E.Load) -> LoadClass:
    """Classify one load as affine or random (gather)."""
    forms = []
    for index in load.indices:
        form = as_affine(index)
        if form is None:
            return LoadClass(load, None)
        forms.append(form)
    return LoadClass(load, tuple(forms))
