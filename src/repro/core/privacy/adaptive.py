"""Privacy-adaptive circuit generation (§4.1).

Privacy costs constraints; introduce it only where required:

* multiplying *public x private* folds the public value into an LC
  coefficient — **free**;
* multiplying *private x private* costs **one constraint** per product.

For a length-``n`` dot product this yields Eq. 2 (both private,
``n + 1`` constraints) versus Eq. 3 (one side public, ``1`` constraint).
This module provides the analytic count model and a standalone scalar
generator, ``emit_dot_product``, which only the unit tests call: the
compiler lowers whole dot layers (``CircuitComputer._dot_linear``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.lang.types import Privacy
from repro.r1cs.lc import LinearCombination
from repro.r1cs.system import ConstraintSystem


@dataclass(frozen=True)
class DotConstraintModel:
    """Analytic constraint counts for one length-``n`` dot product."""

    constraints: int
    wires: int  # private values introduced (Eq. 1's n contribution)


def constraints_for_dot(
    n: int, w_private: bool, x_private: bool, knit_batch: int = 1
) -> DotConstraintModel:
    """Constraint/wire counts per dot under each privacy combination.

    ``knit_batch`` amortizes the equality check when one side is public
    (§4.2); it must be 1 when both sides are private (Table 2).
    """
    if w_private and x_private:
        if knit_batch != 1:
            raise ValueError("knit encoding requires one public operand")
        # Eq. 2: n product constraints + 1 equality check; n product wires.
        return DotConstraintModel(constraints=n + 1, wires=n)
    if w_private or x_private:
        # Eq. 3: the public side becomes coefficients; only the (possibly
        # knit-amortized) equality check remains.
        return DotConstraintModel(constraints=1 if knit_batch == 1 else 0, wires=0)
    return DotConstraintModel(constraints=0, wires=0)  # fully public: no proof


def emit_dot_product(
    cs: ConstraintSystem,
    weights: Sequence[int],
    features: Sequence[int],
    w_privacy: Privacy,
    x_privacy: Privacy,
    ref_index: Optional[int] = None,
    tag: str = "dot",
) -> int:
    """Standalone privacy-adaptive dot-product circuit.

    Allocates the private operand(s), builds the LC per §4.1, and enforces
    equality against ``ref`` (allocated as a public variable when
    ``ref_index`` is None).  Returns the ref variable index.

    This is the exact circuit of the paper's Eq. 2 / Eq. 3, used as-is by
    unit tests and the layer-level benchmarks; the full compiler path in
    :mod:`repro.core.circuit.compute` generalizes it with requantization and
    knit packing.
    """
    if len(weights) != len(features):
        raise ValueError(
            f"length mismatch: {len(weights)} weights, {len(features)} features"
        )
    field = cs.field
    ref_value = sum(int(w) * int(x) for w, x in zip(weights, features))
    if ref_index is None:
        ref_index = cs.new_public(ref_value)

    lc = cs.lc()
    if w_privacy.is_private and x_privacy.is_private:
        # Eq. 2: one constraint per private*private product.
        for i, (w, x) in enumerate(zip(weights, features)):
            w_var = cs.new_private(int(w))
            x_var = cs.new_private(int(x))
            wire = cs.mul_private(x_var, w_var, tag=f"{tag}/mul{i}")
            lc.add_term(wire, 1)
    elif w_privacy.is_private or x_privacy.is_private:
        # Eq. 3: fold the public side into coefficients — zero constraints.
        if x_privacy.is_private:
            coeffs, values = weights, features
        else:
            coeffs, values = features, weights
        for coeff, value in zip(coeffs, values):
            var = cs.new_private(int(value))
            lc.add_term(var, int(coeff) % field.modulus)
    else:
        lc.add_term(0, ref_value)  # fully public: trivial identity

    cs.enforce_equal(lc, cs.lc_variable(ref_index), tag=f"{tag}/eq")
    return ref_index
