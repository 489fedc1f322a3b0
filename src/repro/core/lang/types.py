"""ZENO type information (Table 1 of the paper).

The table's standard (scalar) types describe where a value lives in the
zkSNARK pipeline; ZENO's contribution is the *tensor-level* pair
``zkTensor = (Tensor, Privacy)`` built on top of them:

=========  =================================================================
Type       Description
=========  =================================================================
Const      public constant value in a λ-bit finite field
Variable   private scalar in the circuit (input)
Gate       private scalar in the circuit (intermediate result)
Wire       private scalar in the constraint system
LC         linear combination of wires in the constraint system
Privacy    'private' or 'public'
Tensor     a tensor of finite-field data
zkTensor   tuple (T, P): tensor T plus privacy P
=========  =================================================================

When ``P`` is public, every scalar of ``T`` is a ``Const``; when private,
the specific scalar kind (Variable/Gate/Wire/LC) is inferred automatically
by the circuit generator — users never pick per-scalar privacy by hand,
which is exactly the manual effort Table 1's design removes.
"""

from __future__ import annotations

import enum
from typing import Dict


class Privacy(enum.Enum):
    """The privacy half of a zkTensor."""

    PUBLIC = "public"
    PRIVATE = "private"

    @property
    def is_private(self) -> bool:
        return self is Privacy.PRIVATE

    def __str__(self) -> str:
        return self.value


class PrivacySetting(enum.Enum):
    """The privacy configurations of the paper's evaluation (§7.1)."""

    PRIVATE_IMAGE_PUBLIC_WEIGHTS = "private_image_public_weights"
    PRIVATE_IMAGE_PRIVATE_WEIGHTS = "private_image_private_weights"
    PUBLIC_IMAGE_PRIVATE_WEIGHTS = "public_image_private_weights"

    @classmethod
    def names(cls) -> Dict[str, "PrivacySetting"]:
        """The ``--privacy`` / job-spec spelling of each servable setting."""
        return {
            "one-private": cls.PRIVATE_IMAGE_PUBLIC_WEIGHTS,
            "both-private": cls.PRIVATE_IMAGE_PRIVATE_WEIGHTS,
        }

    @property
    def image_privacy(self) -> Privacy:
        if self is PrivacySetting.PUBLIC_IMAGE_PRIVATE_WEIGHTS:
            return Privacy.PUBLIC
        return Privacy.PRIVATE

    @property
    def weights_privacy(self) -> Privacy:
        if self is PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS:
            return Privacy.PUBLIC
        return Privacy.PRIVATE

    @property
    def one_private(self) -> bool:
        return self is not PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS


class ScalarKind(enum.Enum):
    """Where a scalar value lives in the zkSNARK pipeline (Table 1)."""

    CONST = "const"  # public constant in the field
    VARIABLE = "variable"  # private circuit input
    GATE = "gate"  # private circuit intermediate
    WIRE = "wire"  # private constraint-system value
    LC = "lc"  # linear combination of wires

    @property
    def is_private(self) -> bool:
        return self is not ScalarKind.CONST


def infer_scalar_kind(privacy: Privacy, stage: str) -> ScalarKind:
    """Automatic scalar-kind inference for a tensor's elements.

    ``stage`` names where the tensor sits: "input", "intermediate", or
    "constraint".  Public tensors are Const everywhere; private tensors
    map input -> Variable, intermediate -> Gate, constraint -> Wire.
    """
    if privacy is Privacy.PUBLIC:
        return ScalarKind.CONST
    mapping = {
        "input": ScalarKind.VARIABLE,
        "intermediate": ScalarKind.GATE,
        "constraint": ScalarKind.WIRE,
    }
    if stage not in mapping:
        raise ValueError(
            f"unknown stage {stage!r}; expected one of {sorted(mapping)}"
        )
    return mapping[stage]
