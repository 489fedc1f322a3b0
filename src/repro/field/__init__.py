"""Finite-field arithmetic substrate.

zkSNARKs compute over large prime fields (~254-bit for BN254, §2.1 of the
paper).  This package provides:

* :class:`~repro.field.fp.Field` — a prime-field descriptor with raw ``int``
  arithmetic used in hot loops (MSM, QAP evaluation).
* :class:`~repro.field.fp.FieldElement` — an ergonomic wrapper element type.
* BN254 scalar field (``BN254_FR``) and base field (``BN254_FQ``) instances.
* Montgomery batch inversion (:mod:`repro.field.vector`).
* Operation counters (:mod:`repro.field.counters`) used by the benchmark
  harness to attribute cost to pipeline phases.
"""

from repro.field.fp import (
    BN254_FQ,
    BN254_FR,
    BN254_FQ_MODULUS,
    BN254_FR_MODULUS,
    Field,
    FieldElement,
    signed,
)
from repro.field.counters import OpCounter, global_counter, count_ops
from repro.field.vector import batch_inverse

__all__ = [
    "Field",
    "FieldElement",
    "BN254_FR",
    "BN254_FQ",
    "BN254_FR_MODULUS",
    "BN254_FQ_MODULUS",
    "OpCounter",
    "global_counter",
    "count_ops",
    "batch_inverse",
    "signed",
]
