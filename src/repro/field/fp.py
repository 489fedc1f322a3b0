"""Prime-field arithmetic.

The paper's zkSNARK backend (Groth16 over BN254, §2.1) operates on two prime
fields:

* ``Fr`` — the *scalar field* (group order of G1/G2).  All circuit values,
  witnesses, and constraint coefficients live here.  This is the "254-bit
  finite field" the paper's knit encoding packs uint8 values into (§4.2).
* ``Fq`` — the *base field* over which the curve points' coordinates live.

Two representations are provided.  :class:`Field` exposes raw ``int``
arithmetic (no object allocation) for hot loops; :class:`FieldElement` wraps
an ``int`` with operator overloading for readable code in the compiler and
tests.  Both reduce modulo the field prime.
"""

from __future__ import annotations

from typing import Iterable, List, Union

from repro.field.counters import global_counter

# BN254 (alt_bn128) parameters -- the curve used by Arkworks/Groth16 in the
# paper's artifact and by Ethereum precompiles.
BN254_FQ_MODULUS = (
    21888242871839275222246405745257275088696311157297823662689037894645226208583
)
BN254_FR_MODULUS = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)

IntoInt = Union[int, "FieldElement"]


def signed(value: int, modulus: int) -> int:
    """Decode a field element back to signed NN space.

    Quantized NN values are small signed integers embedded in the field;
    a value above ``modulus // 2`` represents the negative
    ``value - modulus``.
    """
    return value - modulus if value > modulus // 2 else value


class Field:
    """A prime field descriptor: modulus plus raw-``int`` arithmetic.

    Methods operate on plain Python integers in ``[0, modulus)`` so hot loops
    avoid per-element object allocation.  Every multiplication and inversion
    is recorded in the global :class:`~repro.field.counters.OpCounter`, which
    is how the benchmark harness attributes latency to pipeline phases.
    """

    __slots__ = ("modulus", "name", "bits")

    def __init__(self, modulus: int, name: str = "Fp") -> None:
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self.name = name
        self.bits = modulus.bit_length()

    # -- raw arithmetic ----------------------------------------------------

    def reduce(self, value: int) -> int:
        """Map an arbitrary integer into canonical ``[0, modulus)`` form."""
        return value % self.modulus

    def add(self, a: int, b: int) -> int:
        global_counter().field_add += 1
        s = a + b
        if s >= self.modulus:
            s -= self.modulus
        return s

    def sub(self, a: int, b: int) -> int:
        global_counter().field_add += 1
        d = a - b
        if d < 0:
            d += self.modulus
        return d

    def neg(self, a: int) -> int:
        return self.modulus - a if a else 0

    def mul(self, a: int, b: int) -> int:
        global_counter().field_mul += 1
        return (a * b) % self.modulus

    def square(self, a: int) -> int:
        global_counter().field_mul += 1
        return (a * a) % self.modulus

    def inv(self, a: int) -> int:
        """Modular inverse via Python's built-in extended-gcd ``pow``."""
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        global_counter().field_inv += 1
        return pow(a, -1, self.modulus)

    def exp(self, base: int, exponent: int) -> int:
        global_counter().field_exp += 1
        if exponent < 0:
            base = self.inv(base)
            exponent = -exponent
        return pow(base, exponent, self.modulus)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- element construction ----------------------------------------------

    def __call__(self, value: IntoInt) -> "FieldElement":
        """Build a :class:`FieldElement` of this field from an int."""
        return FieldElement(self, int(value))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def random(self, rng) -> "FieldElement":
        """A uniform element drawn from ``rng`` (a ``random.Random``)."""
        return FieldElement(self, rng.randrange(self.modulus))

    def elements(self, values: Iterable[IntoInt]) -> List["FieldElement"]:
        return [self(v) for v in values]

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(("Field", self.modulus))

    def __repr__(self) -> str:
        return f"Field({self.name}, {self.bits} bits)"


class FieldElement:
    """An element of a prime :class:`Field` with operator overloading.

    Values are stored in canonical form ``0 <= value < field.modulus``.
    Mixed ``int`` operands are accepted and reduced.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: int) -> None:
        self.field = field
        self.value = value % field.modulus

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other: IntoInt) -> int:
        if isinstance(other, FieldElement):
            if other.field.modulus != self.field.modulus:
                raise ValueError(
                    f"cannot mix {self.field.name} and {other.field.name}"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: IntoInt) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other: IntoInt) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.value, v))

    def __rsub__(self, other: IntoInt) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(v, self.value))

    def __mul__(self, other: IntoInt) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other: IntoInt) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.value, v))

    def __rtruediv__(self, other: IntoInt) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(v, self.value))

    def __pow__(self, exponent: int) -> "FieldElement":
        return FieldElement(self.field, self.field.exp(self.value, exponent))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return (
                self.field.modulus == other.field.modulus
                and self.value == other.value
            )
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.field.name}({self.value})"

    # -- signed interpretation ---------------------------------------------------

    def signed(self) -> int:
        """Interpret as a signed integer centered at zero (:func:`signed`)."""
        return signed(self.value, self.field.modulus)


BN254_FR = Field(BN254_FR_MODULUS, name="Fr")
BN254_FQ = Field(BN254_FQ_MODULUS, name="Fq")
