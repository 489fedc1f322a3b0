"""Generic affine short-Weierstrass curve arithmetic: the reference.

One implementation serves G1 (over Fq) and G2 (over Fq2).  Coordinates are
any objects supporting field operator overloading (``FieldElement`` or the
tower's ``FQ2``), so the code reads like the textbook affine formulas.

Affine arithmetic pays one coordinate-field inversion per addition.  That
makes it the public ``add / neg / is_on_curve`` surface and the oracle the
tests hold the fast code to — not a hot path: scalar multiplication, MSM
and set-up on the real backend run on :mod:`repro.ec.jacobian`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.field.counters import global_counter

Coeff = Any  # FieldElement | FQ2


class Point:
    """An affine point on a :class:`CurveGroup`, or the point at infinity."""

    __slots__ = ("group", "x", "y", "inf")

    def __init__(
        self,
        group: "CurveGroup",
        x: Optional[Coeff],
        y: Optional[Coeff],
        inf: bool = False,
    ) -> None:
        self.group = group
        self.x = x
        self.y = y
        self.inf = inf

    def is_infinity(self) -> bool:
        return self.inf

    def __add__(self, other: "Point") -> "Point":
        return self.group.add(self, other)

    def __sub__(self, other: "Point") -> "Point":
        return self.group.add(self, self.group.neg(other))

    def __neg__(self) -> "Point":
        return self.group.neg(self)

    def __mul__(self, scalar: int) -> "Point":
        return self.group.scalar_mul(self, scalar)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self.inf or other.inf:
            return self.inf and other.inf
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.inf:
            return hash((self.group.name, "inf"))
        return hash((self.group.name, self.x, self.y))

    def __repr__(self) -> str:
        if self.inf:
            return f"{self.group.name}(inf)"
        return f"{self.group.name}({self.x!r}, {self.y!r})"


class CurveGroup:
    """The group of points on ``y^2 = x^3 + a x + b`` over a coefficient field.

    ``order`` is the (prime) group order; scalars are reduced modulo it in
    :meth:`scalar_mul` so SNARK code can pass raw field-element ints.
    """

    def __init__(
        self,
        name: str,
        a: Coeff,
        b: Coeff,
        generator_xy: Optional[tuple] = None,
        order: Optional[int] = None,
    ) -> None:
        self.name = name
        self.a = a
        self.b = b
        self.order = order
        if generator_xy is not None:
            self.generator = Point(self, generator_xy[0], generator_xy[1])
        else:
            self.generator = None

    # -- constructors -----------------------------------------------------------

    def point(self, x: Coeff, y: Coeff) -> Point:
        p = Point(self, x, y)
        if not self.is_on_curve(p):
            raise ValueError(f"({x!r}, {y!r}) is not on {self.name}")
        return p

    def infinity(self) -> Point:
        return Point(self, None, None, inf=True)

    # -- predicates ------------------------------------------------------------

    def is_on_curve(self, p: Point) -> bool:
        if p.inf:
            return True
        lhs = p.y * p.y
        rhs = p.x * p.x * p.x + self.a * p.x + self.b
        return lhs == rhs

    # -- group law -----------------------------------------------------------

    def neg(self, p: Point) -> Point:
        if p.inf:
            return p
        return Point(self, p.x, -p.y)

    def double(self, p: Point) -> Point:
        if p.inf:
            return p
        if not p.y:
            return self.infinity()
        global_counter().group_add += 1
        slope = (3 * (p.x * p.x) + self.a) / (2 * p.y)
        x3 = slope * slope - 2 * p.x
        y3 = slope * (p.x - x3) - p.y
        return Point(self, x3, y3)

    def add(self, p: Point, q: Point) -> Point:
        if p.inf:
            return q
        if q.inf:
            return p
        if p.x == q.x:
            if p.y == q.y:
                return self.double(p)
            return self.infinity()
        global_counter().group_add += 1
        slope = (q.y - p.y) / (q.x - p.x)
        x3 = slope * slope - p.x - q.x
        y3 = slope * (p.x - x3) - p.y
        return Point(self, x3, y3)

    def scalar_mul(self, p: Point, scalar: int) -> Point:
        if self.order is not None:
            scalar %= self.order
        if scalar == 0 or p.inf:
            return self.infinity()
        global_counter().group_scalar_mul += 1
        result = self.infinity()
        addend = p
        k = scalar
        while k:
            if k & 1:
                result = self.add(result, addend)
            k >>= 1
            if k:
                addend = self.double(addend)
        return result
