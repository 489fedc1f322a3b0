"""The BN254 extension tower Fq2 -> Fq6 -> Fq12 the pairing evaluates in.

* ``Fq2  = Fq[u]  / (u^2 + 1)``
* ``Fq6  = Fq2[v] / (v^3 - xi)``, ``xi = 9 + u``
* ``Fq12 = Fq6[w] / (w^2 - v)``

Two layers.  The *raw* layer is plain functions on tuples of ints — an Fq2
element is ``(a0, a1)``, an Fq6 element six ints (three Fq2 coefficients of
``1, v, v^2``), an Fq12 element twelve (``c0`` then ``c1`` of ``c0 + c1 w``)
— with Karatsuba products at every level, reduction deferred to the end of
each Fq12 operation, inversion by norm descent (one base-field inversion
at the bottom) and Frobenius as a coefficient-wise conjugation times
constants computed once at import.  The pairing (:mod:`repro.ec.bn254`)
and the Jacobian G2 formulas (:mod:`repro.ec.jacobian`) run on it.

The *class* layer, :class:`FQ2` and :class:`FQ12`, wraps raw values with
operator overloading and ``int`` coercion: G2 affine coordinates are
``FQ2`` (``.coeffs == (c0, c1)``), pairing values are ``FQ12``.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

from repro.field.counters import global_counter
from repro.field.fp import BN254_FQ_MODULUS

_Q = BN254_FQ_MODULUS

Fq2 = Tuple[int, int]
Fq6 = Tuple[int, int, int, int, int, int]
Fq12 = Tuple[int, ...]

# -- raw Fq2 -------------------------------------------------------------------


def _m2(a0: int, a1: int, b0: int, b1: int) -> Fq2:
    """Karatsuba product in Fq2, *unreduced* (callers sum, then reduce)."""
    t0 = a0 * b0
    t1 = a1 * b1
    return t0 - t1, (a0 + a1) * (b0 + b1) - t0 - t1


def f2_mul(a: Fq2, b: Fq2) -> Fq2:
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    return (t0 - t1) % _Q, ((a0 + a1) * (b0 + b1) - t0 - t1) % _Q


def f2_sqr(a: Fq2) -> Fq2:
    a0, a1 = a
    return (a0 + a1) * (a0 - a1) % _Q, 2 * a0 * a1 % _Q


def f2_inv(a: Fq2) -> Fq2:
    """``conj(a) / norm(a)``: one base-field inversion."""
    a0, a1 = a
    norm = (a0 * a0 + a1 * a1) % _Q
    if not norm:
        raise ZeroDivisionError("inverse of zero in FQ2")
    global_counter().field_inv += 1
    inv = pow(norm, -1, _Q)
    return a0 * inv % _Q, -a1 * inv % _Q


def f2_pow(a: Fq2, exponent: int) -> Fq2:
    result = (1, 0)
    while exponent:
        if exponent & 1:
            result = f2_mul(result, a)
        a = f2_sqr(a)
        exponent >>= 1
    return result


# -- raw Fq6 (unreduced products; xi * (x, y) = (9x - y, 9y + x)) ------------------


def _mul6(a: Fq6, b: Fq6) -> Fq6:
    """Karatsuba product in Fq6, unreduced: 6 Fq2 products = 18 int products."""
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    p = a0 * b0
    q = a1 * b1
    v0r = p - q
    v0i = (a0 + a1) * (b0 + b1) - p - q
    p = a2 * b2
    q = a3 * b3
    v1r = p - q
    v1i = (a2 + a3) * (b2 + b3) - p - q
    p = a4 * b4
    q = a5 * b5
    v2r = p - q
    v2i = (a4 + a5) * (b4 + b5) - p - q
    # t12 = (A1 + A2)(B1 + B2) - v1 - v2, and likewise t01, t02
    s0 = a2 + a4
    s1 = a3 + a5
    t0 = b2 + b4
    t1 = b3 + b5
    p = s0 * t0
    q = s1 * t1
    t12r = p - q - v1r - v2r
    t12i = (s0 + s1) * (t0 + t1) - p - q - v1i - v2i
    s0 = a0 + a2
    s1 = a1 + a3
    t0 = b0 + b2
    t1 = b1 + b3
    p = s0 * t0
    q = s1 * t1
    t01r = p - q - v0r - v1r
    t01i = (s0 + s1) * (t0 + t1) - p - q - v0i - v1i
    s0 = a0 + a4
    s1 = a1 + a5
    t0 = b0 + b4
    t1 = b1 + b5
    p = s0 * t0
    q = s1 * t1
    t02r = p - q - v0r - v2r
    t02i = (s0 + s1) * (t0 + t1) - p - q - v0i - v2i
    return (
        v0r + 9 * t12r - t12i,
        v0i + 9 * t12i + t12r,
        t01r + 9 * v2r - v2i,
        t01i + 9 * v2i + v2r,
        t02r + v1r,
        t02i + v1i,
    )


def _mul6_01(a: Fq6, d0r: int, d0i: int, d1r: int, d1i: int) -> Fq6:
    """``a * (d0 + d1 v)``, unreduced: 5 Fq2 products."""
    a0, a1, a2, a3, a4, a5 = a
    xr, xi = _m2(a0, a1, d0r, d0i)  # A0 d0
    yr, yi = _m2(a2, a3, d1r, d1i)  # A1 d1
    pr, pi = _m2(a2 + a4, a3 + a5, d1r, d1i)  # (A1 + A2) d1
    pr -= yr
    pi -= yi  # A2 d1
    qr, qi = _m2(a0 + a2, a1 + a3, d0r + d1r, d0i + d1i)
    sr, si = _m2(a0 + a4, a1 + a5, d0r, d0i)  # (A0 + A2) d0
    return (
        xr + 9 * pr - pi,
        xi + 9 * pi + pr,
        qr - xr - yr,
        qi - xi - yi,
        sr - xr + yr,
        si - xi + yi,
    )


def _mul_v(a: Fq6) -> Fq6:
    """``a * v``: rotate the coefficients, the one that wraps picks up xi."""
    a0, a1, a2, a3, a4, a5 = a
    return 9 * a4 - a5, 9 * a5 + a4, a0, a1, a2, a3


def _inv6(a: Fq6) -> Fq6:
    """Norm descent Fq6 -> Fq2: ``a^-1 = (c0, c1, c2) / (a . c)``."""
    a0 = a[0:2]
    a1 = a[2:4]
    a2 = a[4:6]
    xr, xi = f2_mul(a1, a2)
    s0, s1 = f2_sqr(a0)
    c0 = ((s0 - 9 * xr + xi) % _Q, (s1 - 9 * xi - xr) % _Q)  # a0^2 - xi a1 a2
    s0, s1 = f2_sqr(a2)
    xr, xi = f2_mul(a0, a1)
    c1 = ((9 * s0 - s1 - xr) % _Q, (9 * s1 + s0 - xi) % _Q)  # xi a2^2 - a0 a1
    s0, s1 = f2_sqr(a1)
    xr, xi = f2_mul(a0, a2)
    c2 = ((s0 - xr) % _Q, (s1 - xi) % _Q)  # a1^2 - a0 a2
    xr, xi = f2_mul(a2, c1)
    yr, yi = f2_mul(a1, c2)
    zr, zi = f2_mul(a0, c0)
    xr += yr
    xi += yi
    t = f2_inv(((zr + 9 * xr - xi) % _Q, (zi + 9 * xi + xr) % _Q))
    return f2_mul(c0, t) + f2_mul(c1, t) + f2_mul(c2, t)


# -- raw Fq12 ------------------------------------------------------------------

F12_ONE: Fq12 = (1,) + (0,) * 11


def f12_mul(a: Fq12, b: Fq12) -> Fq12:
    """Karatsuba over Fq6: three ``_mul6``, twelve reductions."""
    a0, a1, b0, b1 = a[:6], a[6:], b[:6], b[6:]
    v0 = _mul6(a0, b0)
    v1 = _mul6(a1, b1)
    t = _mul6([x + y for x, y in zip(a0, a1)], [x + y for x, y in zip(b0, b1)])
    w0, w1, w2, w3, w4, w5 = v1
    return (
        (v0[0] + 9 * w4 - w5) % _Q,
        (v0[1] + 9 * w5 + w4) % _Q,
        (v0[2] + w0) % _Q,
        (v0[3] + w1) % _Q,
        (v0[4] + w2) % _Q,
        (v0[5] + w3) % _Q,
        (t[0] - v0[0] - w0) % _Q,
        (t[1] - v0[1] - w1) % _Q,
        (t[2] - v0[2] - w2) % _Q,
        (t[3] - v0[3] - w3) % _Q,
        (t[4] - v0[4] - w4) % _Q,
        (t[5] - v0[5] - w5) % _Q,
    )


def f12_sqr(a: Fq12) -> Fq12:
    """Complex squaring: ``c0 = (a0 + a1)(a0 + v a1) - p - v p``, ``c1 = 2p``
    with ``p = a0 a1`` — two ``_mul6``."""
    a0, a1 = a[:6], a[6:]
    p = _mul6(a0, a1)
    t = _mul6(
        [x + y for x, y in zip(a0, a1)],
        [x + y for x, y in zip(a0, _mul_v(a1))],
    )
    p0, p1, p2, p3, p4, p5 = p
    return (
        (t[0] - p0 - 9 * p4 + p5) % _Q,
        (t[1] - p1 - 9 * p5 - p4) % _Q,
        (t[2] - p2 - p0) % _Q,
        (t[3] - p3 - p1) % _Q,
        (t[4] - p4 - p2) % _Q,
        (t[5] - p5 - p3) % _Q,
        2 * p0 % _Q,
        2 * p1 % _Q,
        2 * p2 % _Q,
        2 * p3 % _Q,
        2 * p4 % _Q,
        2 * p5 % _Q,
    )


def _sqr4(x0: int, x1: int, y0: int, y1: int) -> Tuple[int, int, int, int]:
    """``(x + y s)^2`` in ``Fq4 = Fq2[s] / (s^2 - xi)``, unreduced: two Fq2
    products, ``x^2 + xi y^2 = (x + y)(x + xi y) - xy - xi xy`` and ``2xy``."""
    pr, pi = _m2(x0, x1, y0, y1)
    sr, si = _m2(x0 + y0, x1 + y1, x0 + 9 * y0 - y1, x1 + 9 * y1 + y0)
    return sr - 10 * pr + pi, si - 10 * pi - pr, 2 * pr, 2 * pi


def f12_cyclotomic_sqr(a: Fq12) -> Fq12:
    """``a^2`` for ``a`` in the cyclotomic subgroup (order ``q^4 - q^2 + 1``:
    every value after the easy part of the final exponentiation) — Granger
    and Scott's squaring, ePrint 2009/565, in arkworks' coefficient layout.

    Fq12 regrouped as three Fq4 elements ``(g0, g3)``, ``(g1, g4)``,
    ``(g2, g5)`` (``g_k`` the Fq2 coefficient of ``w^k``); each is squared
    with two Fq2 products — 18 int products against :func:`f12_sqr`'s 36 —
    and the norm-one relations turn the squares into the result with
    additions.  Wrong (not just slow) for any other element."""
    r0r, r0i, r4r, r4i, r3r, r3i, r2r, r2i, r1r, r1i, r5r, r5i = a
    t0r, t0i, t1r, t1i = _sqr4(r0r, r0i, r1r, r1i)
    t2r, t2i, t3r, t3i = _sqr4(r2r, r2i, r3r, r3i)
    t4r, t4i, t5r, t5i = _sqr4(r4r, r4i, r5r, r5i)
    return (
        (3 * t0r - 2 * r0r) % _Q,
        (3 * t0i - 2 * r0i) % _Q,
        (3 * t2r - 2 * r4r) % _Q,
        (3 * t2i - 2 * r4i) % _Q,
        (3 * t4r - 2 * r3r) % _Q,
        (3 * t4i - 2 * r3i) % _Q,
        (3 * (9 * t5r - t5i) + 2 * r2r) % _Q,
        (3 * (9 * t5i + t5r) + 2 * r2i) % _Q,
        (3 * t1r + 2 * r1r) % _Q,
        (3 * t1i + 2 * r1i) % _Q,
        (3 * t3r + 2 * r5r) % _Q,
        (3 * t3i + 2 * r5i) % _Q,
    )


def f12_mul_034(a: Fq12, c0: Fq2, c3: Fq2, c4: Fq2) -> Fq12:
    """``a * (c0 + (c3 + c4 v) w)`` — the shape of a Miller-loop line value
    (non-zero only at tower positions 0, 3 and 4): 13 Fq2 products, not 18."""
    a0, a1 = a[:6], a[6:]
    c0r, c0i = c0
    c3r, c3i = c3
    c4r, c4i = c4
    x = _m2(a0[0], a0[1], c0r, c0i) + _m2(a0[2], a0[3], c0r, c0i) + _m2(
        a0[4], a0[5], c0r, c0i
    )
    y0, y1, y2, y3, y4, y5 = _mul6_01(a1, c3r, c3i, c4r, c4i)
    e = _mul6_01(
        [p + q for p, q in zip(a0, a1)], c0r + c3r, c0i + c3i, c4r, c4i
    )
    return (
        (x[0] + 9 * y4 - y5) % _Q,
        (x[1] + 9 * y5 + y4) % _Q,
        (x[2] + y0) % _Q,
        (x[3] + y1) % _Q,
        (x[4] + y2) % _Q,
        (x[5] + y3) % _Q,
        (e[0] - x[0] - y0) % _Q,
        (e[1] - x[1] - y1) % _Q,
        (e[2] - x[2] - y2) % _Q,
        (e[3] - x[3] - y3) % _Q,
        (e[4] - x[4] - y4) % _Q,
        (e[5] - x[5] - y5) % _Q,
    )


def f12_conj(a: Fq12) -> Fq12:
    """``c0 - c1 w``: the q^6-power Frobenius, and the inverse of any element
    of norm one over Fq6 (everything after the easy final exponentiation)."""
    return a[:6] + tuple(-x % _Q for x in a[6:])


def f12_inv(a: Fq12) -> Fq12:
    """Norm descent Fq12 -> Fq6 -> Fq2 -> Fq: ``conj(a) / (c0^2 - v c1^2)``."""
    if not any(a):
        raise ZeroDivisionError("inverse of zero in FQ12")
    a0, a1 = a[:6], a[6:]
    s = _mul6(a0, a0)
    t = _mul_v(_mul6(a1, a1))
    n = _inv6(tuple((x - y) % _Q for x, y in zip(s, t)))
    return tuple(x % _Q for x in _mul6(a0, n)) + tuple(
        -x % _Q for x in _mul6(a1, n)
    )


def f12_pow(a: Fq12, exponent: int) -> Fq12:
    """Left-to-right square-and-multiply; ``exponent >= 0``."""
    if exponent == 0:
        return F12_ONE
    result = a
    for bit in bin(exponent)[3:]:
        result = f12_sqr(result)
        if bit == "1":
            result = f12_mul(result, a)
    return result


# The Fq12 element is sum_k g_k w^k with g_k in Fq2 at these tuple offsets
# (c0 = g0 + g2 v + g4 v^2, c1 = g1 + g3 v + g5 v^2).
_W_POWER_SLOT = (0, 6, 2, 8, 4, 10)

_XI = (9, 1)


def _frobenius_constants() -> Tuple[Tuple[Fq2, ...], ...]:
    """``gamma[i][k] = xi^(k (q^i - 1) / 6)`` for ``i = 1, 2, 3``.

    ``(g w^k)^(q^i) = conj^i(g) gamma[i][k] w^k``; the higher rows follow
    from the first because ``x^q = conj(x)`` on Fq2.
    """
    g1 = [(1, 0)]
    step = f2_pow(_XI, (_Q - 1) // 6)
    for _ in range(5):
        g1.append(f2_mul(g1[-1], step))
    g2 = [f2_mul(g, (g[0], -g[1] % _Q)) for g in g1]  # gamma1^(q+1)
    g3 = [f2_mul(g, h) for g, h in zip(g1, g2)]  # gamma1^(q^2+q+1)
    return tuple(g1), tuple(g2), tuple(g3)


FROBENIUS_GAMMA = _frobenius_constants()


def f12_frobenius(a: Fq12, power: int) -> Fq12:
    """``a^(q^power)`` for ``power`` in 1, 2, 3 — a linear map, no powering."""
    gamma = FROBENIUS_GAMMA[power - 1]
    out = [0] * 12
    for k, slot in enumerate(_W_POWER_SLOT):
        re, im = a[slot], a[slot + 1]
        if power & 1:
            im = -im
        out[slot], out[slot + 1] = f2_mul((re, im), gamma[k])
    return tuple(out)


# -- operator-overloading wrappers -------------------------------------------------

IntoElement = Union[int, "_TowerElement"]


class _TowerElement:
    """What :class:`FQ2` and :class:`FQ12` share: coercion, the derived
    operators, comparisons.  Subclasses set ``degree`` and the raw
    ``_mul`` / ``_inv`` functions; ``coeffs`` is a tuple of canonical ints."""

    degree = 0
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]) -> None:
        if len(coeffs) != self.degree:
            raise ValueError(
                f"expected {self.degree} coefficients, got {len(coeffs)}"
            )
        self.coeffs = tuple(c % _Q for c in coeffs)

    @classmethod
    def from_raw(cls, coeffs):
        """An element from already-canonical raw coefficients."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls):
        return cls.from_raw((0,) * cls.degree)

    @classmethod
    def one(cls):
        return cls.from_int(1)

    @classmethod
    def from_int(cls, value: int):
        return cls.from_raw((value % _Q,) + (0,) * (cls.degree - 1))

    def _coerce(self, other: IntoElement):
        if type(other) is type(self):
            return other
        if isinstance(other, int):
            return self.from_int(other)
        if isinstance(other, _TowerElement):
            raise TypeError(
                f"cannot mix {type(self).__name__} and {type(other).__name__}"
            )
        raise TypeError(f"cannot coerce {other!r} into {type(self).__name__}")

    def __add__(self, other: IntoElement):
        o = self._coerce(other)
        global_counter().field_add += self.degree
        return self.from_raw(
            tuple((a + b) % _Q for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other: IntoElement):
        o = self._coerce(other)
        global_counter().field_add += self.degree
        return self.from_raw(
            tuple((a - b) % _Q for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other: IntoElement):
        return self._coerce(other) - self

    def __neg__(self):
        return self.from_raw(tuple(-c % _Q for c in self.coeffs))

    def __mul__(self, other: IntoElement):
        if isinstance(other, int):
            global_counter().field_mul += self.degree
            return self.from_raw(tuple(c * other % _Q for c in self.coeffs))
        o = self._coerce(other)
        global_counter().field_mul += self._mul_cost
        return self.from_raw(self._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        return self.from_raw(self._inv(self.coeffs))

    def __truediv__(self, other: IntoElement):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: IntoElement):
        return self._coerce(other) * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return self.from_raw(self._pow(self.coeffs, exponent))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _TowerElement):
            return type(self) is type(other) and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.from_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)})"


class FQ2(_TowerElement):
    """BN254 Fq2 = Fq[u] / (u^2 + 1); ``coeffs == (c0, c1)`` for ``c0 + c1 u``."""

    degree = 2
    _mul_cost = 3  # Karatsuba
    _mul = staticmethod(f2_mul)
    _inv = staticmethod(f2_inv)
    _pow = staticmethod(f2_pow)
    __slots__ = ()


class FQ12(_TowerElement):
    """BN254 Fq12 over the 2-3-2 tower; ``coeffs`` are the twelve ints of the
    raw layer (``c0`` then ``c1``, each ``1, v, v^2`` over ``1, u``)."""

    degree = 12
    _mul_cost = 54  # 18 Karatsuba Fq2 products
    _mul = staticmethod(f12_mul)
    _inv = staticmethod(f12_inv)
    _pow = staticmethod(f12_pow)
    __slots__ = ()

    def conjugate(self) -> "FQ12":
        return self.from_raw(f12_conj(self.coeffs))

    def frobenius(self, power: int) -> "FQ12":
        return self.from_raw(f12_frobenius(self.coeffs, power))


def fq2(c0: int, c1: int) -> FQ2:
    """Convenience constructor ``c0 + c1*u``."""
    return FQ2((c0, c1))


def fq12(coeffs: Sequence[int]) -> FQ12:
    return FQ12(coeffs)
