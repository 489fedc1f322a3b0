"""Differential oracle: the py_ecc-shaped BN254 pairing ``src/`` used to run.

Fq12 is the flat quotient ``Fq[w] / (w^12 - 18 w^6 + 82)`` (schoolbook
products, inversion by polynomial extended Euclid); both groups are lifted
onto ``y^2 = x^3 + 3`` over it, the Miller loop uses affine chord/tangent
lines, and the final exponentiation is the naive ``f ** ((q^12 - 1) / r)``.
Slow and obviously right — :mod:`tests.test_ec_pairing` holds the tower
pairing in :mod:`repro.ec.bn254` to it, value for value.
"""

from repro.ec.curve import CurveGroup, Point
from repro.field.fp import BN254_FQ_MODULUS as Q, BN254_FR_MODULUS as R

ATE_LOOP_COUNT = 6 * 4965661367192848881 + 2
FINAL_EXP_POWER = (Q**12 - 1) // R
_MODULUS = (82, 0, 0, 0, 0, 0, -18, 0, 0, 0, 0, 0)


def _poly_degree(poly):
    return next((i for i in range(len(poly) - 1, 0, -1) if poly[i] % Q), 0)


def _poly_div(numerator, denominator):
    """Floor division of polynomials over Fq."""
    num = [n % Q for n in numerator]
    deg_num, deg_den = _poly_degree(num), _poly_degree(denominator)
    out = [0] * (deg_num - deg_den + 1)
    inv_lead = pow(denominator[deg_den] % Q, -1, Q)
    for shift in range(deg_num - deg_den, -1, -1):
        out[shift] = factor = num[deg_den + shift] * inv_lead % Q
        for i in range(deg_den + 1):
            num[shift + i] = (num[shift + i] - factor * denominator[i]) % Q
    return out


class OracleFQ12:
    """Element of ``Fq[w] / (w^12 - 18 w^6 + 82)``; 12 coefficients, low first."""

    def __init__(self, coeffs):
        self.coeffs = [c % Q for c in coeffs]
        assert len(self.coeffs) == 12

    @classmethod
    def from_int(cls, value):
        return cls([value] + [0] * 11)

    def _lift(self, other):
        return other if isinstance(other, OracleFQ12) else self.from_int(other)

    def __add__(self, other):
        return OracleFQ12(a + b for a, b in zip(self.coeffs, self._lift(other).coeffs))

    def __sub__(self, other):
        return OracleFQ12(a - b for a, b in zip(self.coeffs, self._lift(other).coeffs))

    def __neg__(self):
        return OracleFQ12(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return OracleFQ12(c * other for c in self.coeffs)
        product = [0] * 23
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                product[i + j] += a * b
        for exp in range(22, 11, -1):  # w^12 = 18 w^6 - 82
            top, product[exp] = product[exp], 0
            for i, c in enumerate(_MODULUS):
                product[exp - 12 + i] -= top * c
        return OracleFQ12(product[:12])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, exponent):
        result, base = self.from_int(1), self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self):
        """Extended Euclid over Fq[w] against the modulus polynomial."""
        lm, hm = [1] + [0] * 12, [0] * 13
        low, high = self.coeffs + [0], list(_MODULUS) + [1]
        while _poly_degree(low):
            r = _poly_div(high, low)
            r += [0] * (13 - len(r))
            nm, new = list(hm), list(high)
            for i in range(13):
                for j in range(13 - i):
                    nm[i + j] -= lm[i] * r[j]
                    new[i + j] -= low[i] * r[j]
            lm, low, hm, high = [c % Q for c in nm], [c % Q for c in new], lm, low
        return OracleFQ12(lm[:12]) * pow(low[0], -1, Q)

    def __eq__(self, other):
        return self.coeffs == self._lift(other).coeffs

    def __bool__(self):
        return any(self.coeffs)


ORACLE_G12 = CurveGroup("G12", a=OracleFQ12.from_int(0), b=OracleFQ12.from_int(3))
_W = OracleFQ12([0, 1] + [0] * 10)


def twist(p):
    """A G2 point (over Fq2) on the Fq12 curve, through the sextic twist."""
    if p.inf:
        return ORACLE_G12.infinity()
    (x0, x1), (y0, y1) = p.x.coeffs, p.y.coeffs
    # u = w^6 - 9: unwind the 9+u shift of the alt_bn128 Fq2 representation.
    nx = OracleFQ12([x0 - 9 * x1, 0, 0, 0, 0, 0, x1, 0, 0, 0, 0, 0])
    ny = OracleFQ12([y0 - 9 * y1, 0, 0, 0, 0, 0, y1, 0, 0, 0, 0, 0])
    return Point(ORACLE_G12, nx * _W**2, ny * _W**3)


def embed_g1(p):
    if p.inf:
        return ORACLE_G12.infinity()
    return Point(
        ORACLE_G12, OracleFQ12.from_int(p.x.value), OracleFQ12.from_int(p.y.value)
    )


def _linefunc(p1, p2, t):
    """The line through ``p1`` and ``p2`` evaluated at ``t`` (all on G12)."""
    if p1.x != p2.x:
        slope = (p2.y - p1.y) / (p2.x - p1.x)
    elif p1.y == p2.y:
        slope = (p1.x * p1.x * 3) / (p1.y * 2)
    else:
        return t.x - p1.x
    return slope * (t.x - p1.x) - (t.y - p1.y)


def miller_loop(q_point, p_point):
    if q_point.inf or p_point.inf:
        return OracleFQ12.from_int(1)
    q12, p12 = twist(q_point), embed_g1(p_point)
    r12, f = q12, OracleFQ12.from_int(1)
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1):
        f = f * f * _linefunc(r12, r12, p12)
        r12 = ORACLE_G12.double(r12)
        if ATE_LOOP_COUNT >> i & 1:
            f = f * _linefunc(r12, q12, p12)
            r12 = ORACLE_G12.add(r12, q12)
    q1 = Point(ORACLE_G12, q12.x**Q, q12.y**Q)
    nq2 = Point(ORACLE_G12, q1.x**Q, -(q1.y**Q))
    f = f * _linefunc(r12, q1, p12)
    return f * _linefunc(ORACLE_G12.add(r12, q1), nq2, p12)


def oracle_pairing(p_point, q_point):
    """``e(P, Q) = miller_loop(Q, P) ** ((q^12 - 1) / r)``, flat basis."""
    return miller_loop(q_point, p_point) ** FINAL_EXP_POWER


def in_subgroup_by_order(p):
    """``[r]P == O`` by double-and-add on the Jacobian formulas — the G2
    membership check ``src/`` used to run, now the oracle for the
    endomorphism test in :func:`repro.ec.jacobian.in_subgroup`."""
    if p.inf:
        return True
    from repro.ec.jacobian import _FORMULAS, _double_and_add

    fm = _FORMULAS[p.group]
    return _double_and_add(fm, fm.lift(p), p.group.order)[2] == fm.infinity[2]


def to_flat(gt):
    """A :class:`repro.ec.tower.FQ12` in the oracle's flat ``w`` basis.

    The tower element is ``sum g_k w^k`` with ``g_k = a_k + b_k u`` in Fq2
    (``c0 = g0 + g2 v + g4 v^2``, ``c1 = g1 + g3 v + g5 v^2``, ``v = w^2``)
    and ``u = w^6 - 9``, so ``g_k w^k = (a_k - 9 b_k) w^k + b_k w^(k+6)``.
    """
    c = gt.coeffs
    flat = [0] * 12
    for k, slot in enumerate((0, 6, 2, 8, 4, 10)):  # w^k -> index of a_k
        a, b = c[slot], c[slot + 1]
        flat[k] = a - 9 * b
        flat[k + 6] = b
    return OracleFQ12(flat)
