"""BN254 (alt_bn128) instantiation and the optimal-ate pairing.

Parameters follow the Ethereum alt_bn128 precompiles and the arkworks
``ark-bn254`` crate used by the paper's artifact:

* base field prime ``q``, scalar field prime ``r`` (see :mod:`repro.field.fp`)
* G1: ``y^2 = x^3 + 3`` over Fq, generator (1, 2)
* G2: ``y^2 = x^3 + 3/(9+u)`` over Fq2 (the D-type sextic twist)
* ate loop count ``6u + 2`` with BN parameter ``u = 4965661367192848881``

A product of pairings is ONE Miller loop over all its pairs followed by
one final exponentiation:

* each G2 point is *prepared* once — stepped through the signed-digit
  expansion of ``6u + 2`` in homogeneous projective coordinates over Fq2
  (no inversion), recording the three Fq2 coefficients of every tangent
  and chord — and the coefficient lists are kept in a small LRU keyed by
  the point's coordinates, so the fixed ``beta/gamma/delta`` of a
  verifying key are prepared once per process;
* the loop squares the running value once per digit for all pairs and
  folds each line in with the sparse product
  :func:`repro.ec.tower.f12_mul_034`;
* a pair whose two points are both constants of a verifying key
  (Groth16's ``(alpha, beta)``) is passed as ``fixed``: its Miller value
  is computed once, kept in a second LRU keyed by both points, and
  multiplied into the loop's output — the same Fq12 value the loop would
  have reached with the pair inside it;
* the final exponentiation splits ``(q^12 - 1)/r`` into the easy part
  ``(q^6 - 1)(q^2 + 1)`` (one inversion, a conjugation, a Frobenius) and
  the hard part ``(q^4 - q^2 + 1)/r = l3 q^3 + l2 q^2 + l1 q + l0`` of
  Devegili–Scott–Dahab (:data:`HARD_PART_LAMBDAS`): three powerings by
  ``u``, Frobenius maps and a short addition chain.  After the easy part
  every value lies in the cyclotomic subgroup, so the hard part squares
  with :func:`repro.ec.tower.f12_cyclotomic_sqr` and powers by ``u`` over
  its signed digits (an inverse there is a conjugation).  The
  decomposition is exact, so the value is the reduced pairing itself, not
  a power of it.

Affine :class:`~repro.ec.curve.CurveGroup` arithmetic on ``BN254_G1`` /
``BN254_G2`` is the public ``add / neg / is_on_curve`` surface and the
reference the Jacobian code (:mod:`repro.ec.jacobian`) is tested against.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Sequence, Tuple

from repro.field.counters import global_counter
from repro.field.fp import BN254_FQ, BN254_FQ_MODULUS, BN254_FR_MODULUS
from repro.ec.curve import CurveGroup, Point
from repro.ec.tower import (
    F12_ONE,
    FQ2,
    FQ12,
    FROBENIUS_GAMMA,
    Fq2,
    Fq12,
    f2_mul,
    f2_sqr,
    f12_conj,
    f12_cyclotomic_sqr,
    f12_frobenius,
    f12_inv,
    f12_mul,
    f12_mul_034,
    f12_sqr,
)

_Q = BN254_FQ_MODULUS
_R = BN254_FR_MODULUS

# BN parameter u and the ate loop count 6u + 2.
BN_U = 4965661367192848881
ATE_LOOP_COUNT = 6 * BN_U + 2

# (q^4 - q^2 + 1)/r == sum(l_i q^i): the hard part of the exponent
# (q^12 - 1)/r = (q^6 - 1)(q^2 + 1)(q^4 - q^2 + 1)/r, base-q digits low first.
HARD_PART_LAMBDAS = (
    -36 * BN_U**3 - 30 * BN_U**2 - 18 * BN_U - 2,
    -36 * BN_U**3 - 18 * BN_U**2 - 12 * BN_U + 1,
    6 * BN_U**2 + 1,
    1,
)

# -- group instantiations ----------------------------------------------------------

BN254_G1 = CurveGroup(
    "G1",
    a=BN254_FQ(0),
    b=BN254_FQ(3),
    generator_xy=(BN254_FQ(1), BN254_FQ(2)),
    order=_R,
)

_B2 = FQ2([3, 0]) / FQ2([9, 1])

_G2_GEN_X = FQ2(
    [
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ]
)
_G2_GEN_Y = FQ2(
    [
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ]
)

BN254_G2 = CurveGroup(
    "G2", a=FQ2.zero(), b=_B2, generator_xy=(_G2_GEN_X, _G2_GEN_Y), order=_R
)

# -- prepared G2 points ----------------------------------------------------------------


def _signed_digits(n: int) -> List[int]:
    """Non-adjacent form of ``n``, low digit first (digits in -1, 0, 1)."""
    digits = []
    while n:
        d = 2 - (n & 3) if n & 1 else 0
        digits.append(d)
        n = (n - d) >> 1
    return digits


# Below the leading one, high digit first: 65 doublings, 21 additions.
_ATE_DIGITS = tuple(reversed(_signed_digits(ATE_LOOP_COUNT)[:-1]))
# One entry per recorded line: is the running value squared before it?
_LINE_SQUARES = tuple(
    flag for d in _ATE_DIGITS for flag in ((True, False) if d else (True,))
) + (False, False)

_TWO_INV = (_Q + 1) // 2
_B2_TIMES_3 = tuple(3 * c % _Q for c in _B2.coeffs)

Line = Tuple[Fq2, Fq2, Fq2]

#: Prepared G2 points kept (least recently used evicted first).  One entry
#: is 88 lines x 6 ints, 51 KiB measured; 16 entries hold the
#: beta/gamma/delta of five verifying keys plus a transient proof.b in
#: 0.8 MiB.  The fixed-pair Miller values (12 ints an entry) are bounded
#: by the same number.
PREPARED_G2_MAX = 16
_PREPARED: "OrderedDict[Tuple[int, int, int, int], Tuple[Line, ...]]" = (
    OrderedDict()
)
_FIXED: "OrderedDict[Tuple[int, ...], Fq12]" = OrderedDict()


def _lru(cache: OrderedDict, key, build):
    """``cache[key]``, built on a miss; the least recently used entry
    goes once the cache holds more than :data:`PREPARED_G2_MAX`."""
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
        return value
    value = cache[key] = build()
    if len(cache) > PREPARED_G2_MAX:
        cache.popitem(last=False)
    return value


def _double_step(x: Fq2, y: Fq2, z: Fq2):
    """``R <- 2R`` in homogeneous projective coordinates, plus the tangent's
    coefficients (Costello–Lange–Naehrig, as in arkworks' ``doubling_step``)."""
    ar, ai = f2_mul(x, y)
    ar = ar * _TWO_INV % _Q
    ai = ai * _TWO_INV % _Q
    br, bi = f2_sqr(y)
    cr, ci = f2_sqr(z)
    er, ei = f2_mul(_B2_TIMES_3, (cr, ci))
    fr = 3 * er
    fi = 3 * ei
    g = ((br + fr) * _TWO_INV % _Q, (bi + fi) * _TWO_INV % _Q)
    hr, hi = f2_sqr((y[0] + z[0], y[1] + z[1]))
    hr = (hr - br - cr) % _Q
    hi = (hi - bi - ci) % _Q
    jr, ji = f2_sqr(x)
    e2r, e2i = f2_sqr((er, ei))
    gr, gi = f2_sqr(g)
    new = (
        f2_mul((ar, ai), (br - fr, bi - fi)),
        ((gr - 3 * e2r) % _Q, (gi - 3 * e2i) % _Q),
        f2_mul((br, bi), (hr, hi)),
    )
    line = (
        (-hr % _Q, -hi % _Q),
        (3 * jr % _Q, 3 * ji % _Q),
        ((er - br) % _Q, (ei - bi) % _Q),
    )
    return new, line


def _add_step(x: Fq2, y: Fq2, z: Fq2, qx: Fq2, qy: Fq2):
    """``R <- R + Q`` (``Q`` affine) plus the chord's coefficients."""
    tr, ti = f2_mul(qy, z)
    theta = ((y[0] - tr) % _Q, (y[1] - ti) % _Q)
    tr, ti = f2_mul(qx, z)
    lam = ((x[0] - tr) % _Q, (x[1] - ti) % _Q)
    c = f2_sqr(theta)
    d = f2_sqr(lam)
    e = f2_mul(lam, d)
    fr, fi = f2_mul(z, c)
    g = f2_mul(x, d)
    h = ((e[0] + fr - 2 * g[0]) % _Q, (e[1] + fi - 2 * g[1]) % _Q)
    tr, ti = f2_mul(theta, (g[0] - h[0], g[1] - h[1]))
    ur, ui = f2_mul(e, y)
    new = (f2_mul(lam, h), ((tr - ur) % _Q, (ti - ui) % _Q), f2_mul(z, e))
    tr, ti = f2_mul(theta, qx)
    ur, ui = f2_mul(lam, qy)
    line = (lam, (-theta[0] % _Q, -theta[1] % _Q), ((tr - ur) % _Q, (ti - ui) % _Q))
    return new, line


def _twist_frobenius(x: Fq2, y: Fq2) -> Tuple[Fq2, Fq2]:
    """The q-power Frobenius of the untwisted point, back on the twist."""
    gamma = FROBENIUS_GAMMA[0]
    return (
        f2_mul((x[0], -x[1] % _Q), gamma[2]),
        f2_mul((y[0], -y[1] % _Q), gamma[3]),
    )


def _prepare_g2(q_point: Point) -> Tuple[Line, ...]:
    """The line coefficients of the whole Miller loop over ``q_point``."""
    qx, qy = q_point.x.coeffs, q_point.y.coeffs
    return _lru(_PREPARED, qx + qy, lambda: _lines(qx, qy))


def _lines(qx: Fq2, qy: Fq2) -> Tuple[Line, ...]:
    neg_qy = (-qy[0] % _Q, -qy[1] % _Q)
    r = (qx, qy, (1, 0))
    out: List[Line] = []
    for digit in _ATE_DIGITS:
        r, line = _double_step(*r)
        out.append(line)
        if digit:
            r, line = _add_step(*r, qx, qy if digit > 0 else neg_qy)
            out.append(line)
    q1x, q1y = _twist_frobenius(qx, qy)
    q2x, q2y = _twist_frobenius(q1x, q1y)
    r, line = _add_step(*r, q1x, q1y)
    out.append(line)
    _, line = _add_step(*r, q2x, (-q2y[0] % _Q, -q2y[1] % _Q))
    out.append(line)
    return tuple(out)


# -- Miller loop and final exponentiation ------------------------------------------------


def _miller_product(pairs: Iterable[Tuple[Point, Point]]) -> Fq12:
    """``prod f_{6u+2,Q_i}(P_i)`` (with the two Frobenius lines) in one loop;
    pairs with a point at infinity contribute 1 and are skipped."""
    live = [
        (p.x.value, p.y.value, _prepare_g2(q))
        for p, q in pairs
        if not (p.inf or q.inf)
    ]
    global_counter().pairing += len(live)
    f = F12_ONE
    if not live:
        return f
    for k, square in enumerate(_LINE_SQUARES):
        if square and k:
            f = f12_sqr(f)
        for px, py, lines in live:
            (c0r, c0i), (c3r, c3i), c4 = lines[k]
            f = f12_mul_034(
                f,
                (c0r * py % _Q, c0i * py % _Q),
                (c3r * px % _Q, c3i * px % _Q),
                c4,
            )
    return f


def _fixed_miller(p_point: Point, q_point: Point) -> Fq12:
    """The Miller value of one fixed pair, memoised on both points."""
    if p_point.inf or q_point.inf:
        return F12_ONE
    key = (p_point.x.value, p_point.y.value) + q_point.x.coeffs
    key += q_point.y.coeffs
    return _lru(_FIXED, key, lambda: _miller_product(((p_point, q_point),)))


# u below its leading one in signed digits, high digit first: 62 cyclotomic
# squarings and 23 products (the binary expansion would need 27).
_U_DIGITS = tuple(reversed(_signed_digits(BN_U)[:-1]))


def _cyclotomic_pow_u(f: Fq12) -> Fq12:
    """``f^u`` for ``f`` in the cyclotomic subgroup, where ``f^-1`` is
    ``conj(f)``."""
    f_inv = f12_conj(f)
    out = f
    for digit in _U_DIGITS:
        out = f12_cyclotomic_sqr(out)
        if digit > 0:
            out = f12_mul(out, f)
        elif digit < 0:
            out = f12_mul(out, f_inv)
    return out


def _final_exponentiation(f: Fq12) -> Fq12:
    # Easy part: f^((q^6 - 1)(q^2 + 1)).  From here on every value is in the
    # cyclotomic subgroup: inverse == conjugate, squaring is the cheap kind.
    f = f12_mul(f12_conj(f), f12_inv(f))
    f = f12_mul(f12_frobenius(f, 2), f)
    # Hard part: f^(l0 + l1 q + l2 q^2 + q^3), HARD_PART_LAMBDAS.
    sqr = f12_cyclotomic_sqr
    fu = _cyclotomic_pow_u(f)
    fu2 = _cyclotomic_pow_u(fu)
    fu3 = _cyclotomic_pow_u(fu2)
    y0 = f12_mul(
        f12_mul(f12_frobenius(f, 1), f12_frobenius(f, 2)), f12_frobenius(f, 3)
    )
    y1 = f12_conj(f)
    y2 = f12_frobenius(fu2, 2)
    y3 = f12_conj(f12_frobenius(fu, 1))
    y4 = f12_conj(f12_mul(fu, f12_frobenius(fu2, 1)))
    y5 = f12_conj(fu2)
    y6 = f12_conj(f12_mul(fu3, f12_frobenius(fu3, 1)))
    # y0 y1^2 y2^6 y3^12 y4^18 y5^30 y6^36 by Scott et al.'s addition chain.
    t0 = f12_mul(f12_mul(sqr(y6), y4), y5)
    t1 = f12_mul(f12_mul(y3, y5), t0)
    t0 = f12_mul(t0, y2)
    t1 = sqr(f12_mul(sqr(t1), t0))
    t0 = f12_mul(t1, y1)
    t1 = f12_mul(t1, y0)
    return f12_mul(sqr(t0), t1)


def miller_loop(q_point: Point, p_point: Point) -> FQ12:
    """The optimal-ate Miller loop of one pair (without final exponentiation).

    ``q_point`` is a G2 point, ``p_point`` a G1 point.  Defined up to a
    factor in a proper subfield, which the final exponentiation removes.
    """
    return FQ12.from_raw(_miller_product(((p_point, q_point),)))


def final_exponentiate(f: FQ12) -> FQ12:
    """Raise a (non-zero) Miller-loop output to ``(q^12 - 1) / r``."""
    return FQ12.from_raw(_final_exponentiation(f.coeffs))


def bn254_pairing(p_point: Point, q_point: Point) -> FQ12:
    """The full pairing ``e(P, Q)`` for ``P`` in G1 and ``Q`` in G2."""
    if p_point.group is not BN254_G1 or q_point.group is not BN254_G2:
        raise ValueError("bn254_pairing expects (G1 point, G2 point)")
    return final_exponentiate(miller_loop(q_point, p_point))


def pairing_product_is_one(
    pairs: Sequence[Tuple[Point, Point]],
    fixed: Sequence[Tuple[Point, Point]] = (),
) -> bool:
    """Check ``prod e(P_i, Q_i) == 1`` over ``pairs`` and ``fixed``: one
    multi-Miller loop, one final exponentiation — how Groth16 verification
    is implemented in practice.

    ``fixed`` holds pairs whose two points are both constants of a
    verifying key; their Miller values come from a memo (computed, and
    counted as a pairing, only on a miss) and multiply into the loop's
    output, which leaves the Fq12 value exactly what one loop over every
    pair would give.
    """
    f = _miller_product(pairs)
    for p_point, q_point in fixed:
        f = f12_mul(f, _fixed_miller(p_point, q_point))
    return _final_exponentiation(f) == F12_ONE
