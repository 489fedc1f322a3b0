"""Jacobian-coordinate arithmetic on BN254 G1 and G2: the inversion-free path.

Affine point addition (:mod:`repro.ec.curve`) pays one field inversion per
operation — fine as a reference, ruinous for MSMs, scalar multiplications
and set-up.  This module implements the standard Jacobian projective
formulas for ``a = 0`` curves, where ``(X, Y, Z)`` represents affine
``(X/Z^2, Y/Z^3)``:

* doubling: 2M + 5S (dbl-2009-l), no inversion;
* mixed addition (Jacobian + affine): 7M + 4S, no inversion;
* one inversion at the end to normalize a result — or one for a whole
  vector of results (:func:`batch_normalize`, Montgomery's trick).

The formulas exist twice: over Fq on raw ints for G1 (``j_*``) and over Fq2
on the raw pairs of :mod:`repro.ec.tower` for G2 (``j2_*``).  Everything
built on them — :func:`scalar_mul`, the Pippenger :func:`msm_jacobian` and
the fixed-base :func:`base_multiples` set-up uses, whose table entries and
sums run in the batched affine rounds of :mod:`repro.ec.affine` — is
written once and picks its formulas by the points' group.  The G2 subgroup check
(:func:`in_subgroup`) adds the twist endomorphism ``psi`` on Jacobian
coordinates.  The test suite cross-checks every operation against the
affine implementation.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.ec.affine import batch_reduce, g1_sums, g2_sums
from repro.ec.bn254 import BN254_G1, BN254_G2, BN_U
from repro.ec.curve import CurveGroup, Point
from repro.ec.msm import MAX_WINDOW, pick_window, signed_digits, signed_windows
from repro.ec.tower import FQ2, FROBENIUS_GAMMA, Fq2, f2_inv, f2_mul, f2_sqr
from repro.field.counters import global_counter
from repro.field.fp import BN254_FQ, BN254_FQ_MODULUS
from repro.field.vector import batch_inverse

_Q = BN254_FQ_MODULUS

# A Jacobian point is (X, Y, Z) with Z == 0 encoding infinity.
JPoint = Tuple[int, int, int]
Affine = Tuple[int, int]

J_INFINITY: JPoint = (1, 1, 0)

# The same over Fq2: coordinates are (c0, c1) pairs, Z == (0, 0) is infinity.
J2Point = Tuple[Fq2, Fq2, Fq2]
Affine2 = Tuple[Fq2, Fq2]

_ZERO2: Fq2 = (0, 0)
_ONE2: Fq2 = (1, 0)
J2_INFINITY: J2Point = (_ONE2, _ONE2, _ZERO2)

SCALAR_BITS = 254  # BN254 Fr scalars


def to_jacobian(p: Point) -> JPoint:
    if p.inf:
        return J_INFINITY
    return (p.x.value, p.y.value, 1)


def to_affine(j: JPoint) -> Point:
    x, y, z = j
    if z == 0:
        return BN254_G1.infinity()
    global_counter().field_inv += 1
    z_inv = pow(z, -1, _Q)
    z2 = (z_inv * z_inv) % _Q
    return BN254_G1.point(
        BN254_FQ((x * z2) % _Q), BN254_FQ((y * z2 * z_inv) % _Q)
    )


def j_double(p: JPoint) -> JPoint:
    """Doubling with the a=0 shortcut (dbl-2009-l)."""
    x, y, z = p
    if z == 0 or y == 0:
        return J_INFINITY
    a = (x * x) % _Q
    b = (y * y) % _Q
    c = (b * b) % _Q
    d = (2 * ((x + b) * (x + b) - a - c)) % _Q
    e = (3 * a) % _Q
    f = (e * e) % _Q
    x3 = (f - 2 * d) % _Q
    y3 = (e * (d - x3) - 8 * c) % _Q
    z3 = (2 * y * z) % _Q
    global_counter().group_add += 1
    return (x3, y3, z3)


def j_add_mixed(p: JPoint, q_affine: Tuple[int, int]) -> JPoint:
    """Mixed addition: Jacobian ``p`` plus affine ``q`` (madd-2007-bl)."""
    x1, y1, z1 = p
    x2, y2 = q_affine
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = (z1 * z1) % _Q
    u2 = (x2 * z1z1) % _Q
    s2 = (y2 * z1 * z1z1) % _Q
    if u2 == x1:
        if s2 == y1:
            return j_double(p)
        return J_INFINITY
    h = (u2 - x1) % _Q
    hh = (h * h) % _Q
    i = (4 * hh) % _Q
    j = (h * i) % _Q
    r = (2 * (s2 - y1)) % _Q
    v = (x1 * i) % _Q
    x3 = (r * r - j - 2 * v) % _Q
    y3 = (r * (v - x3) - 2 * y1 * j) % _Q
    z3 = ((z1 + h) * (z1 + h) - z1z1 - hh) % _Q
    global_counter().group_add += 1
    return (x3, y3, z3)


def j_add(p: JPoint, q: JPoint) -> JPoint:
    """Full Jacobian addition (add-2007-bl)."""
    x1, y1, z1 = p
    x2, y2, z2 = q
    if z1 == 0:
        return q
    if z2 == 0:
        return p
    z1z1 = (z1 * z1) % _Q
    z2z2 = (z2 * z2) % _Q
    u1 = (x1 * z2z2) % _Q
    u2 = (x2 * z1z1) % _Q
    s1 = (y1 * z2 * z2z2) % _Q
    s2 = (y2 * z1 * z1z1) % _Q
    if u1 == u2:
        if s1 == s2:
            return j_double(p)
        return J_INFINITY
    h = (u2 - u1) % _Q
    i = (4 * h * h) % _Q
    j = (h * i) % _Q
    r = (2 * (s2 - s1)) % _Q
    v = (u1 * i) % _Q
    x3 = (r * r - j - 2 * v) % _Q
    y3 = (r * (v - x3) - 2 * s1 * j) % _Q
    # z3 = ((z1+z2)^2 - z1^2 - z2^2) * h = 2 z1 z2 h
    z3 = ((z1 + z2) * (z1 + z2) - z1z1 - z2z2) % _Q * h % _Q
    global_counter().group_add += 1
    return (x3, y3, z3)


def j_neg(p: JPoint) -> JPoint:
    x, y, z = p
    return (x, (-y) % _Q, z)


def j_scalar_mul(p: JPoint, k: int) -> JPoint:
    k %= BN254_G1.order
    acc = J_INFINITY
    add = p
    while k:
        if k & 1:
            acc = j_add(acc, add)
        k >>= 1
        if k:
            add = j_double(add)
    return acc


def batch_normalize(jacobians: Sequence[JPoint]) -> List[Optional[Affine]]:
    """Jacobian -> affine for many G1 points with one field inversion.

    Identity points (``z == 0``) come back as ``None``: ``batch_inverse``'s
    ``zero_ok`` mode maps their lanes to zero, so no caller-side pre-filter
    / re-zip is needed.
    """
    invs = batch_inverse(
        BN254_FQ, [z for _, _, z in jacobians], zero_ok=True
    )
    out: List[Optional[Affine]] = []
    for (x, y, z), zi in zip(jacobians, invs):
        if z == 0:
            out.append(None)
            continue
        zi2 = zi * zi % _Q
        out.append(((x * zi2) % _Q, (y * zi2 * zi) % _Q))
    return out


# -- G2: the same formulas over Fq2 -------------------------------------------------


def j2_double(p: J2Point) -> J2Point:
    """Doubling with the a=0 shortcut (dbl-2009-l) over Fq2."""
    x, y, z = p
    if z == _ZERO2 or y == _ZERO2:
        return J2_INFINITY
    a0, a1 = f2_sqr(x)
    b0, b1 = f2_sqr(y)
    c0, c1 = f2_sqr((b0, b1))
    t0, t1 = f2_sqr((x[0] + b0, x[1] + b1))
    d0 = 2 * (t0 - a0 - c0)
    d1 = 2 * (t1 - a1 - c1)
    e = (3 * a0, 3 * a1)
    f0, f1 = f2_sqr(e)
    x0 = (f0 - 2 * d0) % _Q
    x1 = (f1 - 2 * d1) % _Q
    t0, t1 = f2_mul(e, (d0 - x0, d1 - x1))
    z0, z1 = f2_mul(y, z)
    global_counter().group_add += 1
    return (
        (x0, x1),
        ((t0 - 8 * c0) % _Q, (t1 - 8 * c1) % _Q),
        (2 * z0 % _Q, 2 * z1 % _Q),
    )


def j2_add_mixed(p: J2Point, q_affine: Affine2) -> J2Point:
    """Mixed addition over Fq2: Jacobian ``p`` plus affine ``q``."""
    x1, y1, z1 = p
    x2, y2 = q_affine
    if z1 == _ZERO2:
        return (x2, y2, _ONE2)
    z1z1 = f2_sqr(z1)
    u2 = f2_mul(x2, z1z1)
    s2 = f2_mul(y2, f2_mul(z1, z1z1))
    if u2 == x1:
        if s2 == y1:
            return j2_double(p)
        return J2_INFINITY
    h = (u2[0] - x1[0], u2[1] - x1[1])
    hh0, hh1 = f2_sqr(h)
    i = (4 * hh0, 4 * hh1)
    j0, j1 = f2_mul(h, i)
    r = (2 * (s2[0] - y1[0]), 2 * (s2[1] - y1[1]))
    v0, v1 = f2_mul(x1, i)
    t0, t1 = f2_sqr(r)
    x0 = (t0 - j0 - 2 * v0) % _Q
    x1_ = (t1 - j1 - 2 * v1) % _Q
    t0, t1 = f2_mul(r, (v0 - x0, v1 - x1_))
    u0, u1 = f2_mul(y1, (j0, j1))
    w0, w1 = f2_sqr((z1[0] + h[0], z1[1] + h[1]))
    global_counter().group_add += 1
    return (
        (x0, x1_),
        ((t0 - 2 * u0) % _Q, (t1 - 2 * u1) % _Q),
        ((w0 - z1z1[0] - hh0) % _Q, (w1 - z1z1[1] - hh1) % _Q),
    )


def j2_add(p: J2Point, q: J2Point) -> J2Point:
    """Full Jacobian addition (add-2007-bl) over Fq2."""
    x1, y1, z1 = p
    x2, y2, z2 = q
    if z1 == _ZERO2:
        return q
    if z2 == _ZERO2:
        return p
    z1z1 = f2_sqr(z1)
    z2z2 = f2_sqr(z2)
    u1 = f2_mul(x1, z2z2)
    u2 = f2_mul(x2, z1z1)
    s1 = f2_mul(y1, f2_mul(z2, z2z2))
    s2 = f2_mul(y2, f2_mul(z1, z1z1))
    if u1 == u2:
        if s1 == s2:
            return j2_double(p)
        return J2_INFINITY
    h = (u2[0] - u1[0], u2[1] - u1[1])
    t0, t1 = f2_sqr(h)
    i = (4 * t0, 4 * t1)
    j0, j1 = f2_mul(h, i)
    r = (2 * (s2[0] - s1[0]), 2 * (s2[1] - s1[1]))
    v0, v1 = f2_mul(u1, i)
    t0, t1 = f2_sqr(r)
    x0 = (t0 - j0 - 2 * v0) % _Q
    x1_ = (t1 - j1 - 2 * v1) % _Q
    t0, t1 = f2_mul(r, (v0 - x0, v1 - x1_))
    w0, w1 = f2_mul(s1, (j0, j1))
    s0, s1_ = f2_sqr((z1[0] + z2[0], z1[1] + z2[1]))
    global_counter().group_add += 1
    return (
        (x0, x1_),
        ((t0 - 2 * w0) % _Q, (t1 - 2 * w1) % _Q),
        f2_mul((s0 - z1z1[0] - z2z2[0], s1_ - z1z1[1] - z2z2[1]), h),
    )


def to_jacobian_g2(p: Point) -> J2Point:
    if p.inf:
        return J2_INFINITY
    return (p.x.coeffs, p.y.coeffs, _ONE2)


def to_affine_g2(j: J2Point) -> Point:
    return _lower_g2(batch_normalize_g2([j])[0])


def batch_normalize_g2(
    jacobians: Sequence[J2Point],
) -> List[Optional[Affine2]]:
    """:func:`batch_normalize` over Fq2: one inversion for the whole vector."""
    prefix: List[Fq2] = []
    acc = _ONE2
    for _, _, z in jacobians:
        prefix.append(acc)
        if z != _ZERO2:
            acc = f2_mul(acc, z)
    inv = f2_inv(acc)
    out: List[Optional[Affine2]] = [None] * len(jacobians)
    for k in range(len(jacobians) - 1, -1, -1):
        x, y, z = jacobians[k]
        if z == _ZERO2:
            continue
        zi = f2_mul(inv, prefix[k])
        inv = f2_mul(inv, z)
        zi2 = f2_sqr(zi)
        out[k] = (f2_mul(x, zi2), f2_mul(y, f2_mul(zi2, zi)))
    return out


# -- written once for both groups -------------------------------------------------


class _Formulas(NamedTuple):
    """One group's Jacobian formulas plus the conversions around them."""

    group: CurveGroup
    infinity: Any  # Z == infinity[2] marks the identity
    double: Callable
    add: Callable
    add_mixed: Callable
    lift: Callable[[Point], Any]  # finite affine Point -> raw (x, y)
    negate: Callable  # raw (x, y) -> raw (x, -y)
    lower: Callable[[Any], Point]  # raw (x, y) or None -> affine Point
    normalize: Callable  # Jacobian points -> raw (x, y) or None, 1 inversion
    sums: Callable  # raw pairs -> their affine sums, 1 inversion (affine.py)


def _lower_g1(a: Optional[Affine]) -> Point:
    if a is None:
        return BN254_G1.infinity()
    return Point(BN254_G1, BN254_FQ(a[0]), BN254_FQ(a[1]))


def _lower_g2(a: Optional[Affine2]) -> Point:
    if a is None:
        return BN254_G2.infinity()
    return Point(BN254_G2, FQ2.from_raw(a[0]), FQ2.from_raw(a[1]))


_FORMULAS = {
    BN254_G1: _Formulas(
        BN254_G1, J_INFINITY, j_double, j_add, j_add_mixed,
        lambda p: (p.x.value, p.y.value),
        lambda a: (a[0], -a[1] % _Q),
        _lower_g1, batch_normalize, g1_sums,
    ),
    BN254_G2: _Formulas(
        BN254_G2, J2_INFINITY, j2_double, j2_add, j2_add_mixed,
        lambda p: (p.x.coeffs, p.y.coeffs),
        lambda a: (a[0], (-a[1][0] % _Q, -a[1][1] % _Q)),
        _lower_g2, batch_normalize_g2, g2_sums,
    ),
}


def _double_and_add(fm: _Formulas, base, k: int):
    """``k * base`` (raw affine ``base``, ``k > 0``) as a Jacobian point."""
    double, add_mixed = fm.double, fm.add_mixed
    acc = add_mixed(fm.infinity, base)
    for bit in bin(k)[3:]:
        acc = double(acc)
        if bit == "1":
            acc = add_mixed(acc, base)
    return acc


def scalar_mul(p: Point, k: int) -> Point:
    """``k * p`` on G1 or G2: double-and-add with mixed additions, one
    inversion to normalize the result."""
    fm = _FORMULAS[p.group]
    k %= p.group.order
    if k == 0 or p.inf:
        return p.group.infinity()
    global_counter().group_scalar_mul += 1
    return fm.lower(fm.normalize([_double_and_add(fm, fm.lift(p), k)])[0])


_PSI_X, _PSI_Y = FROBENIUS_GAMMA[0][2], FROBENIUS_GAMMA[0][3]


def j2_psi(p: J2Point) -> J2Point:
    """``psi``, the q-power Frobenius of the untwisted point back on the
    twist (:func:`repro.ec.bn254._twist_frobenius`) on Jacobian
    coordinates: conjugation commutes with ``X/Z^2`` and ``Y/Z^3``, so Z is
    conjugated too.  On G2, ``psi`` is multiplication by ``q mod r``."""
    (x0, x1), (y0, y1), (z0, z1) = p
    return (
        f2_mul((x0, -x1 % _Q), _PSI_X),
        f2_mul((y0, -y1 % _Q), _PSI_Y),
        (z0, -z1 % _Q),
    )


def j2_equal(p: J2Point, q: J2Point) -> bool:
    """Do two Jacobian points represent the same affine point?  (By
    cross-multiplication: no inversion.)"""
    x1, y1, z1 = p
    x2, y2, z2 = q
    if z1 == _ZERO2 or z2 == _ZERO2:
        return z1 == z2
    z1z1 = f2_sqr(z1)
    z2z2 = f2_sqr(z2)
    return f2_mul(x1, z2z2) == f2_mul(x2, z1z1) and f2_mul(
        y1, f2_mul(z2, z2z2)
    ) == f2_mul(y2, f2_mul(z1, z1z1))


def in_subgroup(p: Point) -> bool:
    """Is a point *already known to be on its curve* in the order-r
    subgroup?  Always on G1, whose cofactor is 1.

    On G2 (cofactor ~2^254) the test is Scott's (ePrint 2021/1130):
    ``[u+1]P + psi([u]P) + psi^2([u]P) == psi^3([2u]P)`` — one 63-bit
    scalar multiplication by the BN parameter ``u`` instead of a 254-bit
    one by ``r``.  It is sound for points of E'(Fq2) only: the element
    ``(u+1) + uX + uX^2 - 2uX^3`` of ``Z[X] / (X^2 - tX + q)`` has a norm
    divisible by r and prime to the cofactor ``2q - r``, and r^2 does not
    divide #E'(Fq2), so only the order-r points satisfy it
    (El Housni–Guillevic–Piellard, ePrint 2022/352).  Off the curve the
    answer means nothing; decoders check the curve equation first.
    """
    if p.inf or p.group is BN254_G1:
        return True
    base = (p.x.coeffs, p.y.coeffs)
    up = _double_and_add(_FORMULAS[BN254_G2], base, BN_U)
    psi1 = j2_psi(up)
    psi2 = j2_psi(psi1)
    lhs = j2_add(j2_add(j2_add_mixed(up, base), psi1), psi2)
    return j2_equal(lhs, j2_double(j2_psi(psi2)))


def msm_jacobian(
    points: Sequence[Point],
    scalars: Sequence[int],
    window: Optional[int] = None,
    group: CurveGroup = BN254_G1,
) -> Point:
    """Pippenger MSM with Jacobian buckets and affine input points.

    Bucket accumulation uses inversion-free mixed additions — the
    production layout.  ``group`` names the identity returned for the
    empty sum; otherwise the points' own group picks the formulas.
    """
    if len(points) != len(scalars):
        raise ValueError(
            f"points/scalars length mismatch: {len(points)} vs {len(scalars)}"
        )
    if not points:
        return group.infinity()  # the empty sum is the group identity
    fm = _FORMULAS[points[0].group]
    double, add, add_mixed = fm.double, fm.add, fm.add_mixed
    infinity = fm.infinity
    order = fm.group.order
    # A scalar above r/2 is the negative of a shorter one: -k * P = k * (-P).
    # Witness vectors are mostly small signed values, so this is what bounds
    # max_bits (and with it the number of windows) on real inputs.
    affine = []
    reduced = []
    for p, k in zip(points, scalars):
        k %= order
        if k == 0 or p.inf:
            continue
        a = fm.lift(p)
        if 2 * k > order:
            k = order - k
            a = fm.negate(a)
        affine.append(a)
        reduced.append(k)
    # Sized by what is left and how wide it is, not by the call's length
    # and 254 bits: the SHAL:micro b2 query is 17 live 10-bit scalars of 281.
    max_bits = max((k.bit_length() for k in reduced), default=1)
    c = window or pick_window(len(affine), max_bits)
    num_windows = (max_bits + c - 1) // c

    total = infinity
    mask = (1 << c) - 1
    for w in range(num_windows - 1, -1, -1):
        if w != num_windows - 1:
            for _ in range(c):
                total = double(total)
        shift = w * c
        buckets = [infinity] * mask
        for pt, scalar in zip(affine, reduced):
            idx = (scalar >> shift) & mask
            if idx:
                buckets[idx - 1] = add_mixed(buckets[idx - 1], pt)
        running = infinity
        window_sum = infinity
        for bucket in reversed(buckets):
            running = add(running, bucket)
            window_sum = add(window_sum, running)
        total = add(total, window_sum)
    return fm.lower(fm.normalize([total])[0])


def _base_table_cost(c: int, n: int) -> int:
    """Batch-affine additions a window-``c`` :class:`BaseTable` and ``n``
    multiples from it cost: one per window per scalar, one per table entry
    (an entry is a lane of the same batched rounds, ``2^(c-1)`` of them per
    window), and the doubling chain of the window steps (~one doubling per
    scalar bit, each weighed as one addition)."""
    return SCALAR_BITS + signed_windows(SCALAR_BITS, c) * ((1 << (c - 1)) + n)


# Double-and-add in the same unit: a Jacobian doubling (2M + 5S) per bit
# weighed as one batch-affine addition (~5M + 1S), a mixed addition
# (7M + 4S) per set bit as two.  The model puts the crossover between one
# and two multiples; measured, one costs 1.7 ms (G1) / 5.1 ms (G2) by
# double-and-add against 2.6 / 6.5 through a table, two cost 3.5 / 11.3
# against 2.8 / 7.1.
_DOUBLE_AND_ADD_COST = SCALAR_BITS + 2 * (SCALAR_BITS // 2)

# Window of a table that outlives the call (a proving key's delta_1 and
# delta_2).  Measured build ms G1 / G2, and a proof's three multiples
# (two of delta_1, one of delta_2) in ms: c = 3: 2.6 / 6.4, 1.69; c = 4:
# 3.3 / 8.0, 1.39; c = 5: 4.7 / 11.3, 1.24 (double-and-add: 8.5).  So 4
# repays 3 within 8 proofs and 5 repays 4 only after 31.
KEPT_BASE_WINDOW = 4

# Scalars whose table multiples are summed in one batch of rounds: the
# batch bounds the points held at once (~37 per scalar at c = 7), so one
# set-up's few thousand multiples do not peak at once.
MULTIPLES_BATCH = 64


class BaseTable:
    """Every signed-digit multiple of one fixed G1 or G2 point.

    ``d * 2^(c j) * base`` for ``1 <= d <= 2^(c-1)`` and every window
    ``j``; a multiple ``k * base`` is then the sum of one entry per
    non-zero signed digit of ``k`` — no doubling.  Both the table and the
    multiples are batch-affine rounds (:func:`repro.ec.affine.
    batch_reduce`): the table one lane per window, ``d * step + step`` in
    round ``d`` (round 1, ``step + step``, takes the tangent), after one
    normalized doubling chain for the steps; the multiples
    :data:`MULTIPLES_BATCH` scalars at a time, each scalar's entries one
    list.  Set-up builds one per vector of generator multiples and drops
    it (:func:`base_multiples`); a proving key keeps one each for delta_1
    and delta_2, whose multiples blind every proof.  ``uses`` counts
    :meth:`multiples` calls.
    """

    def __init__(self, base: Point, window: int) -> None:
        if base.inf:
            raise ValueError("no table of multiples of the identity")
        self.fm = fm = _FORMULAS[base.group]
        self.window = window
        self.num_windows = signed_windows(SCALAR_BITS, window)
        self.uses = 0
        half = 1 << (window - 1)
        step = fm.add_mixed(fm.infinity, fm.lift(base))
        steps = [step]
        for _ in range(self.num_windows - 1):
            for _ in range(window):
                step = fm.double(step)
            steps.append(step)
        # base has prime order r and no d * 2^(c j) is a multiple of r:
        # no entry is the identity, and only round 1 doubles.
        column = steps = fm.normalize(steps)
        columns = [column]
        for _ in range(half - 1):
            column = fm.sums(column, steps)
            columns.append(column)
        self.table = [entry for row in zip(*columns) for entry in row]

    def multiples(self, scalars: Sequence[int]) -> List[Point]:
        """``[k * base for k in scalars]``: one inversion per round of
        each batch of :data:`MULTIPLES_BATCH` scalars."""
        self.uses += 1
        fm = self.fm
        negate, table, sums = fm.negate, self.table, fm.sums
        c, num_windows = self.window, self.num_windows
        half = 1 << (c - 1)
        order = fm.group.order
        reduced = [k % order for k in scalars]
        global_counter().group_scalar_mul += sum(1 for k in reduced if k)
        out: List[Point] = []
        for lo in range(0, len(reduced), MULTIPLES_BATCH):
            lists = []
            for k in reduced[lo : lo + MULTIPLES_BATCH]:
                entries = []
                for j, d in enumerate(signed_digits(k, c, num_windows)):
                    if d > 0:
                        entries.append(table[j * half + d - 1])
                    elif d < 0:
                        entries.append(negate(table[j * half - d - 1]))
                lists.append(entries)
            out += [fm.lower(a) for a in batch_reduce(lists, sums)]
        return out


def base_multiples(base: Point, scalars: Sequence[int]) -> List[Point]:
    """``[k * base for k in scalars]``: by a :class:`BaseTable` sized for
    this many multiples and local to the call, or by double-and-add when
    there are too few to pay for one."""
    order = base.group.order
    live = sum(1 for k in scalars if k % order)
    if base.inf or not live:
        return [base.group.infinity()] * len(scalars)
    cost, c = min(
        (_base_table_cost(c, live), c) for c in range(2, MAX_WINDOW + 1)
    )
    if cost > live * _DOUBLE_AND_ADD_COST:
        return [scalar_mul(base, k) for k in scalars]
    return BaseTable(base, c).multiples(scalars)
