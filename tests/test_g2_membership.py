"""The G2 membership test by endomorphism, held to what it replaced.

:func:`repro.ec.jacobian.in_subgroup` checks
``[u+1]P + psi([u]P) + psi^2([u]P) == psi^3([2u]P)`` instead of
``[r]P == O``.  Here: the integer facts that make that sound, the
endomorphism ``psi`` it is built on, a differential run against the
``[r]P`` oracle (:func:`tests.pairing_oracle.in_subgroup_by_order`) over
every kind of twist point, and a guard that the old check does not come
back under ``src/``.
"""

import ast
import inspect
import random
import re
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import bn254, jacobian
from repro.ec.bn254 import BN254_G1, BN254_G2, BN_U
from repro.ec.jacobian import (
    _FORMULAS,
    _double_and_add,
    in_subgroup,
    j2_add,
    j2_double,
    j2_equal,
    j2_psi,
    scalar_mul,
    to_affine_g2,
    to_jacobian_g2,
)
from repro.ec.tower import FQ2
from repro.field.fp import BN254_FQ_MODULUS as Q, BN254_FR_MODULUS as R
from repro.snark.serialize import sqrt_fq2
from tests.pairing_oracle import in_subgroup_by_order

G2 = BN254_G2.generator
T = Q + 1 - R  # trace of Frobenius of E(Fq)
H2 = 2 * Q - R  # cofactor of G2 in E'(Fq2)
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def raw_mul(p, k: int):
    """``[k]P`` with ``k`` NOT reduced mod r — what the cofactor algebra needs
    (``scalar_mul`` and ``CurveGroup.scalar_mul`` both reduce)."""
    if p.inf or k == 0:
        return BN254_G2.infinity()
    if k < 0:
        return raw_mul(-p, -k)
    return to_affine_g2(_double_and_add(_FORMULAS[BN254_G2], _lift(p), k))


def _lift(p):
    return (p.x.coeffs, p.y.coeffs)


def psi(p):
    return to_affine_g2(j2_psi(to_jacobian_g2(p)))


def twist_point(x0: int, x1: int):
    """The twist point with ``x = x0 + x1 u``, or None if ``x^3 + b`` is not
    a square in Fq2."""
    x = FQ2([x0, x1])
    y = sqrt_fq2(x * x * x + BN254_G2.b)
    return None if y is None else BN254_G2.point(x, y)


def random_twist_points(rng, count: int):
    out = []
    while len(out) < count:
        p = twist_point(rng.randrange(Q), rng.randrange(Q))
        if p is not None:
            out.append(p)
    return out


class TestAlgebra:
    """(i) The soundness argument as integer facts."""

    def test_trace_and_twist_order(self):
        assert T == 6 * BN_U**2 + 1
        # #E'(Fq2) = (q + 1 - t)(q - 1 + t) = r * (2q - r)
        assert (Q + 1 - T) * (Q - 1 + T) == R * H2

    def test_norm_of_the_test_element(self):
        """phi = (u+1) + uX + uX^2 - 2uX^3 in Z[X]/(X^2 - tX + q): its norm
        is divisible by r and prime to the cofactor, and r^2 does not
        divide #E'(Fq2) — so ker(phi(psi)) on E'(Fq2) is exactly G2."""
        u = BN_U
        # X^2 = tX - q and X^3 = (t^2 - q)X - tq reduce phi to a + bX.
        a = (u + 1) - u * Q + 2 * u * T * Q
        b = u + u * T - 2 * u * (T * T - Q)
        norm = a * a + a * b * T + b * b * Q  # N(a + bX), X X' = q, X + X' = t
        assert norm % R == 0
        assert gcd(norm, H2) == 1
        assert gcd(R, H2) == 1
        assert (R * H2) % (R * R) != 0

    def test_the_twist_order_kills_random_points(self):
        for p in random_twist_points(random.Random(11), 2):
            assert raw_mul(p, R * H2).inf
            assert not raw_mul(p, R).inf  # ... and r alone does not


class TestPsi:
    """(ii) psi is the endomorphism the test assumes."""

    def test_characteristic_equation_on_twist_points(self):
        """psi^2 - [t] psi + [q] = O on E'(Fq2), not only on G2."""
        for p in random_twist_points(random.Random(5), 3):
            psi_p = psi(p)
            lhs = BN254_G2.add(psi(psi_p), raw_mul(p, Q))
            assert lhs == raw_mul(psi_p, T)

    def test_psi_is_multiplication_by_q_on_g2(self):
        rng = random.Random(6)
        for _ in range(3):
            point = scalar_mul(G2, rng.randrange(1, R))
            assert psi(point) == scalar_mul(point, Q % R)

    def test_jacobian_psi_is_the_affine_twist_frobenius(self):
        """On normalised and on Z != 1 inputs, and on infinity."""
        point = scalar_mul(G2, 77)
        x, y = bn254._twist_frobenius(*_lift(point))
        assert _lift(psi(point)) == (x, y)
        scaled = j2_double(to_jacobian_g2(scalar_mul(G2, 3)))  # 6 G2, Z != 1
        assert to_affine_g2(j2_psi(scaled)) == psi(scalar_mul(G2, 6))
        assert j2_psi(jacobian.J2_INFINITY)[2] == (0, 0)

    def test_jacobian_equality(self):
        p = to_jacobian_g2(scalar_mul(G2, 6))
        q = j2_double(to_jacobian_g2(scalar_mul(G2, 3)))
        assert j2_equal(p, q) and j2_equal(q, p)
        assert not j2_equal(p, j2_add(q, to_jacobian_g2(G2)))
        assert not j2_equal(p, jacobian.J2_INFINITY)
        assert j2_equal(jacobian.J2_INFINITY, jacobian.J2_INFINITY)


_KINDS = ("twist", "g2", "cofactor", "mixed", "infinity")


class TestAgainstTheOrderOracle:
    """(iii) Same verdict as ``[r]P == O`` on every kind of point."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(_KINDS),
        x0=st.integers(0, Q - 1),
        x1=st.integers(0, Q - 1),
        k=st.integers(1, R - 1),
        negate=st.booleans(),
    )
    def test_differential(self, kind, x0, x1, k, negate):
        if kind == "infinity":
            point = BN254_G2.infinity()
        elif kind == "g2":
            point = scalar_mul(G2, k)
        else:
            point = None
            while point is None:  # the next x whose x^3 + b is a square
                point = twist_point(x0, x1)
                x0 = (x0 + 1) % Q
            if kind == "cofactor":  # pure cofactor part: order divides 2q - r
                point = raw_mul(point, R)
            elif kind == "mixed":  # a G2 point plus a cofactor part
                point = BN254_G2.add(scalar_mul(G2, k), raw_mul(point, R))
        if negate:
            point = -point
        assert BN254_G2.is_on_curve(point)
        want = in_subgroup_by_order(point)
        assert in_subgroup(point) == want
        if kind in ("g2", "infinity"):
            assert want

    def test_each_off_subgroup_kind_is_rejected(self):
        """Pinned instances of the kinds the differential draws, so both
        verdicts are exercised whatever hypothesis picks."""
        twist = random_twist_points(random.Random(3), 1)[0]
        cofactor = raw_mul(twist, R)
        mixed = BN254_G2.add(scalar_mul(G2, 5), cofactor)
        for point in (twist, cofactor, mixed, -mixed):
            assert not in_subgroup_by_order(point)
            assert not in_subgroup(point)
        for point in (G2, -G2, scalar_mul(G2, R - 1), BN254_G2.infinity()):
            assert in_subgroup(point)

    def test_g1_is_always_inside(self):
        assert in_subgroup(BN254_G1.generator)
        assert in_subgroup(scalar_mul(BN254_G1.generator, 12345))
        assert in_subgroup(BN254_G1.infinity())


class TestStructure:
    """(iv) One membership test, one final exponentiation, under ``src/``."""

    def sources(self):
        return {
            str(path.relative_to(SRC)): path.read_text()
            for path in SRC.rglob("*.py")
        }

    def test_no_membership_check_multiplies_by_the_group_order(self):
        by_order = re.compile(r"_double_and_add\([^)]*\border\b")
        owners = {p for p, text in self.sources().items() if by_order.search(text)}
        assert not owners, owners
        assert "order" not in inspect.getsource(in_subgroup).split('"""')[-1]

    def test_one_definition_each(self):
        sources = self.sources()
        for definition, owner in (
            ("def in_subgroup(", "ec/jacobian.py"),
            ("def j2_psi(", "ec/jacobian.py"),
            ("def f12_cyclotomic_sqr(", "ec/tower.py"),
            ("def _final_exponentiation(", "ec/bn254.py"),
        ):
            counts = {
                path: text.count(definition)
                for path, text in sources.items() if definition in text
            }
            assert counts == {owner: 1}, (definition, counts)

    def test_final_exponentiation_squares_cyclotomically(self):
        tree = ast.parse((SRC / "ec" / "bn254.py").read_text())
        bodies = {
            node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in ("_final_exponentiation", "_cyclotomic_pow_u")
        }
        assert len(bodies) == 2
        for name, node in bodies.items():
            used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            assert not used & {"f12_sqr", "f12_pow"}, name
            assert "f12_cyclotomic_sqr" in used, name
