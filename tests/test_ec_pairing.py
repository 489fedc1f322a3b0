"""Tests for the BN254 optimal-ate pairing.

The tower pairing in :mod:`repro.ec.bn254` is held, value for value, to the
py_ecc-shaped oracle in :mod:`tests.pairing_oracle` (the implementation
``src/`` used to run): same reduced pairing, not a fixed power of it.
"""

import random
import re
from pathlib import Path

import pytest

from repro.ec import bn254
from repro.ec.bn254 import (
    ATE_LOOP_COUNT,
    BN254_G1,
    BN254_G2,
    BN_U,
    HARD_PART_LAMBDAS,
    bn254_pairing,
    final_exponentiate,
    miller_loop,
    pairing_product_is_one,
)
from repro.ec.jacobian import scalar_mul
from repro.ec.tower import (
    FQ12,
    f12_conj,
    f12_cyclotomic_sqr,
    f12_frobenius,
    f12_inv,
    f12_mul,
    f12_pow,
    f12_sqr,
)
from repro.field.counters import count_ops
from repro.field.fp import BN254_FQ_MODULUS as Q
from tests import pairing_oracle
from tests.pairing_oracle import ORACLE_G12, oracle_pairing, to_flat, twist

R = BN254_G1.order
G1, G2 = BN254_G1.generator, BN254_G2.generator


class TestParameters:
    def test_ate_loop_count(self):
        assert ATE_LOOP_COUNT == 6 * BN_U + 2
        assert ATE_LOOP_COUNT == pairing_oracle.ATE_LOOP_COUNT

    def test_signed_digits_rebuild_the_loop_count(self):
        value = 1
        for digit in bn254._ATE_DIGITS:
            value = 2 * value + digit
        assert value == ATE_LOOP_COUNT
        # one line per doubling, per addition, plus the two Frobenius lines
        assert len(bn254._LINE_SQUARES) == len(bn254._ATE_DIGITS) + sum(
            1 for d in bn254._ATE_DIGITS if d
        ) + 2

    def test_hard_part_decomposition_is_exact(self):
        """The integer identity behind the short final exponentiation."""
        assert sum(l * Q**i for i, l in enumerate(HARD_PART_LAMBDAS)) * R == (
            Q**4 - Q**2 + 1
        )
        assert (Q**6 - 1) * (Q**2 + 1) * (Q**4 - Q**2 + 1) == Q**12 - 1
        assert pairing_oracle.FINAL_EXP_POWER * R == Q**12 - 1

    def test_twist_lands_on_g12_curve(self):
        assert ORACLE_G12.is_on_curve(twist(G2))

    def test_twist_of_infinity(self):
        assert twist(BN254_G2.infinity()).is_infinity()


class TestAgainstOracle:
    def test_equal_gt_values_on_random_pairs(self):
        rng = random.Random(0xBEEF)
        for _ in range(8):
            p = BN254_G1.scalar_mul(G1, rng.randrange(1, R))
            q = BN254_G2.scalar_mul(G2, rng.randrange(1, R))
            assert to_flat(bn254_pairing(p, q)) == oracle_pairing(p, q)

    def test_final_exponentiation_matches_the_naive_power(self):
        f = miller_loop(G2, G1)
        naive = to_flat(f) ** pairing_oracle.FINAL_EXP_POWER
        assert to_flat(final_exponentiate(f)) == naive

    def test_final_exponentiation_of_multi_pair_miller_values(self):
        """Eight products of random pairs, not just e(G1, G2): the
        cyclotomic hard part against the naive power."""
        for f in random_miller_values(8, seed=0xF1):
            naive = to_flat(FQ12.from_raw(f)) ** pairing_oracle.FINAL_EXP_POWER
            fast = FQ12.from_raw(bn254._final_exponentiation(f))
            assert to_flat(fast) == naive


def random_miller_values(count, seed, pairs=3):
    rng = random.Random(seed)

    def pair():
        return (
            scalar_mul(G1, rng.randrange(1, R)),
            scalar_mul(G2, rng.randrange(1, R)),
        )

    return [
        bn254._miller_product([pair() for _ in range(pairs)])
        for _ in range(count)
    ]


def easy_part(f):
    """``f^((q^6 - 1)(q^2 + 1))``: into the cyclotomic subgroup."""
    f = f12_mul(f12_conj(f), f12_inv(f))
    return f12_mul(f12_frobenius(f, 2), f)


class TestCyclotomic:
    def test_cyclotomic_square_is_the_square_after_the_easy_part(self):
        for f in random_miller_values(4, seed=0xC7, pairs=2):
            g = easy_part(f)
            assert f12_cyclotomic_sqr(g) == f12_sqr(g)
            # a formula for the subgroup only: a raw Miller value is outside
            assert f12_cyclotomic_sqr(f) != f12_sqr(f)

    def test_power_by_u_over_its_signed_digits(self):
        g = easy_part(random_miller_values(1, seed=0xA5, pairs=1)[0])
        assert bn254._cyclotomic_pow_u(g) == f12_pow(g, BN_U)
        value = 1
        for digit in bn254._U_DIGITS:
            value = 2 * value + digit
        assert value == BN_U


class TestPairing:
    @pytest.fixture(scope="class")
    def e_g1_g2(self):
        return bn254_pairing(G1, G2)

    def test_nondegenerate(self, e_g1_g2):
        assert e_g1_g2 != FQ12.one()

    def test_output_in_rth_roots(self, e_g1_g2):
        assert e_g1_g2**R == FQ12.one()

    def test_bilinear_left(self, e_g1_g2):
        e = bn254_pairing(3 * G1, G2)
        assert e == e_g1_g2**3

    def test_bilinear_right(self, e_g1_g2):
        e = bn254_pairing(G1, 5 * G2)
        assert e == e_g1_g2**5

    def test_bilinear_both_sides_random(self, e_g1_g2):
        rng = random.Random(7)
        a, b = rng.randrange(1, R), rng.randrange(1, R)
        e = bn254_pairing(BN254_G1.scalar_mul(G1, a), BN254_G2.scalar_mul(G2, b))
        assert e == e_g1_g2 ** (a * b % R)

    def test_argument_order_enforced(self):
        with pytest.raises(ValueError):
            bn254_pairing(G2, G1)

    def test_infinity_on_either_side(self):
        assert bn254_pairing(BN254_G1.infinity(), G2) == FQ12.one()
        assert bn254_pairing(G1, BN254_G2.infinity()) == FQ12.one()

    def test_miller_loop_infinity_short_circuits(self):
        assert miller_loop(BN254_G2.infinity(), G1) == FQ12.one()
        assert miller_loop(G2, BN254_G1.infinity()) == FQ12.one()

    def test_product_check_accepts_cancelling_pairs(self):
        # e(2G1, G2) * e(-G1, 2G2) = e(G1,G2)^2 * e(G1,G2)^-2 = 1
        assert pairing_product_is_one(((2 * G1, G2), (-G1, 2 * G2)))

    def test_product_check_rejects_unbalanced_pairs(self):
        assert not pairing_product_is_one(((2 * G1, G2), (-G1, G2)))

    def test_final_exponentiation_idempotent_on_one(self):
        assert final_exponentiate(FQ12.one()) == FQ12.one()


class TestProductCheck:
    def test_repeated_q(self):
        # e(3G1, Q) e(4G1, Q) e(-7G1, Q) = 1 with one prepared Q
        q = 9 * G2
        assert pairing_product_is_one(((3 * G1, q), (4 * G1, q), (-(7 * G1), q)))
        assert not pairing_product_is_one(((3 * G1, q), (4 * G1, q), (-(6 * G1), q)))

    def test_single_pair_and_empty(self):
        assert not pairing_product_is_one(((G1, G2),))
        assert pairing_product_is_one(((BN254_G1.infinity(), G2),))
        assert pairing_product_is_one(())

    def test_counts_the_pairs_actually_run(self):
        with count_ops() as ops:
            pairing_product_is_one(
                ((2 * G1, G2), (-G1, 2 * G2), (BN254_G1.infinity(), G2))
            )
        assert ops.pairing == 2
        # a fixed pair runs its Miller loop on a memo miss only
        bn254._FIXED.clear()
        pairs, fixed = ((-(6 * G1), G2),), ((3 * G1, 2 * G2),)
        for expected in (2, 1):
            with count_ops() as ops:
                assert pairing_product_is_one(pairs, fixed)
            assert ops.pairing == expected

    def test_memo_overflow_still_answers_correctly(self):
        bn254._PREPARED.clear()
        count = bn254.PREPARED_G2_MAX + 3
        qs = [BN254_G2.scalar_mul(G2, k) for k in range(2, 2 + count)]
        # sum_k e(G1, kG2) * e(-(sum k) G1, G2) == 1
        total = sum(range(2, 2 + count))
        pairs = [(G1, q) for q in qs] + [(-(total * G1), G2)]
        assert pairing_product_is_one(pairs)
        assert len(bn254._PREPARED) == bn254.PREPARED_G2_MAX
        # the evicted points are prepared afresh and still pair correctly
        assert qs[0].x.coeffs + qs[0].y.coeffs not in bn254._PREPARED
        assert pairing_product_is_one(((2 * G1, G2), (-G1, qs[0])))
        assert not pairing_product_is_one(pairs[:-1] + [(-(total * G1), 2 * G2)])

    def test_fixed_pairs_leave_the_miller_value_unchanged(self):
        pairs = [(2 * G1, G2), (-(5 * G1), 3 * G2)]
        fixed = [(7 * G1, 4 * G2)]
        bn254._FIXED.clear()
        assert f12_mul(
            bn254._miller_product(pairs), bn254._fixed_miller(*fixed[0])
        ) == bn254._miller_product(pairs + fixed)

    def test_fixed_memo_cold_warm_and_after_overflow(self):
        """``PREPARED_G2_MAX + 3`` keys: each answers the same cold, warm
        and after it was evicted; a wrong product is rejected throughout."""
        bn254._FIXED.clear()
        count = bn254.PREPARED_G2_MAX + 3
        keys = [(k * G1, G2) for k in range(2, 2 + count)]

        def check(k):
            alpha, beta = keys[k]
            good = ((-((k + 2) * G1), G2),)
            bad = ((-((k + 3) * G1), G2),)
            return (
                pairing_product_is_one(good, ((alpha, beta),)),
                pairing_product_is_one(bad, ((alpha, beta),)),
            )

        first = check(0)
        assert first == (True, False) == check(0)  # cold, then warm
        for k in range(1, count):
            assert check(k) == (True, False)
        assert len(bn254._FIXED) == bn254.PREPARED_G2_MAX
        alpha, beta = keys[0]
        key = (alpha.x.value, alpha.y.value) + beta.x.coeffs + beta.y.coeffs
        assert key not in bn254._FIXED
        assert check(0) == (True, False)  # evicted, recomputed

    def test_keys_sharing_beta_do_not_share_an_entry(self):
        bn254._FIXED.clear()
        beta = 5 * G2
        pairs = ((-(15 * G1), G2),)
        assert pairing_product_is_one(pairs, ((3 * G1, beta),))
        assert not pairing_product_is_one(pairs, ((7 * G1, beta),))
        assert pairing_product_is_one(((-(35 * G1), G2),), ((7 * G1, beta),))
        assert len(bn254._FIXED) == 2
        assert pairing_product_is_one(pairs, ((3 * G1, beta),))

    def test_fixed_infinity_contributes_one(self):
        assert pairing_product_is_one((), ((BN254_G1.infinity(), G2),))
        at_infinity = ((G1, BN254_G2.infinity()),)
        assert not pairing_product_is_one(((G1, G2),), at_infinity)

    def test_memo_returns_the_same_lines(self):
        bn254._PREPARED.clear()
        first = bn254._prepare_g2(G2)
        assert bn254._prepare_g2(G2) is first
        bn254._PREPARED.clear()
        assert bn254._prepare_g2(G2) == first


def test_one_pairing_under_src():
    """The py_ecc-shaped pairing lives on only as the oracle under
    ``tests/``: nothing under ``src/repro`` lifts points onto an Fq12 curve,
    divides polynomials, or powers by the full ``(q^12 - 1)/r``."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    sources = {
        str(path.relative_to(src)): path.read_text() for path in src.rglob("*.py")
    }
    for name in ("_linefunc", "BN254_G12", "_poly_div", "embed_g1"):
        owners = {path for path, text in sources.items() if name in text}
        assert not owners, (name, owners)
    exponent = re.compile(r"\*\*\s*\(?\s*FINAL_EXP_POWER|pow\([^)]*FINAL_EXP_POWER")
    assert not {path for path, text in sources.items() if exponent.search(text)}
    # one Miller loop, one final exponentiation, one G2 preparation
    for definition in ("def _miller_product(", "def _final_exponentiation(",
                       "def _prepare_g2("):
        counts = {
            path: text.count(definition)
            for path, text in sources.items() if definition in text
        }
        assert counts == {"ec/bn254.py": 1}, (definition, counts)
