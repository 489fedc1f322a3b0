"""Cross-variant MSM tests: batch-affine, Jacobian and fixed-base engines.

Every engine in :mod:`repro.ec` must agree with naive double-and-add on
the same inputs — including the adversarial scalars (zero, negative,
exact order multiples) and the degenerate point patterns (duplicates,
``P`` with ``-P``, explicit infinities) that exercise the cancellation
and tangent branches of the batch-affine reducer.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.batch_affine import msm_batch_affine
from repro.ec.bn254 import BN254_G1
from repro.ec.fixed_base import FixedBaseTableG1, batch_normalize
from repro.ec.jacobian import msm_jacobian, to_jacobian
from repro.ec.msm import msm, msm_naive, signed_digits

R = BN254_G1.order
G = BN254_G1.generator


def _points(count, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(1, 100_000) * G for _ in range(count)]


def _variants(points, scalars, window=None):
    """Every MSM engine's answer for one input, labelled."""
    out = {
        "affine": msm(points, scalars, window=window, group=BN254_G1),
        "jacobian": msm_jacobian(points, scalars, window=window),
        "batch_affine": msm_batch_affine(points, scalars, window=window),
    }
    table = FixedBaseTableG1(points, window=window)
    out["fixed_base"] = table.msm(scalars)
    return out


class TestCrossVariantAgreement:
    def test_random_inputs(self):
        points = _points(20, seed=1)
        rng = random.Random(2)
        scalars = [rng.randrange(R) for _ in points]
        expected = msm_naive(points, scalars, group=BN254_G1)
        for name, got in _variants(points, scalars).items():
            assert got == expected, name

    def test_special_scalars(self):
        """Zero, negative, and order-multiple scalars all reduce mod r."""
        points = _points(8, seed=3)
        scalars = [0, -1, R, 2 * R, R - 1, -(R - 1), 1, R + 7]
        expected = msm_naive(points, scalars, group=BN254_G1)
        for name, got in _variants(points, scalars).items():
            assert got == expected, name

    def test_duplicate_and_opposite_points(self):
        """Same point twice hits the tangent branch; P, -P the cancel one."""
        p = 5 * G
        points = [p, p, p, -p, 3 * G, -(3 * G), G, G]
        scalars = [9, 9, 4, 9, 2, 2, 1, 1]
        expected = msm_naive(points, scalars, group=BN254_G1)
        for name, got in _variants(points, scalars).items():
            assert got == expected, name

    def test_infinity_points_skipped(self):
        inf = BN254_G1.infinity()
        points = [G, inf, 2 * G, inf]
        scalars = [3, 999, 5, 1]
        expected = 13 * G
        for name, got in _variants(points, scalars).items():
            assert got == expected, name

    def test_mixed_windows(self):
        points = _points(10, seed=4)
        scalars = [i * 987654321 + 3 for i in range(10)]
        expected = msm_naive(points, scalars, group=BN254_G1)
        for window in (2, 5, 9, 13):
            for name, got in _variants(points, scalars, window).items():
                assert got == expected, f"{name} window={window}"

    def test_all_zero_scalars(self):
        points = _points(6, seed=5)
        for name, got in _variants(points, [0] * 6).items():
            assert got.is_infinity(), name

    def test_empty_inputs_are_identity(self):
        assert msm_batch_affine([], []).is_infinity()
        assert FixedBaseTableG1([]).msm([]).is_infinity()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            msm_batch_affine([G], [])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=300),
                st.one_of(
                    st.integers(min_value=-R, max_value=2 * R),
                    st.sampled_from([0, 1, R - 1, R, R + 1, 2 * R]),
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=8, deadline=None)
    def test_property_batch_affine_matches_naive(self, pairs):
        points = [k * G for k, _ in pairs]
        scalars = [s for _, s in pairs]
        expected = msm_naive(points, scalars, group=BN254_G1)
        assert msm_batch_affine(points, scalars) == expected
        assert FixedBaseTableG1(points).msm(scalars) == expected


class TestSimulatedVariant:
    """The simulated engine must agree with the real ones in the exponent:
    ``sim_msm`` over logs ``k_i`` equals the naive dot product mod r, and
    ``k_i·G`` through any real engine lands on the same group element."""

    def test_special_scalars_match_real_engines(self):
        from repro.ec.simulated import G1_TAG, SimPoint, sim_msm
        from repro.ec.simulated import SimFixedBaseTable

        ks = [2, 3, 5, 7, 11, 13, 17, 19]
        scalars = [0, -1, R, 2 * R, R - 1, -(R - 1), 1, R + 7]
        expected_log = sum(k * (s % R) for k, s in zip(ks, scalars)) % R

        sim_points = [SimPoint(G1_TAG, k) for k in ks]
        assert sim_msm(sim_points, scalars).log == expected_log
        table = SimFixedBaseTable(sim_points)
        assert table.msm(scalars).log == expected_log
        assert table.uses == 1

        real_points = [k * G for k in ks]
        assert msm_batch_affine(real_points, scalars) == expected_log * G

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=R - 1),
                st.integers(min_value=-R, max_value=2 * R),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_naive_dot_product(self, pairs):
        from repro.ec.simulated import G1_TAG, SimPoint, sim_msm

        points = [SimPoint(G1_TAG, k) for k, _ in pairs]
        scalars = [s for _, s in pairs]
        expected = sum(k * (s % R) for k, s in pairs) % R
        assert sim_msm(points, scalars).log == expected


class TestSignedDigits:
    @given(st.integers(min_value=0, max_value=R - 1))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction(self, s):
        for c in (2, 4, 7, 13):
            num_windows = -(-254 // c) + 1
            digits = signed_digits(s, c, num_windows)
            half = 1 << (c - 1)
            assert all(-half < d <= half for d in digits)
            assert sum(d << (c * j) for j, d in enumerate(digits)) == s


class TestFixedBase:
    def test_uses_counter(self):
        table = FixedBaseTableG1(_points(4, seed=9))
        assert table.uses == 0
        table.msm([1, 2, 3, 4])
        table.msm([5, 6, 7, 8])
        assert table.uses == 2

    def test_short_scalar_vector(self):
        """Fewer scalars than points: the tail is treated as zero (the
        prover's quotient is usually shorter than h_query)."""
        points = _points(6, seed=10)
        table = FixedBaseTableG1(points)
        assert table.msm([3, 4]) == msm_naive(
            points[:2], [3, 4], group=BN254_G1
        )

    def test_too_many_scalars_rejected(self):
        table = FixedBaseTableG1(_points(2, seed=11))
        with pytest.raises(ValueError):
            table.msm([1, 2, 3])

    def test_batch_normalize_roundtrip(self):
        points = _points(5, seed=12) + [BN254_G1.infinity()]
        jacs = [to_jacobian(p) for p in points]
        normal = batch_normalize(jacs)
        assert normal[-1] is None
        for p, a in zip(points[:-1], normal[:-1]):
            assert a == (p.x.value, p.y.value)
