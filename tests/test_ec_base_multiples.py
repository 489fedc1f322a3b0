"""Set-up's vectors of multiples of one point, by batch-affine rounds
(:class:`repro.ec.jacobian.BaseTable`, :mod:`repro.ec.affine`), held to
the double-and-add :func:`~repro.ec.jacobian.scalar_mul`; and the
simulated group's bulk path held to its per-element one."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.affine import batch_reduce, g1_sums, g2_sums
from repro.ec.backend import RealBN254Backend, SimulatedBackend
from repro.ec.bn254 import BN254_G1, BN254_G2
from repro.ec.jacobian import (
    MULTIPLES_BATCH,
    BaseTable,
    _FORMULAS,
    base_multiples,
    scalar_mul,
)
from repro.field.counters import count_ops

R = BN254_G1.order
G1, G2 = BN254_G1.generator, BN254_G2.generator
TABLES = {}


def table(base, window=3):
    key = (base.group, window)
    if key not in TABLES:
        TABLES[key] = BaseTable(base, window)
    return TABLES[key]


def raw(p):
    return _FORMULAS[p.group].lift(p)


scalars_st = st.lists(
    st.one_of(
        st.sampled_from([0, 1, 2, R - 1, R, R + 1, 2 * R + 3, (R - 1) // 2]),
        st.integers(min_value=0, max_value=2**256),
    ),
    max_size=6,
)


class TestMultiplesMatchScalarMul:
    @pytest.mark.parametrize("base", [G1, G2], ids=["g1", "g2"])
    @given(scalars=scalars_st)
    @settings(max_examples=12, deadline=None)
    def test_any_scalars(self, base, scalars):
        scalars = scalars + scalars[:2]  # duplicates within one batch
        assert table(base).multiples(scalars) == [
            scalar_mul(base, k) for k in scalars
        ]

    @pytest.mark.parametrize("base", [G1, G2], ids=["g1", "g2"])
    @pytest.mark.parametrize(
        "n", [1, MULTIPLES_BATCH - 1, MULTIPLES_BATCH, MULTIPLES_BATCH + 1]
    )
    def test_batch_edges(self, base, n):
        rng = random.Random(n)
        scalars = [rng.randrange(R) for _ in range(n)]
        scalars[0] = R - 1
        if n > 2:
            scalars[-1] = scalars[1]
        with count_ops() as ops:
            got = table(base).multiples(scalars)
        assert got == [scalar_mul(base, k) for k in scalars]
        assert ops.group_scalar_mul == n
        assert len(got) == n

    @pytest.mark.parametrize("base", [G1, G2], ids=["g1", "g2"])
    def test_the_vector_method(self, base):
        """``base_multiples`` sizes its own table (or takes double-and-add
        for a single multiple) and gives the same points."""
        rng = random.Random(7)
        base = scalar_mul(base, 12345)
        for scalars in ([5], [0, 5], [R - 1, R + 2, 9, 9]):
            assert base_multiples(base, scalars) == [
                scalar_mul(base, k) for k in scalars
            ]
        scalars = [rng.randrange(R) for _ in range(40)]
        assert RealBN254Backend().base_multiples(base, scalars) == [
            scalar_mul(base, k) for k in scalars
        ]

    @pytest.mark.parametrize("group", [BN254_G1, BN254_G2], ids=["g1", "g2"])
    def test_identity_base_and_empty_vector(self, group):
        zero = group.infinity()
        assert base_multiples(zero, [3, 0, R + 1]) == [zero] * 3
        assert base_multiples(group.generator, []) == []
        assert base_multiples(group.generator, [0, R]) == [zero] * 2
        assert table(group.generator).multiples([]) == []
        with pytest.raises(ValueError):
            BaseTable(zero, 3)


class TestTableBuild:
    @pytest.mark.parametrize("base", [G1, G2], ids=["g1", "g2"])
    @pytest.mark.parametrize("window", [2, 4])
    def test_every_entry(self, base, window):
        """``d * 2^(c j) * base`` at ``j * 2^(c-1) + d - 1``; the ``d = 2``
        column is the tangent round ``step + step``."""
        t = table(base, window)
        half = 1 << (window - 1)
        for j in range(t.num_windows):
            for d in range(1, half + 1):
                want = scalar_mul(base, d << (window * j))
                assert t.table[j * half + d - 1] == raw(want), (j, d)

    @pytest.mark.parametrize("base", [G1, G2], ids=["g1", "g2"])
    def test_the_first_round_takes_the_tangent(self, base, monkeypatch):
        fm = _FORMULAS[base.group]
        rounds = []

        def spy(left, right):
            rounds.append(list(left) == list(right))
            return fm.sums(left, right)

        monkeypatch.setitem(_FORMULAS, base.group, fm._replace(sums=spy))
        with count_ops() as ops:
            BaseTable(base, 3)
        assert rounds == [True, False, False]
        assert ops.field_inv == 1 + 3  # the steps' normalization, 3 rounds


class TestAffineSums:
    @pytest.mark.parametrize(
        "group, sums", [(BN254_G1, g1_sums), (BN254_G2, g2_sums)],
        ids=["g1", "g2"],
    )
    def test_chord_tangent_and_cancel(self, group, sums):
        p, q = scalar_mul(group.generator, 5), scalar_mul(group.generator, 9)
        with count_ops() as ops:
            out = sums([raw(p), raw(p), raw(p)], [raw(q), raw(p), raw(-p)])
        assert out == [raw(p + q), raw(p + p), None]
        assert ops.field_inv == 1
        assert ops.group_add == 2

    @pytest.mark.parametrize(
        "group, sums", [(BN254_G1, g1_sums), (BN254_G2, g2_sums)],
        ids=["g1", "g2"],
    )
    def test_reduce_lists(self, group, sums):
        g = group.generator
        pts = [scalar_mul(g, k) for k in (3, 4, 5, 6, 7)]
        lists = [
            [raw(pt) for pt in pts],  # odd length
            [raw(pts[0]), raw(-pts[0])],  # cancels to the identity
            [raw(pts[1]), raw(pts[1]), raw(pts[1]), raw(-pts[1])],
            [],
            [raw(pts[2])],
        ]
        assert batch_reduce(lists, sums) == [
            raw(scalar_mul(g, 25)), None, raw(scalar_mul(g, 8)), None,
            raw(pts[2]),
        ]


class TestSimulatedBulk:
    @pytest.mark.parametrize("make", ["g1_generator", "g2_generator"])
    def test_same_points_same_charge(self, make):
        backend = SimulatedBackend()
        base = backend.scalar_mul(getattr(backend, make)(), 77)
        scalars = [0, 1, R - 1, R, R + 5, 2**300, 9, 9]
        with count_ops() as bulk:
            got = backend.base_multiples(base, scalars)
        with count_ops() as each:
            want = [backend.scalar_mul(base, k) for k in scalars]
        assert got == want
        assert bulk.group_scalar_mul == each.group_scalar_mul
        table = backend.precompute_base(base)
        with count_ops() as kept:
            assert table.multiples(scalars) == want
        assert kept.group_scalar_mul == each.group_scalar_mul
