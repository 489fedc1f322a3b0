"""Jacobian G2, the real backend's scalar paths and set-up's vector method,
each held to the affine :class:`~repro.ec.curve.CurveGroup` reference."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.backend import RealBN254Backend, SimulatedBackend
from repro.ec.bn254 import BN254_G1, BN254_G2
from repro.ec.jacobian import (
    J2_INFINITY,
    _base_table_cost,
    base_multiples,
    batch_normalize_g2,
    in_subgroup,
    j2_add,
    j2_add_mixed,
    j2_double,
    msm_jacobian,
    scalar_mul,
    to_affine_g2,
    to_jacobian_g2,
)
from repro.ec.msm import MAX_WINDOW, msm_naive, signed_digits, signed_windows
from repro.field.counters import count_ops

R = BN254_G2.order
G1, G2 = BN254_G1.generator, BN254_G2.generator
small = st.integers(min_value=1, max_value=2**40)


def affine_mul(p, k):
    return p.group.scalar_mul(p, k)


def raw(p):
    return (p.x.coeffs, p.y.coeffs)


class TestG2GroupLaw:
    @given(a=small)
    @settings(max_examples=15, deadline=None)
    def test_double_matches_affine(self, a):
        p = affine_mul(G2, a)
        assert to_affine_g2(j2_double(to_jacobian_g2(p))) == BN254_G2.double(p)

    @given(a=small, b=small)
    @settings(max_examples=15, deadline=None)
    def test_add_and_mixed_add_match_affine(self, a, b):
        p, q = affine_mul(G2, a), affine_mul(G2, b)
        want = BN254_G2.add(p, q)  # a == b exercises the P + P branch
        assert to_affine_g2(j2_add(to_jacobian_g2(p), to_jacobian_g2(q))) == want
        assert to_affine_g2(j2_add_mixed(to_jacobian_g2(p), raw(q))) == want

    def test_add_unnormalized_operands(self):
        """Operands with Z != 1 (as they occur mid-MSM) add correctly."""
        p = j2_double(to_jacobian_g2(affine_mul(G2, 3)))  # 6 G2, Z != 1
        q = j2_double(to_jacobian_g2(affine_mul(G2, 5)))  # 10 G2
        assert to_affine_g2(j2_add(p, q)) == affine_mul(G2, 16)
        assert to_affine_g2(j2_add(p, p)) == affine_mul(G2, 12)
        assert to_affine_g2(j2_add_mixed(p, raw(affine_mul(G2, 6)))) == (
            affine_mul(G2, 12)
        )

    def test_inverse_pairs_cancel(self):
        p = affine_mul(G2, 11)
        jp, jn = to_jacobian_g2(p), to_jacobian_g2(-p)
        assert to_affine_g2(j2_add(jp, jn)).is_infinity()
        assert to_affine_g2(j2_add_mixed(jp, raw(-p))).is_infinity()

    def test_infinity_is_neutral(self):
        p = affine_mul(G2, 11)
        jp = to_jacobian_g2(p)
        assert to_jacobian_g2(BN254_G2.infinity()) == J2_INFINITY
        assert to_affine_g2(J2_INFINITY).is_infinity()
        assert j2_double(J2_INFINITY) == J2_INFINITY
        assert j2_add(J2_INFINITY, jp) == jp and j2_add(jp, J2_INFINITY) == jp
        assert to_affine_g2(j2_add_mixed(J2_INFINITY, raw(p))) == p

    def test_batch_normalize_keeps_identities_in_place(self):
        js = [
            J2_INFINITY,
            j2_double(to_jacobian_g2(G2)),
            J2_INFINITY,
            j2_double(to_jacobian_g2(affine_mul(G2, 2))),
        ]
        with count_ops() as ops:
            out = batch_normalize_g2(js)
        assert ops.field_inv == 1
        assert out[0] is None and out[2] is None
        assert out[1] == raw(affine_mul(G2, 2))
        assert out[3] == raw(affine_mul(G2, 4))


class TestScalarMul:
    @pytest.mark.parametrize("base", [G1, G2], ids=["g1", "g2"])
    def test_edge_scalars(self, base):
        backend = RealBN254Backend()
        for k in (0, 1, 2, R - 1, R, R + 1, 2 * R + 5):
            assert backend.scalar_mul(base, k) == affine_mul(base, k), k
        assert backend.scalar_mul(base.group.infinity(), 5).is_infinity()

    @given(k=st.integers(min_value=0, max_value=R - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_scalars_on_g2(self, k):
        p = affine_mul(G2, 7)
        assert scalar_mul(p, k) == affine_mul(p, k)

    def test_one_inversion_and_one_tally_per_multiplication(self):
        with count_ops() as ops:
            scalar_mul(G2, 0xDEADBEEF)
            scalar_mul(G1, 0xDEADBEEF)
            scalar_mul(G1, 0)
        assert ops.group_scalar_mul == 2
        assert ops.field_inv == 2
        assert ops.group_add > 0


class TestG2Msm:
    @pytest.mark.parametrize("n", [0, 1, 2, 37])
    def test_matches_naive_sum(self, n):
        rng = random.Random(n)
        points = [affine_mul(G2, rng.randrange(1, 2**30)) for _ in range(n)]
        scalars = [rng.randrange(R) for _ in range(n)]
        if n >= 2:
            scalars[0] = 0
            scalars[-1] = scalars[1]  # a repeated scalar
        if n == 37:
            points[5] = points[6]  # a repeated point
            points[7] = BN254_G2.infinity()
            scalars[8] = R - 3  # a short negative
        backend = RealBN254Backend()
        got = backend.msm(points, scalars, zero=backend.g2_zero())
        assert got == msm_naive(points, scalars, group=BN254_G2)

    def test_all_zero_scalars(self):
        points = [affine_mul(G2, k) for k in (2, 3)]
        assert msm_jacobian(points, [0, R]).is_infinity()

    def test_small_signed_scalars_take_few_windows(self):
        """``r - k`` is folded to ``k * (-P)``: a witness-like vector of
        small signed values costs a fraction of a full-width one."""
        rng = random.Random(1)
        points = [affine_mul(G2, rng.randrange(1, 2**30)) for _ in range(24)]
        short = [rng.choice((1, -1)) * rng.randrange(1, 2**12) % R for _ in points]
        wide = [rng.randrange(R) for _ in points]
        with count_ops() as few:
            got = msm_jacobian(points, short)
        with count_ops() as many:
            msm_jacobian(points, wide)
        assert got == msm_naive(points, short)
        assert few.group_add * 4 < many.group_add

    def test_generic_affine_pippenger_unreachable_from_real_backend(self):
        text = (
            Path(__file__).resolve().parent.parent
            / "src" / "repro" / "ec" / "backend.py"
        ).read_text()
        assert "repro.ec.msm" not in re.sub(r'""".*?"""', "", text, flags=re.S)


class TestBaseMultiples:
    @pytest.mark.parametrize("base", [G1, G2], ids=["g1", "g2"])
    def test_matches_affine_scalar_mul(self, base):
        rng = random.Random(9)
        scalars = [0, 1, 2, R - 1, R, R + 7] + [rng.randrange(R) for _ in range(9)]
        want = [affine_mul(base, k) for k in scalars]
        with count_ops() as ops:
            got = RealBN254Backend().base_multiples(base, scalars)
        assert got == want
        # One inversion per batched round: the steps' normalization, the
        # table's 2^(c-1) - 1 lane rounds, the one batch's reduction rounds.
        live = sum(1 for k in scalars if k % R)
        c = min((_base_table_cost(c, live), c) for c in range(2, MAX_WINDOW + 1))[1]
        longest = max(
            sum(1 for d in signed_digits(k % R, c, signed_windows(254, c)) if d)
            for k in scalars
        )
        assert ops.field_inv == 1 + (2 ** (c - 1) - 1) + (longest - 1).bit_length()
        assert ops.group_scalar_mul == sum(1 for k in scalars if k % R)
        for point in got:
            assert point.group is base.group
            assert point.inf or base.group.is_on_curve(point)

    def test_degenerate_inputs(self):
        assert base_multiples(G2, []) == []
        assert base_multiples(G1, [0, R]) == [BN254_G1.infinity()] * 2
        assert base_multiples(BN254_G2.infinity(), [3]) == [BN254_G2.infinity()]

    def test_non_generator_base(self):
        base = affine_mul(G1, 12345)
        assert base_multiples(base, [5, 6]) == [
            affine_mul(base, 5), affine_mul(base, 6)
        ]

    def test_default_is_the_scalar_mul_loop(self):
        backend = SimulatedBackend()
        g = backend.g1_generator()
        assert backend.base_multiples(g, [0, 3, 5]) == [
            backend.scalar_mul(g, k) for k in (0, 3, 5)
        ]


class TestSubgroup:
    def test_generators_and_multiples_are_inside(self):
        assert in_subgroup(G1) and in_subgroup(G2)
        assert in_subgroup(affine_mul(G2, 99)) and in_subgroup(BN254_G2.infinity())

    def test_a_plain_curve_point_is_outside(self):
        from tests.test_snark_serialize import off_subgroup_g2_point

        point = off_subgroup_g2_point()
        assert BN254_G2.is_on_curve(point)
        assert not in_subgroup(point)


class TestSetupTallies:
    def test_setup_is_inversion_free(self):
        """One BN254 set-up of SHAL:micro: 246,832 field inversions on the
        affine path, a few hundred now — one per batched affine round: a
        table's 2^(c-1) - 1 lane rounds, then ~log2 of its windows per
        batch of ``MULTIPLES_BATCH`` multiples."""
        from repro.core.spec import CircuitSpec
        from repro.snark import groth16

        spec = CircuitSpec(model="SHAL", scale="micro", gadgets="lean")
        cs = spec.compile(spec.image(0)).cs
        with count_ops() as ops:
            result = groth16.setup(cs, RealBN254Backend(), random.Random(3))
        pk = result.proving_key
        elements = (
            len(pk.a_query_g1) + len(pk.b_query_g1) + len(pk.b_query_g2)
            + len(pk.l_query_g1) + len(pk.h_query_g1)
            + len(result.verifying_key.ic_g1) + 6
        )
        assert ops.field_inv < 300
        assert 0 < ops.group_scalar_mul <= elements
        assert ops.group_add > elements  # the affine sums are tallied

    def test_crs_bytes_are_the_affine_era_bytes(self, tmp_path, monkeypatch):
        """SHAL:micro under the serve workers' CRS seed: the proving and
        verifying key bytes recorded from the affine set-up loop (commit
        2b6b587), through the in-memory and the ``store=`` chunked path."""
        import hashlib

        from repro.core.spec import CircuitSpec
        from repro.serve.store import ArtifactStore
        from repro.snark import groth16
        from repro.snark.serialize import (
            serialize_proving_key,
            serialize_verifying_key,
        )

        spec = CircuitSpec(model="SHAL", scale="micro", gadgets="lean")
        cs = spec.compile(spec.image(0)).cs
        backend = RealBN254Backend()
        dense = groth16.setup(cs, backend, random.Random(24176))
        monkeypatch.setattr("repro.snark.chunked.DEFAULT_CHUNK_BYTES", 2048)
        chunked = groth16.setup(
            cs, backend, random.Random(24176), store=ArtifactStore(tmp_path)
        )
        for result in (dense, chunked):
            pk = hashlib.sha256(serialize_proving_key(result.proving_key))
            vk = hashlib.sha256(serialize_verifying_key(result.verifying_key))
            assert pk.hexdigest() == (
                "0b8e189c96cf6f5d8b30e4bc524e40a1d0016529ce747444c0f954c189b8b72f"
            )
            assert vk.hexdigest() == (
                "33f8c3d05818c36cf9c8c8e3d2937d9560e99effdab771dccb46796ff05083ec"
            )
        assert chunked.stats["pk_manifest_key"] == "pkm-6f15f367fae0490c"
