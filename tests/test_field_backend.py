"""Property and regression tests for the array field kernel.

Kernel parity (add/sub/constant multiply/data-by-data multiply/normalise,
to/from ints and the NTT against the scalar ``Field`` reference, including
the boundary values 0, 1, p-1), the exactness bounds and an adversarial
case at the extremes they allow for, rejection of non-canonical inputs,
kernel-call counts per transform, the bounded domain LRU and its
fork-consistency in worker pools, ``zero_ok`` batch inversion feeding the
batch-affine bucket fold, the CSR row sweep across its lanes, and proof
byte-identity whichever path the transforms take.
"""

import multiprocessing
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.snark.qap as qap_mod
from repro.field import backend as fb
from repro.field.backend import (
    from_limbs,
    plan_for,
    powers_limbs,
    to_limbs,
)
from repro.field.counters import count_ops
from repro.field.fp import BN254_FQ, BN254_FR
from repro.field.vector import batch_inverse
from repro.r1cs.lc import Digits
from repro.snark.qap import Domain, domain_cache_info

P = BN254_FR.modulus
PLAN = plan_for(BN254_FR)

# Random vectors seeded with every boundary value the satellite names.
elements = st.integers(min_value=0, max_value=P - 1)
boundary = st.sampled_from([0, 1, P - 1])
vectors = st.lists(st.one_of(elements, boundary), min_size=1, max_size=80)


def scalar_ref(op, xs, ys):
    if op == "add":
        return [(x + y) % P for x, y in zip(xs, ys)]
    if op == "sub":
        return [(x - y) % P for x, y in zip(xs, ys)]
    return [BN254_FR.mul(x, y) for x, y in zip(xs, ys)]


def stockham_reference(values, table, inverse, modulus=P):
    """``fb.ntt``'s schedule over Python ints, for any table of constants
    (not only roots of unity): stage ``m`` pairs ``(p, 0|1, q)``, twiddle
    ``table[p s]``, or ``-table[d/2 - p s]`` for the inverse."""
    d = len(values)
    half = d // 2
    x, m = list(values), 1
    while m < d:
        s = half // m
        y = [0] * d
        for p in range(m):
            w = -table[half - p * s] if inverse and m > 1 else table[p * s]
            if m == 1:
                w = 1
            for q in range(s):
                a, b = x[(2 * p) * s + q], x[(2 * p + 1) * s + q]
                y[p * s + q] = (a + w * b) % modulus
                y[(p + m) * s + q] = (a - w * b) % modulus
        x, m = y, 2 * m
    return x


class TestExactnessBounds:
    def test_bn254_bounds_hold_to_the_largest_domain(self):
        # Re-derived, not assumed: 28 stages is a 2^28 domain, the
        # 2-adicity of Fr and the most Domain accepts.
        partial, value = fb.exactness_bounds(P.bit_length(), 12, 28)
        assert partial < 2**53
        assert fb.MAX_STAGES == qap_mod.FR_TWO_ADICITY == 28
        # from_limbs' offset p << k dominates every encodable value and the
        # offset sum packs into the plan's output words.
        k = value.bit_length()
        assert (value + (1 << k)) * P < 1 << (64 * PLAN.out_words)
        assert PLAN.offset_col[-1, 0] < 2.0**PLAN.top_bits < 2**53
        # Bounds grow with depth, and 13 stages (d = 8,192) sit lower.
        low_partial, low_value = fb.exactness_bounds(P.bit_length(), 12, 13)
        assert low_partial < partial and low_value < value
        assert low_partial < 2**51

    def test_plan_shape(self):
        assert (PLAN.limbs, PLAN.rows, fb.LIMB_BITS) == (12, 13, 22)
        assert PLAN.fold.shape == (12, 26)
        assert plan_for(BN254_FQ).limbs == 12

    def test_plan_refuses_a_modulus_it_cannot_hold_exactly(self):
        # 23 limbs per row and 28 stages of drift exceed 2^53.
        wide = (1 << 500) + 1
        assert fb.exactness_bounds(wide.bit_length(), 23, 28)[0] >= 2**53
        with pytest.raises(ValueError):
            fb.LimbPlan(wide)
        with pytest.raises(ValueError):
            fb.LimbPlan(10)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_adversarial_extremes_match_python_ints(self, inverse):
        # Inputs and "twiddles" at the patterns that maximise limb
        # magnitudes and carries: p - 1, (p - 1) / 2 and 2^(22 k) - 1 (every
        # limb below k all ones), through 13 stages.
        d = 1 << 13
        extremes = [P - 1, (P - 1) // 2] + [
            (1 << (22 * k)) - 1 for k in range(1, 12)
        ]
        for shift, fixed in enumerate([None, P - 1, (P - 1) // 2]):
            table = [
                extremes[(k + shift) % len(extremes)] if fixed is None
                else fixed
                for k in range(d // 2 + 1)
            ]
            values = [
                extremes[(3 * i + shift) % len(extremes)] if fixed is None
                else fixed
                for i in range(d)
            ]
            mats = fb.const_matrices(PLAN, to_limbs(PLAN, table))
            x = to_limbs(PLAN, values).reshape(PLAN.rows, d, 1)
            out = fb.ntt(x, mats, inverse=inverse)
            # The drift the run reached feeds the next matmul exactly.
            assert PLAN.rows * 2**22 * float(np.abs(out).max()) < 2**53
            assert from_limbs(PLAN, out) == stockham_reference(
                values, table, inverse
            )

    def test_ntt_refuses_more_stages_than_the_bounds_cover(self, monkeypatch):
        monkeypatch.setattr(fb, "MAX_STAGES", 3)
        with pytest.raises(ValueError):
            fb.ntt(np.zeros((PLAN.rows, 16, 1)), None)


class TestBackendParity:
    @given(vectors, st.sampled_from(["add", "sub", "mul"]))
    @settings(max_examples=40, deadline=None)
    def test_list_ops_match_scalar_field(self, xs, op):
        ys = list(reversed(xs))
        x, y = to_limbs(PLAN, xs), to_limbs(PLAN, ys)
        got = from_limbs(PLAN, {
            "add": lambda: x + y,
            "sub": lambda: x - y,  # limbs are signed: no offset needed
            "mul": lambda: fb.mul(PLAN, x, y),
        }[op]())
        assert got == scalar_ref(op, xs, ys)

    @given(vectors)
    @settings(max_examples=30, deadline=None)
    def test_inv_matches_scalar(self, xs):
        got = batch_inverse(BN254_FR, xs, zero_ok=True)
        assert got == [pow(x, -1, P) if x else 0 for x in xs]

    @given(vectors)
    @settings(max_examples=30, deadline=None)
    def test_limb_round_trip(self, xs):
        assert from_limbs(PLAN, to_limbs(PLAN, xs)) == xs

    @given(vectors, elements)
    @settings(max_examples=20, deadline=None)
    def test_const_multiply_matches_scalar(self, xs, w):
        x = to_limbs(PLAN, xs)
        want = [v * w % P for v in xs]
        # one constant, its matrix made from Python ints
        shaped = x.reshape(PLAN.rows, 1, len(xs))
        one = fb.scale(shaped, PLAN.const_matrix(w)[None])
        assert from_limbs(PLAN, one) == want
        # the output is normalized and the carry row is small
        assert np.abs(one[:-1]).max() <= 2**21 + 2**8
        # a different constant per lane, matrices built by the kernel:
        # multiply w by each x
        mats = fb.const_matrices(PLAN, fb.reduce(PLAN, x.copy()))
        lanes = to_limbs(PLAN, [w] * len(xs)).reshape(PLAN.rows, len(xs), 1)
        assert from_limbs(PLAN, fb.scale(lanes, mats)) == want

    @given(vectors)
    @settings(max_examples=20, deadline=None)
    def test_normalize_and_reduce_keep_the_value(self, xs):
        x = to_limbs(PLAN, xs)
        drifted = x * 1000.0 - to_limbs(PLAN, list(reversed(xs))) * 999.0
        want = [
            (1000 * a - 999 * b) % P for a, b in zip(xs, reversed(xs))
        ]
        assert from_limbs(PLAN, drifted) == want
        fb.normalize(drifted)
        assert np.abs(drifted[:-1]).max() <= 2**21 + 2**8
        assert from_limbs(PLAN, drifted) == want
        fb.reduce(PLAN, drifted)
        assert not drifted[-1].any()
        assert from_limbs(PLAN, drifted) == want

    def test_other_modulus(self):
        plan = plan_for(BN254_FQ)
        q = BN254_FQ.modulus
        rng = random.Random(5)
        xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(61)]
        ys = xs[::-1]
        assert from_limbs(plan, to_limbs(plan, xs)) == xs
        got = fb.mul(plan, to_limbs(plan, xs), to_limbs(plan, ys))
        assert from_limbs(plan, got) == [a * b % q for a, b in zip(xs, ys)]

    @pytest.mark.parametrize("bad", [-1, P, P + 12345, 1 << 300])
    def test_non_canonical_rejected(self, bad):
        with pytest.raises((ValueError, OverflowError)):
            to_limbs(PLAN, [1, bad, 2], validate=True)

    def test_non_canonical_never_reaches_the_kernel(self, monkeypatch):
        # The Domain entry points send non-canonical vectors down the
        # scalar path, which reduces them; the kernel sees canonical
        # representatives only.
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1)
        domain = Domain(64, BN254_FR)
        values = [P + 5, -3] + list(range(62))
        want = domain.ntt([v % P for v in values])

        def refuse(*args, **kwargs):
            raise AssertionError("kernel called on non-canonical input")

        monkeypatch.setattr(fb, "mul_const", refuse)
        assert domain.ntt(values) == want

    @pytest.mark.parametrize("size", [4, 32, 256])
    def test_ntt_parity_with_scalar_domain(self, size, monkeypatch):
        random.seed(size)
        values = [0, 1, P - 1] + [
            random.randrange(P) for _ in range(size - 3)
        ]
        vec_domain = Domain(size, BN254_FR)
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1 << 30)
        ref_domain = Domain(size, BN254_FR)
        for name in ("ntt", "intt", "coset_ntt", "coset_intt",
                     "chain_to_coset"):
            ref = getattr(ref_domain, name)(values)
            monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1)
            got = getattr(vec_domain, name)(values)
            monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1 << 30)
            assert got == ref, name

    def test_ntt_counter_parity(self, monkeypatch):
        size = 64
        values = list(range(size))
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1)
        with count_ops() as vec_ops:
            Domain(size, BN254_FR).ntt(values)
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1 << 30)
        with count_ops() as ref_ops:
            Domain(size, BN254_FR).ntt(values)
        assert vec_ops.field_mul == ref_ops.field_mul
        assert vec_ops.field_add == ref_ops.field_add

    def test_powers_limbs(self):
        base = 987654321
        ref = [pow(base, i, P) for i in range(77)]
        assert from_limbs(PLAN, powers_limbs(PLAN, base, 77)) == ref
        scaled = powers_limbs(PLAN, base, 5000, first=P - 2)
        assert from_limbs(PLAN, scaled) == [
            (P - 2) * pow(base, i, P) % P for i in range(5000)
        ]
        # limbs a constant matrix may hold (entry 0 is canonical, the rest
        # balanced residues), carry row empty
        assert not scaled[-1].any()
        assert np.abs(scaled).max() < 2**22
        assert np.abs(scaled[:, 1:]).max() <= 2**21 + 2**8
        assert powers_limbs(PLAN, base, 0).shape == (PLAN.rows, 0)


class TestQuotientPaths:
    """The quotient is six transforms on both paths and the same ``h``."""

    @staticmethod
    def _evals(size, satisfied=True):
        rng = random.Random(size)
        a = [rng.randrange(P) for _ in range(size)]
        b = [rng.randrange(P) for _ in range(size)]
        c = [x * y % P for x, y in zip(a, b)]
        if not satisfied:
            c[size // 3] = (c[size // 3] + 1) % P
        return a, b, c

    @pytest.mark.parametrize("size", [4, 64, 512])
    def test_array_quotient_matches_scalar(self, size, monkeypatch):
        evals = self._evals(size)
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1)
        with count_ops() as vec_ops:
            got = qap_mod.quotient_coefficients(
                None, Domain(size, BN254_FR), evals=evals
            )
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1 << 30)
        with count_ops() as ref_ops:
            ref = qap_mod.quotient_coefficients(
                None, Domain(size, BN254_FR), evals=evals
            )
        assert got == ref and len(got) == size - 1
        log2d = size.bit_length() - 1
        assert vec_ops.field_mul == ref_ops.field_mul == 6 * (size // 2) * log2d
        assert vec_ops.field_add == ref_ops.field_add == 6 * size * log2d

    @pytest.mark.parametrize("gate", [1, 1 << 30])
    def test_unsatisfied_witness_raises_on_both_paths(self, gate, monkeypatch):
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", gate)
        evals = self._evals(256, satisfied=False)
        with pytest.raises(ValueError, match="does not satisfy"):
            qap_mod.quotient_coefficients(
                None, Domain(256, BN254_FR), evals=evals
            )

    @pytest.mark.parametrize(
        "name", ["ntt", "intt", "coset_ntt", "coset_intt", "chain_to_coset"]
    )
    def test_transforms_make_log_d_kernel_calls(self, name, monkeypatch):
        # Count, not time: a broadcast constant is one matrix and one call,
        # however many lanes it meets (Domain.intt used to multiply by 1/d
        # one lane at a time: 1,033 kernel calls at this size).
        size, calls = 1024, []
        kernel = fb.mul_const
        monkeypatch.setattr(
            fb, "mul_const",
            lambda *args: calls.append(1) or kernel(*args),
        )
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1)
        domain = Domain(size, BN254_FR)
        domain._vector_tables()  # table construction is not a transform
        del calls[:]
        getattr(domain, name)(list(range(size)))
        log2d = size.bit_length() - 1
        transforms = 2 if name == "chain_to_coset" else 1
        # every stage but the first is one call; a pointwise table is two
        assert transforms * (log2d - 1) <= len(calls)
        assert len(calls) <= transforms * (log2d - 1) + 2

    def test_tables_stay_inside_their_budget(self, monkeypatch):
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1)
        tables = Domain(8192, BN254_FR)._vector_tables()
        # d/2 + 1 twiddle matrices, two-level scale tables: 5.5 MiB, against
        # 27 MiB (base + pre-tiled) for the int64 kernel at this size.
        assert tables.twiddles.shape == (4097, 12, 13)
        assert tables.nbytes() < 6 * 2**20


class TestBatchInverseZeroOk:
    def test_zero_maps_to_zero(self):
        vals = [0, 3, 0, 7, P - 1, 0]
        out = batch_inverse(BN254_FR, vals, zero_ok=True)
        assert [o == 0 for o in out] == [v == 0 for v in vals]
        for v, o in zip(vals, out):
            if v:
                assert v * o % P == 1

    def test_all_zero(self):
        assert batch_inverse(BN254_FR, [0, 0], zero_ok=True) == [0, 0]

    def test_zero_still_raises_without_flag(self):
        with pytest.raises(ZeroDivisionError):
            batch_inverse(BN254_FR, [1, 0])

    def test_bucket_reduce_with_colliding_points(self):
        # P + (-P) pairs produce zero denominators inside the fold; the
        # zero_ok lanes must drop those pairs and still sum correctly.
        from repro.ec.batch_affine import msm_batch_affine
        from repro.ec.bn254 import BN254_G1
        from repro.ec.msm import msm as msm_ref

        random.seed(17)
        g = BN254_G1.generator
        pts = [g * random.randrange(1, 40) for _ in range(48)]
        # same bucket, cancelling pair; plus doubled (equal) points
        pts += [pts[0], -pts[0], pts[1], pts[1], pts[2], -pts[2]]
        scalars = [random.randrange(BN254_G1.order) for _ in range(48)]
        scalars += [scalars[3], scalars[3], 9, 9, 5, 5]
        assert msm_batch_affine(pts, scalars) == msm_ref(pts, scalars)

    def test_batch_normalize_identities(self):
        from repro.ec.fixed_base import batch_normalize
        from repro.ec.jacobian import J_INFINITY

        out = batch_normalize([J_INFINITY, (1, 2, 1), (5, 7, 0)])
        assert out[0] is None and out[2] is None
        assert out[1] == (1, 2)


class TestFieldDotChunking:
    def test_long_row_matches_naive(self):
        """Row dot products across the lane split: rows of 1..3 terms
        around one 500-term row, coefficients and witness values mixing
        small signed ones (the int64 lane) with field-wide ones (the
        bigint lane), both lanes taken."""
        import repro.r1cs.csr as csr_mod

        rng = random.Random(23)

        def value():
            if rng.random() < 0.3:
                return rng.randrange(P)
            return rng.randrange(-999, 1000) % P

        z = [value() for _ in range(600)]
        lengths = [1 + k % 3 for k in range(40)] + [500] + [2] * 30
        indptr, indices, coeffs = [0], [], []
        for n in lengths:
            indices += [rng.randrange(len(z)) for _ in range(n)]
            coeffs += [value() for _ in range(n)]
            indptr.append(len(indices))
        matrix = csr_mod.CSRMatrix(indptr, indices, Digits.of(coeffs, P))
        naive = [
            sum(c * z[i] for c, i in zip(coeffs[lo:hi], indices[lo:hi])) % P
            for lo, hi in zip(indptr, indptr[1:])
        ]
        assert csr_mod.matrix_row_evals(matrix, z, P) == naive
        csr = csr_mod.CSRSystem(matrix, matrix, matrix, 0, len(z) - 1, P, z)
        bigint = csr_mod.bigint_lane(csr)[0].size
        assert 0 < bigint < matrix.nnz


class TestDomainCacheLRU:
    def test_bounded_with_eviction(self):
        with qap_mod._DOMAIN_CACHE_LOCK:
            qap_mod._DOMAIN_CACHE.clear()
        cap = qap_mod._DOMAIN_CACHE_MAX
        sizes = [1 << (i + 1) for i in range(cap + 3)]
        for s in sizes:
            Domain.for_size(s, BN254_FR)
        entries, capacity = domain_cache_info()
        assert entries == capacity == cap
        # oldest entries evicted, newest retained
        keys = list(qap_mod._DOMAIN_CACHE)
        assert keys[-1][0] == sizes[-1]
        assert all(k[0] != sizes[0] for k in keys)

    def test_hit_refreshes_recency(self):
        with qap_mod._DOMAIN_CACHE_LOCK:
            qap_mod._DOMAIN_CACHE.clear()
        cap = qap_mod._DOMAIN_CACHE_MAX
        for i in range(cap):
            Domain.for_size(1 << (i + 1), BN254_FR)
        Domain.for_size(2, BN254_FR)  # touch the oldest
        Domain.for_size(1 << (cap + 1), BN254_FR)  # force one eviction
        keys = [k[0] for k in qap_mod._DOMAIN_CACHE]
        assert 2 in keys  # refreshed entry survived
        assert 4 not in keys  # true-LRU victim evicted

    def test_fork_inherited_cache_consistent(self):
        # A forked worker inherits the parent's populated cache; its
        # transforms must agree with the parent's, and any churn in the
        # child must not leak back into the parent's cache state.
        ctx = multiprocessing.get_context("fork")
        with qap_mod._DOMAIN_CACHE_LOCK:
            qap_mod._DOMAIN_CACHE.clear()
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        parent_domain = Domain.for_size(8, BN254_FR)
        parent_ntt = parent_domain.ntt(values)
        before = domain_cache_info()

        def child(conn):
            d = Domain.for_size(8, BN254_FR)
            out = d.ntt(values)
            # churn the child's inherited cache past its bound
            for i in range(qap_mod._DOMAIN_CACHE_MAX + 2):
                Domain.for_size(1 << (i + 1), BN254_FR)
            conn.send((out, domain_cache_info()))
            conn.close()

        rx, tx = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=child, args=(tx,))
        proc.start()
        child_ntt, child_info = rx.recv()
        proc.join(timeout=30)
        assert child_ntt == parent_ntt
        assert child_info[0] <= child_info[1]
        assert domain_cache_info() == before  # parent unaffected


class TestBackendSelection:
    def test_proofs_byte_identical_across_backends(self, monkeypatch):
        from tests.conftest import tiny_proof_bytes

        numpy_proof = tiny_proof_bytes()
        monkeypatch.setattr(qap_mod, "_VECTOR_NTT_MIN", 1 << 30)
        scalar_proof = tiny_proof_bytes()
        assert scalar_proof == numpy_proof
