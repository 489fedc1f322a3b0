"""Property and regression tests for the vectorized field backend.

Covers the ISSUE-7 satellite checklist: backend parity (add/sub/mul/inv
and NTT against the scalar ``Field`` reference, including the boundary
values 0, 1, p-1), rejection of non-canonical inputs, the bounded domain
LRU and its fork-consistency in worker pools, ``zero_ok`` batch
inversion feeding the batch-affine bucket fold, ``field_dot`` chunked
reduction, and cross-backend proof byte-identity.
"""

import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.snark.qap as qap_mod
from repro.field import backend as fb
from repro.field.backend import (
    NumpyBackend,
    ScalarBackend,
    canonicalize,
    from_limbs,
    mont_mul,
    plan_for,
    powers_limbs,
    to_limbs,
    to_mont,
)
from repro.field.counters import count_ops
from repro.field.fp import BN254_FR
from repro.field.vector import batch_inverse, field_dot
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


class TestBackendParity:
    @given(vectors, st.sampled_from(["add", "sub", "mul"]))
    @settings(max_examples=40, deadline=None)
    def test_list_ops_match_scalar_field(self, xs, op):
        ys = list(reversed(xs))
        nb, sb = NumpyBackend(), ScalarBackend()
        fn = {"add": "add_list", "sub": "sub_list", "mul": "mul_list"}[op]
        got = getattr(nb, fn)(BN254_FR, xs, ys)
        ref = getattr(sb, fn)(BN254_FR, xs, ys)
        assert got == ref == scalar_ref(op, xs, ys)

    @given(vectors)
    @settings(max_examples=30, deadline=None)
    def test_inv_matches_scalar(self, xs):
        nb, sb = NumpyBackend(), ScalarBackend()
        got = nb.inv_list(BN254_FR, xs, zero_ok=True)
        ref = sb.inv_list(BN254_FR, xs, zero_ok=True)
        assert got == ref
        for x, i in zip(xs, got):
            assert (x * i) % P == (1 if x else 0)

    @given(vectors)
    @settings(max_examples=30, deadline=None)
    def test_limb_round_trip(self, xs):
        assert from_limbs(PLAN, to_limbs(PLAN, xs)) == xs

    @given(vectors)
    @settings(max_examples=20, deadline=None)
    def test_mont_round_trip_and_mul(self, xs):
        arr = to_limbs(PLAN, xs)
        m = to_mont(PLAN, arr)
        back = fb.from_mont(PLAN, m)
        canonicalize(PLAN, back)
        assert from_limbs(PLAN, back) == xs
        # mont(x_m, x) == x^2 exactly
        sq = mont_mul(PLAN, m, arr)
        canonicalize(PLAN, sq)
        assert from_limbs(PLAN, sq) == [x * x % P for x in xs]

    @pytest.mark.parametrize("bad", [-1, P, P + 12345, 1 << 300])
    def test_non_canonical_rejected(self, bad):
        with pytest.raises((ValueError, OverflowError)):
            to_limbs(PLAN, [1, bad, 2], validate=True)

    def test_non_canonical_rejected_through_list_ops(self):
        nb = NumpyBackend()
        xs = [P] + [1] * nb.min_lanes  # long enough to take the limb path
        with pytest.raises((ValueError, OverflowError)):
            nb.mul_list(BN254_FR, xs, xs)

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
        mont = powers_limbs(PLAN, base, 77, mont=True)
        rm = PLAN.R_mod_p
        assert from_limbs(PLAN, mont) == [v * rm % P for v in ref]


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
        random.seed(23)
        n = 500  # several DOT_CHUNK windows plus a partial tail
        xs = [random.randrange(P) for _ in range(n)]
        ys = [random.randrange(P) for _ in range(n)]
        naive = sum(x * y for x, y in zip(xs, ys)) % P
        with count_ops() as ops:
            assert field_dot(BN254_FR, xs, ys) == naive
        assert ops.field_mul == n
        assert ops.field_add == n - 1


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
    def test_env_selection_and_override(self):
        from repro.field.backend import backend_name, set_backend

        original = backend_name()
        try:
            assert set_backend("scalar").name == "scalar"
            assert backend_name() == "scalar"
            assert set_backend("auto").name in ("numpy", "gmpy2", "scalar")
            with pytest.raises(ValueError):
                set_backend("cuda")
        finally:
            set_backend(original)

    def test_proofs_byte_identical_across_backends(self):
        from repro.field.backend import backend_name, set_backend
        from tests.conftest import tiny_proof_bytes

        original = backend_name()
        try:
            set_backend("scalar")
            scalar_proof = tiny_proof_bytes()
            set_backend("numpy")
            numpy_proof = tiny_proof_bytes()
        finally:
            set_backend(original)
        assert scalar_proof == numpy_proof
