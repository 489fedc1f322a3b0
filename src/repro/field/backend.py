"""Array-oriented field-arithmetic backends (``repro.field.backend``).

Every prover hot path — NTT butterflies, MSM bucket reduction, CSR witness
evaluation — ultimately bottoms out in per-element Python big-int ``%``
operations.  This module provides interchangeable *backends* for bulk field
arithmetic so those loops can run as array programs instead:

* :class:`ScalarBackend` — the always-available reference; plain Python
  ints driven through :class:`repro.field.fp.Field`.  Every other backend
  must produce bit-identical results (the hypothesis parity suite and the
  CI prove-smoke assert proofs are byte-identical across backends).
* :class:`NumpyBackend` — fixed-limb Montgomery representation in NumPy
  ``int64`` arrays: each vector of field elements is an ``(L, n)`` array of
  29-bit limbs.  A full Montgomery multiply is an ``O(L^2)`` sequence of
  vectorized limb products, so the *per-element* cost drops well below a
  CPython 254-bit ``(a*b) % p`` once ``n`` is a few hundred lanes.
* :class:`Gmpy2Backend` — a ``gmpy2.mpz`` fast path auto-detected at
  import.  gmpy2's GMP-backed ints multiply 254-bit values ~2-3x faster
  than CPython's; the backend mirrors the scalar algorithms element-wise.

Selection is via the ``ZENO_FIELD_BACKEND`` environment variable
(``auto`` | ``scalar`` | ``numpy`` | ``gmpy2``); ``auto`` prefers numpy,
then gmpy2, then scalar.  :func:`set_backend` overrides at runtime (tests,
CI's forced-scalar second run).

Montgomery layout (the numpy backend)
-------------------------------------

For an odd modulus ``p`` of ``b`` bits the :class:`LimbPlan` picks
``W = 29``-bit limbs and ``L = ceil((b + 7) / W)`` of them, so
``R = 2**(W*L) >= 128 * p``.  All arrays are ``int64`` with shape
``(L, *lanes)``; limb products are at most ``2**58`` and anti-diagonal
column sums at most ``9 * 2**58 < 2**63``, so the whole CIOS-style
multiply-and-reduce runs in exact int64 arithmetic with a single-limb
carry fix-up per reduction step.  Two value forms appear:

* *plain* — the array encodes ``v`` itself;
* *mont*  — the array encodes ``v * R mod p``.

``mont_mul(A, B) = A * B / R mod p``, so ``mont_mul(plain, mont)`` is a
plain product: hot loops keep **data plain** and store their constant
tables (twiddles, coset scales) in mont form, paying zero conversion
passes per transform.  Values may drift above ``p`` (bounded lazily by
multiples of ``p``); :func:`canonicalize` folds them back with a
compare-and-subtract ladder before results leave the backend.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.field.counters import global_counter
from repro.field.fp import Field

try:  # numpy ships with the package (pyproject dependency) but stay gated
    import numpy as _np
except Exception:  # pragma: no cover - numpy is a hard dep in practice
    _np = None

try:  # optional GMP fast path; never required
    import gmpy2 as _gmpy2

    _mpz = _gmpy2.mpz
except Exception:  # pragma: no cover - exercised on hosts without gmpy2
    _gmpy2 = None
    _mpz = None

HAS_NUMPY = _np is not None
HAS_GMPY2 = _gmpy2 is not None

LIMB_BITS = 29
_MASK = (1 << LIMB_BITS) - 1

# Values held in limb arrays are allowed to drift up to BOUND_MULTIPLE * p
# before a canonicalization pass is forced (the NTT adds ~2p of drift per
# butterfly stage; 32p of headroom covers domains to 2^13 without any
# mid-transform reduction).
BOUND_MULTIPLE = 32


class LimbPlan:
    """Per-modulus constants for the fixed-limb Montgomery representation."""

    __slots__ = (
        "modulus", "bits", "limbs", "R", "R_mod_p", "R2", "Rinv", "n0inv",
        "p_limbs", "p_col", "kp_cols", "ladder", "r2_col", "one_col",
    )

    def __init__(self, modulus: int) -> None:
        if modulus < 3 or modulus % 2 == 0:
            raise ValueError(
                "limb plans require an odd modulus >= 3, got %d" % modulus
            )
        self.modulus = modulus
        self.bits = modulus.bit_length()
        self.limbs = -(-(self.bits + 7) // LIMB_BITS)
        self.R = 1 << (LIMB_BITS * self.limbs)
        if self.R < BOUND_MULTIPLE * 4 * modulus:
            # Tiny moduli leave no lazy-reduction headroom; bump L.
            while self.R < BOUND_MULTIPLE * 4 * modulus:
                self.limbs += 1
                self.R = 1 << (LIMB_BITS * self.limbs)
        self.R_mod_p = self.R % modulus
        self.R2 = self.R * self.R % modulus
        self.Rinv = pow(self.R, -1, modulus)
        self.n0inv = (-pow(modulus, -1, 1 << LIMB_BITS)) % (1 << LIMB_BITS)
        self.p_limbs = self._int_limbs(modulus)
        self.p_col = self.p_limbs.reshape(self.limbs, 1)
        # k*p offset / subtraction ladder: index k -> limbs of k*p.
        self.kp_cols = [
            self._int_limbs(k * modulus).reshape(self.limbs, 1)
            for k in range(BOUND_MULTIPLE + 3)
        ]
        # Compare-and-subtract ladder used by canonicalize(): handles
        # values up to 64p (NTT drift tops out at 32p; CSR segment sums
        # at 64-term granularity stay under ~60p).
        self.ladder = [
            self._int_limbs(k * modulus)
            for k in (32, 16, 8, 4, 2, 1)
        ]
        self.r2_col = self._int_limbs(self.R2).reshape(self.limbs, 1)
        self.one_col = self._int_limbs(1).reshape(self.limbs, 1)

    def _int_limbs(self, value: int):
        out = _np.zeros(self.limbs, dtype=_np.int64)
        for j in range(self.limbs):
            out[j] = (value >> (LIMB_BITS * j)) & _MASK
        return out


_PLANS: Dict[int, LimbPlan] = {}
_PLAN_LOCK = threading.Lock()


def plan_for(field_or_modulus) -> LimbPlan:
    """The memoized :class:`LimbPlan` for a field/modulus."""
    modulus = getattr(field_or_modulus, "modulus", field_or_modulus)
    plan = _PLANS.get(modulus)
    if plan is None:
        with _PLAN_LOCK:
            plan = _PLANS.get(modulus)
            if plan is None:
                plan = LimbPlan(modulus)
                _PLANS[modulus] = plan
    return plan


# -- limb array construction / extraction -------------------------------------------


def to_limbs(plan: LimbPlan, values: Sequence[int], validate: bool = False):
    """Canonical ints -> ``(L, n)`` int64 limb array (plain form).

    With ``validate`` the inputs must already be canonical
    (``0 <= v < p``); non-canonical values raise ``ValueError`` instead of
    being silently reduced — the backend parity contract is on canonical
    representatives only.
    """
    n = len(values)
    L = plan.limbs
    if n == 0:
        return _np.zeros((L, 0), dtype=_np.int64)
    if validate:
        p = plan.modulus
        for v in values:
            if not isinstance(v, int) or v < 0 or v >= p:
                raise ValueError(
                    "non-canonical field element %r (expected 0 <= v < p)"
                    % (v,)
                )
    nbytes = (LIMB_BITS * L + 7) // 8
    blob = b"".join(v.to_bytes(nbytes, "little") for v in values)
    raw = _np.frombuffer(blob, dtype=_np.uint8).reshape(n, nbytes)
    out = _np.zeros((L, n), dtype=_np.int64)
    for j in range(L):
        bit = LIMB_BITS * j
        byte0 = bit >> 3
        off = bit & 7
        acc = _np.zeros(n, dtype=_np.uint64)
        for k in range((off + LIMB_BITS + 7) // 8):
            if byte0 + k < nbytes:
                acc |= raw[:, byte0 + k].astype(_np.uint64) << _np.uint64(8 * k)
        out[j] = ((acc >> _np.uint64(off)) & _np.uint64(_MASK)).astype(
            _np.int64
        )
    return out


def from_limbs(plan: LimbPlan, arr) -> List[int]:
    """Canonical-normalized ``(L, n)`` limb array -> list of canonical ints.

    The array must hold canonical values (``< p``, limbs in
    ``[0, 2**29)``); run :func:`canonicalize` first if unsure.
    """
    L = plan.limbs
    flat = arr.reshape(L, -1)
    n = flat.shape[1]
    if n == 0:
        return []
    words = (LIMB_BITS * L + 63) // 64
    w = _np.zeros((n, words), dtype=_np.uint64)
    limbs_u = flat.astype(_np.uint64)
    for j in range(L):
        bit = LIMB_BITS * j
        wi, off = bit // 64, bit % 64
        w[:, wi] |= limbs_u[j] << _np.uint64(off)
        if off + LIMB_BITS > 64 and wi + 1 < words:
            w[:, wi + 1] |= limbs_u[j] >> _np.uint64(64 - off)
    blob = w.tobytes()
    stride = words * 8
    return [
        int.from_bytes(blob[i * stride : (i + 1) * stride], "little")
        for i in range(n)
    ]


# -- normalization ------------------------------------------------------------------


def _ripple_norm(arr) -> None:
    """Propagate limb carries/borrows in place until limbs are canonical.

    The value encoded must be nonnegative and < 2**(29*L); the top row is
    left unmasked so no bits can fall off the end.  Converges in a couple
    of passes for the magnitudes our kernels produce (the first pass is
    unconditional — butterfly outputs always need one — then cheap
    any-carry checks gate the tail).
    """
    low = arr[:-1]
    c = low >> LIMB_BITS
    _np.bitwise_and(low, _MASK, out=low)
    arr[1:] += c
    for _ in range(arr.shape[0] + 2):
        _np.right_shift(low, LIMB_BITS, out=c)
        if not c.any():
            return
        _np.bitwise_and(low, _MASK, out=low)
        arr[1:] += c
    raise AssertionError("limb normalization failed to converge")


def canonicalize(plan: LimbPlan, arr) -> None:
    """In place: reduce plain/mont values to canonical ``[0, p)`` form.

    Accepts the lazily-bounded output of the NTT/mul kernels (values up to
    ``BOUND_MULTIPLE * p``): a compare-and-subtract ladder over
    ``16p, 8p, 4p, 2p, p``.
    """
    L = plan.limbs
    _ripple_norm(arr)
    flat = arr.reshape(L, -1)
    for kp in plan.ladder:
        # Lexicographic >= against the constant, top limb first.
        ge = flat[L - 1] > kp[L - 1]
        eq = flat[L - 1] == kp[L - 1]
        for j in range(L - 2, -1, -1):
            ge = ge | (eq & (flat[j] > kp[j]))
            eq = eq & (flat[j] == kp[j])
        ge = ge | eq
        if not ge.any():
            continue
        flat -= kp.reshape(L, 1) * ge.astype(_np.int64)
        _ripple_norm(flat)


# -- the Montgomery multiply kernel -------------------------------------------------


class _Work:
    """Reusable scratch buffers for one lane width."""

    __slots__ = ("T", "prod", "m")

    def __init__(self, L: int, n: int) -> None:
        self.T = _np.zeros((2 * L, n), dtype=_np.int64)
        self.prod = _np.empty((L, n), dtype=_np.int64)
        self.m = _np.empty(n, dtype=_np.int64)


def mont_mul_into(plan: LimbPlan, A, B, out, work: Optional[_Work] = None):
    """``out = A * B / R mod p`` (+ a multiple of p), limbs canonical.

    ``A``: limbs in ``[0, 2**30)``, value in ``[0, BOUND_MULTIPLE * p)``.
    ``B``: limbs in ``[0, 2**29)``, value in ``[0, p)`` — the "constant"
    side (twiddle/scale tables, canonical vectors).  ``B`` may broadcast
    (an ``(L, 1)`` column against ``(L, n)`` data).

    Output value is ``< p + A*B/R <= ~1.2p`` with canonical-normalized
    limbs; exact up to the multiple of ``p``, which downstream
    canonicalization removes.  All loop iterations are full-array numpy
    ops: ``2 * L**2`` limb products per element.
    """
    L = plan.limbs
    n = out.shape[-1] if out.ndim > 1 else 1
    flatA = A.reshape(L, -1)
    flatB = B.reshape(L, -1)
    flatO = out.reshape(L, -1)
    lanes = flatA.shape[1]
    if work is None or work.T.shape[1] != lanes:
        work = _Work(L, lanes)
    T, prod, m = work.T, work.prod, work.m
    T[:] = 0
    if flatB.shape[1] == 1:
        # Broadcast-constant multiply: numpy broadcasting handles it.
        for i in range(L):
            _np.multiply(flatB, flatA[i], out=prod)
            T[i : i + L] += prod
    else:
        for i in range(L):
            _np.multiply(flatA[i], flatB, out=prod)
            T[i : i + L] += prod
    n0inv = plan.n0inv
    p_col = plan.p_col
    for i in range(L):
        _np.multiply(T[i], n0inv, out=m)
        _np.bitwise_and(m, _MASK, out=m)
        _np.multiply(m, p_col, out=prod)
        T[i : i + L] += prod
        _np.right_shift(T[i], LIMB_BITS, out=m)
        T[i + 1] += m
    hi = T[L:]
    for _ in range(2):
        c = hi >> LIMB_BITS
        _np.bitwise_and(hi, _MASK, out=hi)
        hi[1:] += c[:-1]
    flatO[:] = hi
    return out


def mont_mul(plan: LimbPlan, A, B, work: Optional[_Work] = None):
    out = _np.empty_like(A)
    return mont_mul_into(plan, A, B, out, work)


def to_mont(plan: LimbPlan, arr):
    """plain -> mont form (one multiply by ``R^2``)."""
    return mont_mul(plan, arr, plan.r2_col)


def from_mont(plan: LimbPlan, arr):
    """mont -> plain form (one multiply by 1)."""
    return mont_mul(plan, arr, plan.one_col)


# -- NTT stages as an array program -------------------------------------------------


def ntt_stages(
    plan: LimbPlan,
    data,
    stage_twiddles: List,
    bound_p: int = 1,
) -> int:
    """Iterative radix-2 butterflies over bit-reversed ``data``, in place.

    ``data``: contiguous ``(L, C, d)`` plain-form limbs, ``C`` independent
    vectors batched through every stage together.  ``stage_twiddles``: per
    stage a canonical *mont-form* twiddle table — either ``(L, half)``
    (broadcast per group at call time) or pre-tiled ``(L, C*d//2)``
    covering every lane (the Domain caches tiled tables per batch width so
    no per-stage broadcast copy is paid) — or ``None`` for the all-ones
    first stage, which needs no multiplies.  ``bound_p`` is the current
    value bound in multiples of ``p``; the return value is the new bound.
    When the running bound would overflow the lazy-reduction headroom the
    data is canonicalized mid-transform (only reachable for domains past
    ``~2^13``).
    """
    L = plan.limbs
    d = data.shape[-1]
    C = data.shape[1] if data.ndim == 3 else 1
    view = data.reshape(L, C, d)
    lanes = C * (d // 2)
    work = _Work(L, lanes) if lanes else None
    t_flat = _np.empty((L, lanes), dtype=_np.int64)
    for s, tw in enumerate(stage_twiddles):
        half = 1 << s
        groups = d >> (s + 1)
        # Projected post-stage bound; canonicalize first if it would
        # exhaust the lazy-reduction headroom.
        projected = (2 * bound_p) if tw is None else (bound_p + 2)
        if projected > BOUND_MULTIPLE:
            canonicalize(plan, view)
            bound_p = 1
        V = view.reshape(L, C, groups, 2 * half)
        u = V[..., :half]
        odd = V[..., half:]
        t = t_flat.reshape(L, C, groups, half)
        if tw is None:
            t[:] = odd
            t_bound = bound_p
        else:
            _np.copyto(t, odd)
            if tw.shape[1] == lanes:
                twb = tw  # pre-tiled across every lane: use as-is
            else:
                twb = _np.broadcast_to(
                    tw.reshape(L, 1, 1, half), (L, C, groups, half)
                ).reshape(L, -1)
            mont_mul_into(plan, t_flat, twb, t_flat, work)
            t_bound = 2  # value < p + 32p * p / R <= 2p
        off = plan.kp_cols[t_bound].reshape(L, 1, 1, 1)
        _np.subtract(u, t, out=odd)  # u still holds the original even half
        odd += off
        u += t
        _ripple_norm(view.reshape(L, -1))
        bound_p = bound_p + t_bound
    return bound_p


def bit_reverse_gather(data, bitrev):
    """Apply the bit-reversal permutation along the last axis (copies)."""
    return _np.ascontiguousarray(data[..., bitrev])


def pointwise_mont(plan: LimbPlan, data, table, work: Optional[_Work] = None):
    """``data[..., i] * table[..., i] / R`` — one fused pointwise pass.

    ``data`` is ``(L, C, d)`` (or ``(L, d)``); ``table`` is ``(L, d)`` and
    broadcasts across the ``C`` axis.  With a mont-form ``table`` this is a
    plain pointwise product (the coset-shift / INTT-scale passes); with a
    plain table the result picks up an extra ``R^{-1}`` (used to pre-divide
    one quotient chain).
    """
    L = plan.limbs
    flat = _np.ascontiguousarray(data).reshape(L, -1)
    out = _np.empty_like(flat)
    if table.size == data.size:
        mont_mul_into(
            plan, flat, _np.ascontiguousarray(table).reshape(L, -1), out, work
        )
    else:
        # Table repeats across the batch axis: multiply each chain's
        # contiguous block against it instead of materializing a broadcast.
        tflat = _np.ascontiguousarray(table).reshape(L, -1)
        d = tflat.shape[1]
        reps = flat.shape[1] // d
        seg_work = _Work(L, d) if reps > 1 else work
        for c in range(reps):
            mont_mul_into(
                plan,
                flat[:, c * d:(c + 1) * d],
                tflat,
                out[:, c * d:(c + 1) * d],
                seg_work,
            )
    return out.reshape(data.shape)


def powers_limbs(plan: LimbPlan, base: int, count: int, mont: bool = False):
    """``[base^0 .. base^(count-1)]`` built resident, by block doubling.

    Each doubling step extends the table with one vectorized multiply by
    the constant ``base^block``, so construction is ~1 lane-multiply per
    element with no Python-int chain.  With ``mont`` the table is produced
    in Montgomery form (ready to be a butterfly/scale constant).  Output is
    canonical.
    """
    p = plan.modulus
    L = plan.limbs
    base %= p
    out = _np.zeros((L, max(count, 0)), dtype=_np.int64)
    if count <= 0:
        return out
    first = plan.R_mod_p if mont else 1
    out[:, 0] = to_limbs(plan, [first])[:, 0]
    block = 1
    work: Optional[_Work] = None
    while block < count:
        width = min(block, count - block)
        # Constant multiplier for this doubling: base^block (mont-form
        # tables fold the R factor into the running values, so the
        # constant itself stays canonical either way).
        const_col = to_limbs(plan, [pow(base, block, p) * plan.R_mod_p % p])
        out[:, block : block + width] = mont_mul(
            plan, _np.ascontiguousarray(out[:, :width]), const_col
        )
        block <<= 1
    canonicalize(plan, out)
    return out


# -- backend objects ----------------------------------------------------------------


class ScalarBackend:
    """Reference backend: canonical Python-int arithmetic via ``Field``."""

    name = "scalar"
    supports_ntt = False
    supports_vector = False

    def mul_list(self, field: Field, xs, ys):
        p = field.modulus
        global_counter().field_mul += len(xs)
        return [x * y % p for x, y in zip(xs, ys)]

    def add_list(self, field: Field, xs, ys):
        p = field.modulus
        global_counter().field_add += len(xs)
        return [(x + y) % p for x, y in zip(xs, ys)]

    def sub_list(self, field: Field, xs, ys):
        p = field.modulus
        global_counter().field_add += len(xs)
        return [(x - y) % p for x, y in zip(xs, ys)]

    def inv_list(self, field: Field, xs, zero_ok: bool = False):
        # The scalar Montgomery batch-inversion trick: one field inversion
        # plus 3(n-1) multiplies, zeros masked to 0 when allowed.
        p = field.modulus
        n = len(xs)
        if n == 0:
            return []
        prefix = [0] * n
        running = 1
        any_nonzero = False
        for i, v in enumerate(xs):
            if v == 0:
                if not zero_ok:
                    raise ZeroDivisionError(
                        "batch_inverse received a zero element"
                    )
                prefix[i] = 0
                continue
            running = running * v % p
            prefix[i] = running
            any_nonzero = True
        counter = global_counter()
        out = [0] * n
        if not any_nonzero:
            counter.field_inv += 1
            counter.field_mul += 3 * max(n - 1, 0)
            return out
        inv_running = field.inv(running)  # the single inversion (counted)
        for i in range(n - 1, -1, -1):
            if xs[i] == 0:
                continue
            prev = 1
            for j in range(i - 1, -1, -1):
                if prefix[j]:
                    prev = prefix[j]
                    break
            out[i] = inv_running * prev % p
            inv_running = inv_running * xs[i] % p
        counter.field_mul += 3 * max(n - 1, 0)
        return out


class NumpyBackend(ScalarBackend):
    """Vectorized limb-Montgomery backend (numpy int64 arrays)."""

    name = "numpy"
    supports_ntt = True
    supports_vector = True

    # Below this many elements the per-call numpy overhead beats the win;
    # list-level entry points fall back to scalar arithmetic.
    min_lanes = 64

    # No inv_list override: on SIMD-less int64 hardware limb conversions
    # plus ~250ns/lane kernel passes lose to the scalar backend's
    # 3-mulmod/element Montgomery trick at every size (0.65x at 16k
    # elements measured).

    def _validated(self, plan: LimbPlan, xs):
        return to_limbs(plan, xs, validate=True)

    def mul_list(self, field: Field, xs, ys):
        if len(xs) < self.min_lanes:
            return ScalarBackend.mul_list(self, field, xs, ys)
        plan = plan_for(field)
        A = self._validated(plan, xs)
        B = to_mont(plan, self._validated(plan, ys))
        out = mont_mul(plan, A, B)
        canonicalize(plan, out)
        global_counter().field_mul += len(xs)
        return from_limbs(plan, out)

    def add_list(self, field: Field, xs, ys):
        if len(xs) < self.min_lanes:
            return ScalarBackend.add_list(self, field, xs, ys)
        plan = plan_for(field)
        out = self._validated(plan, xs) + self._validated(plan, ys)
        canonicalize(plan, out)
        global_counter().field_add += len(xs)
        return from_limbs(plan, out)

    def sub_list(self, field: Field, xs, ys):
        if len(xs) < self.min_lanes:
            return ScalarBackend.sub_list(self, field, xs, ys)
        plan = plan_for(field)
        out = self._validated(plan, xs) - self._validated(plan, ys)
        out += plan.kp_cols[1]
        canonicalize(plan, out)
        global_counter().field_add += len(xs)
        return from_limbs(plan, out)


class Gmpy2Backend(ScalarBackend):
    """GMP-backed big-int fast path (list-level ops on ``mpz`` values)."""

    name = "gmpy2"
    supports_ntt = False
    supports_vector = False

    def mul_list(self, field: Field, xs, ys):
        p = _mpz(field.modulus)
        global_counter().field_mul += len(xs)
        return [int(_mpz(x) * y % p) for x, y in zip(xs, ys)]

    def add_list(self, field: Field, xs, ys):
        p = _mpz(field.modulus)
        global_counter().field_add += len(xs)
        return [int((_mpz(x) + y) % p) for x, y in zip(xs, ys)]

    def sub_list(self, field: Field, xs, ys):
        p = _mpz(field.modulus)
        global_counter().field_add += len(xs)
        return [int((_mpz(x) - y) % p) for x, y in zip(xs, ys)]

    def inv_list(self, field: Field, xs, zero_ok: bool = False):
        p = _mpz(field.modulus)
        n = len(xs)
        if n == 0:
            return []
        prefix = [None] * n
        running = _mpz(1)
        for i, v in enumerate(xs):
            if v == 0:
                if not zero_ok:
                    raise ZeroDivisionError(
                        "batch_inverse received a zero element"
                    )
                continue
            running = running * v % p
            prefix[i] = running
        counter = global_counter()
        counter.field_inv += 1
        inv_running = _gmpy2.invert(running, p)
        out = [0] * n
        last_prefix = _mpz(1)
        for i in range(n - 1, -1, -1):
            if xs[i] == 0:
                continue
            prev = None
            for j in range(i - 1, -1, -1):
                if prefix[j] is not None:
                    prev = prefix[j]
                    break
            out[i] = int(inv_running * (prev if prev is not None else 1) % p)
            inv_running = inv_running * xs[i] % p
        counter.field_mul += 3 * max(n - 1, 0)
        return out


_VALID = ("auto", "scalar", "numpy", "gmpy2")
_lock = threading.Lock()
_active: Optional[ScalarBackend] = None
_active_name: Optional[str] = None


def _resolve(name: str) -> ScalarBackend:
    if name == "auto":
        if HAS_NUMPY:
            return NumpyBackend()
        if HAS_GMPY2:
            return Gmpy2Backend()
        return ScalarBackend()
    if name == "numpy":
        if not HAS_NUMPY:
            raise RuntimeError("ZENO_FIELD_BACKEND=numpy but numpy is absent")
        return NumpyBackend()
    if name == "gmpy2":
        if not HAS_GMPY2:
            raise RuntimeError("ZENO_FIELD_BACKEND=gmpy2 but gmpy2 is absent")
        return Gmpy2Backend()
    return ScalarBackend()


def get_backend() -> ScalarBackend:
    """The process-wide active backend (env-selected, overridable)."""
    global _active, _active_name
    if _active is None:
        with _lock:
            if _active is None:
                name = os.environ.get("ZENO_FIELD_BACKEND", "auto").lower()
                if name not in _VALID:
                    raise ValueError(
                        "ZENO_FIELD_BACKEND must be one of %s, got %r"
                        % ("/".join(_VALID), name)
                    )
                _active = _resolve(name)
                _active_name = name
    return _active


def set_backend(name: str) -> ScalarBackend:
    """Force a backend by name (tests / CI); returns the new instance."""
    global _active, _active_name
    if name not in _VALID:
        raise ValueError("unknown backend %r" % (name,))
    with _lock:
        _active = _resolve(name)
        _active_name = name
    return _active


def backend_name() -> str:
    """The active backend's concrete name (resolves ``auto``)."""
    return get_backend().name
