"""The array field kernel (``repro.field.backend``).

An NTT over Python ints bottoms out in per-element big-int ``%``
operations.  This module runs the QAP transforms of :mod:`repro.snark.qap`
as array programs instead: field elements as columns of float64 limbs,
multiplication by a constant as an exact matrix product that BLAS
executes.  :class:`repro.snark.qap.Domain` uses it at domain sizes from
``qap._VECTOR_NTT_MIN`` up and keeps its scalar ``_ntt`` below that, where
the kernel's fixed cost per stage loses; the scalar path is also the
oracle the kernel must match bit for bit (the hypothesis parity suite, and
``tests/test_golden_quotients.py`` pins quotients and proof bytes of both
to the same frozen fixture).

The constant-operand matmul kernel
----------------------------------

A vector of ``n`` field elements is an ``(L + 1, n)`` float64 array of
*signed* ``W = 22``-bit limbs, limb axis first, lanes last: ``L`` limbs
cover the modulus (12 for BN254) and one more row absorbs carries.  Limbs
are integers but not canonical: adds and subtracts let them drift, and the
value they encode is only congruent to the field element, growing by
multiples of ``p``.

Multiplying by a constant ``w`` is linear in the limbs of the data:
``x * w = sum_i x_i * (2^(W i) * w mod p)  (mod p)``, so ``w`` *is* the
``(L, L + 1)`` matrix whose column ``i`` holds the limbs of
``2^(W i) w mod p`` and the product is one ``matmul``.  The modular
reduction happens inside the matrix; the result needs only carry
propagation (:func:`normalize`, two balanced ``rint`` rounds), and
nothing is reduced mod ``p`` until values leave as Python ints
(:func:`from_limbs`).  Every multiplication of an NTT has a constant
operand, so a butterfly stage is one batched matmul of the stage's twiddle
matrices (:func:`ntt`); only the quotient's ``A * B`` needs the data-by-data
product (:func:`mul`: schoolbook limb convolution, then the fixed matrix of
``2^(W k) mod p`` folds the high half back).

Exactness: all operands are integers and every partial sum of every
product stays below ``2^53`` (:func:`exactness_bounds`, asserted when a
:class:`LimbPlan` is built), so each float64 operation is exact and the
result does not depend on BLAS summation order, FMA contraction or thread
count.  DESIGN.md carries the argument.
"""

from __future__ import annotations

import threading
from operator import methodcaller
from typing import Dict, List, Sequence, Tuple

import numpy as _np

LIMB_BITS = 22
_BASE = float(1 << LIMB_BITS)
_INV_BASE = 1.0 / _BASE
_MASK = (1 << LIMB_BITS) - 1

# Lanes per kernel call.  Two reasons, both measured: the scratch of one
# call (13 x 2048 doubles, twice) stays in L2, and a dgemm stays below the
# 2^20 multiply-adds at which this OpenBLAS wakes its thread pool (8 ms per
# call on a shared two-core host, against 0.02 ms for the product itself).
CHUNK_LANES = 2048

# The deepest transform ntt() accepts (BN254 Fr has 2-adicity 28): the depth
# exactness_bounds() is asserted for when a plan is built.
MAX_STAGES = 28


def exactness_bounds(bits: int, limbs: int, stages: int) -> Tuple[int, int]:
    """Worst case of the kernel for a ``bits``-bit modulus in ``limbs`` limbs.

    Returns ``(partial, value)``: the largest magnitude any partial sum of
    any matmul or limb product can reach — which must stay below ``2^53``
    for float64 to be exact — and the largest ``|value| / p`` a limb column
    can encode, which :func:`from_limbs` must be able to offset and pack.
    Walks the longest pipeline a caller runs, the quotient's — transform,
    two-level scale, transform, :func:`mul`, transform, scale, subtract —
    with ``stages`` lazy butterfly stages per transform, each transform
    starting from the larger of canonical input and what precedes it, so
    every shorter composition is covered too.  Pure Python ints.
    """
    rows = limbs + 1
    base, half = 1 << LIMB_BITS, 1 << (LIMB_BITS - 1)
    # Matrix entries are limbs of residues: below 2^W, the top one smaller.
    top_entry = (1 << max(bits - LIMB_BITS * (limbs - 1), 0)) + 1
    worst = [0, 1]

    def product(drift: int, terms: int = rows) -> Tuple[int, int]:
        """``normalize(matrix @ x)`` for limbs ``|x_i| <= drift``."""
        raw = terms * base * drift  # one row of the matmul
        worst[0] = max(worst[0], raw)
        carry = raw // base + 1
        fresh = half + (half + carry) // base + 2  # after two rint rounds
        top = terms * top_entry * drift // base + carry // base + 2
        return max(fresh, top), terms * drift  # |matrix @ x| <= sum |x_i| p

    def transform(drift: int, value: int) -> Tuple[int, int]:
        drift, value = 2 * max(drift, base), 2 * max(value, 1)  # twiddle 1
        for _ in range(1, stages):
            fresh, grown = product(drift)
            drift, value = drift + fresh, value + grown
        worst[1] = max(worst[1], value)
        return drift, value

    drift, value = transform(0, 0)
    drift, value = product(product(drift)[0])
    drift, value = transform(drift, value)
    # mul(): both operands normalized; the carry row holds value / 2^(W L).
    operand = max(
        half + (half + drift) // base + 2,
        (value << bits) // (1 << (LIMB_BITS * limbs)) + 2,
    )
    column = rows * operand * operand  # one schoolbook column
    worst[0] = max(worst[0], column)
    folded = max(
        half + (half + column // base) // base + 2,
        (operand * operand + column // base) // base + 2,
    )
    drift, value = transform(*product(folded, terms=2 * rows))
    drift, value = product(product(drift)[0])
    worst[1] = max(worst[1], 2 * value)  # the quotient's e - c
    return worst[0], worst[1]


class LimbPlan:
    """Per-modulus constants of the float64 limb representation."""

    __slots__ = (
        "modulus", "bits", "limbs", "rows", "in_words", "out_words",
        "top_bits", "offset_col", "p_col", "inv_p", "shift", "fold",
    )

    def __init__(self, modulus: int) -> None:
        if modulus < 3 or modulus % 2 == 0:
            raise ValueError(
                "limb plans require an odd modulus >= 3, got %d" % modulus
            )
        self.modulus = modulus
        self.bits = modulus.bit_length()
        self.limbs = -(-(self.bits + 2) // LIMB_BITS)
        self.rows = self.limbs + 1
        partial, value = exactness_bounds(self.bits, self.limbs, MAX_STAGES)
        if partial >= 1 << 53:
            raise ValueError(
                "%d-bit modulus overflows float64 partial sums" % self.bits
            )
        # from_limbs() adds p << k (k = value.bit_length()) so every column
        # is nonnegative, then packs it: the carry row must fit a double
        # and the whole value the output words.
        k = value.bit_length()
        self.top_bits = self.bits + k + 1 - LIMB_BITS * self.limbs
        if not 0 < self.top_bits < 53:
            raise ValueError("%d-bit modulus overflows the carry limb" % self.bits)
        self.in_words = -(-self.bits // 64)
        self.out_words = -(-(self.bits + k + 1) // 64)
        self.offset_col = self.int_col(modulus << k)
        self.p_col = self.int_col(modulus)
        self.inv_p = float(1 << (LIMB_BITS * (self.rows - 3))) / float(modulus)
        self.shift = self.const_matrix(1 << LIMB_BITS)
        # mul()'s fold: column k holds the limbs of 2^(W k) mod p.
        self.fold = _np.concatenate(
            [
                self.int_col(pow(2, LIMB_BITS * k, modulus))[: self.limbs]
                for k in range(2 * self.rows)
            ],
            axis=1,
        )

    def int_col(self, value: int):
        """``(rows, 1)`` canonical limbs of a nonnegative int; whatever
        exceeds ``limbs`` limbs lands in the carry row."""
        out = _np.zeros((self.rows, 1))
        for j in range(self.limbs):
            out[j, 0] = (value >> (LIMB_BITS * j)) & _MASK
        out[self.limbs, 0] = value >> (LIMB_BITS * self.limbs)
        return out

    def const_matrix(self, w: int):
        """The ``(limbs, rows)`` matrix of one constant, from Python ints."""
        p = self.modulus
        return _np.concatenate(
            [
                self.int_col((w << (LIMB_BITS * i)) % p)[: self.limbs]
                for i in range(self.rows)
            ],
            axis=1,
        )


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


# -- ints <-> limb arrays -----------------------------------------------------------


def to_limbs(plan: LimbPlan, values: Sequence[int], validate: bool = False):
    """Ints in ``[0, 2^(64 in_words))`` -> ``(rows, n)`` canonical limbs.

    With ``validate`` the inputs must already be canonical
    (``0 <= v < p``); non-canonical values raise ``ValueError`` instead of
    being silently reduced — the kernel's parity contract is on canonical
    representatives only.
    """
    n = len(values)
    out = _np.zeros((plan.rows, n))
    if n == 0:
        return out
    if validate:
        p = plan.modulus
        for v in values:
            if not isinstance(v, int) or v < 0 or v >= p:
                raise ValueError(
                    "non-canonical field element %r (expected 0 <= v < p)"
                    % (v,)
                )
    nw = plan.in_words
    blob = b"".join(map(methodcaller("to_bytes", 8 * nw, "little"), values))
    words = _np.frombuffer(blob, dtype="<u8").reshape(n, nw)
    for j in range(plan.limbs):
        wi, off = divmod(LIMB_BITS * j, 64)
        if wi >= nw:
            break
        limb = words[:, wi] >> _np.uint64(off)
        if off + LIMB_BITS > 64 and wi + 1 < nw:
            limb = limb | (words[:, wi + 1] << _np.uint64(64 - off))
        out[j] = limb & _np.uint64(_MASK)
    return out


def from_limbs(plan: LimbPlan, arr) -> List[int]:
    """Lazy signed limbs -> canonical ints: the only reduction mod ``p``.

    Adds the plan's multiple of ``p`` so every column is nonnegative,
    ripples carries to canonical limbs, packs them into bytes and lets
    Python reduce each value.
    """
    flat = arr.reshape(plan.rows, -1) + plan.offset_col
    n = flat.shape[1]
    if n == 0:
        return []
    low = flat[:-1]
    for _ in range(plan.rows + 3):
        carry = _np.floor(low * _INV_BASE)
        if not carry.any():
            break
        flat[1:] += carry
        low -= carry * _BASE
    else:
        raise AssertionError("limb normalization failed to converge")
    limbs_u = flat.astype(_np.uint64)
    nw = plan.out_words
    words = _np.zeros((n, nw), dtype=_np.uint64)
    for j in range(plan.rows):
        wi, off = divmod(LIMB_BITS * j, 64)
        words[:, wi] |= limbs_u[j] << _np.uint64(off)
        if off + (LIMB_BITS if j < plan.limbs else plan.top_bits) > 64:
            words[:, wi + 1] |= limbs_u[j] >> _np.uint64(64 - off)
    blob = words.tobytes()
    stride, p, load = nw * 8, plan.modulus, int.from_bytes
    return [
        load(blob[i : i + stride], "little") % p
        for i in range(0, n * stride, stride)
    ]


# -- the kernel ---------------------------------------------------------------------


def normalize(arr):
    """Balanced carry propagation along axis 0, in place.

    Each round leaves the low limbs in ``[-2^21, 2^21]`` plus the incoming
    carry; two rounds bring a raw matmul row (below ``2^53``) back to
    ``2^21`` and a little.  The last row only absorbs.
    """
    low = arr[:-1]
    carry = _np.empty_like(low)
    for _ in range(2):
        _np.multiply(low, _INV_BASE, out=carry)
        _np.rint(carry, out=carry)
        arr[1:] += carry
        carry *= _BASE
        low -= carry
    return arr


def mul_const(x, mats, out):
    """``out = mats @ x`` limb-wise, normalized: the kernel's one call.

    ``x`` and ``out`` are ``(rows, *lead, n)`` views with unit stride along
    ``n``; ``mats`` is ``(*lead, limbs, rows)`` or broadcasts to it — one
    constant per leading index, applied to that index's ``n`` lanes.
    Callers keep the lanes of one call at :data:`CHUNK_LANES`.
    """
    axes = tuple(range(1, x.ndim - 1)) + (0, x.ndim - 1)
    _np.matmul(mats, x.transpose(axes), out=out[:-1].transpose(axes))
    out[-1] = 0.0
    return normalize(out)


def scale(x, mats):
    """A new array ``mats @ x``: ``x`` is ``(rows, T, ..., n)``, ``mats``
    has one matrix per leading index or a leading 1 that broadcasts."""
    out = _np.empty(x.shape)
    per = x[0, 0].size
    step = max(1, CHUNK_LANES // per)
    for t in range(0, x.shape[1], step):
        mul_const(
            x[:, t : t + step],
            mats[t : t + step] if mats.shape[0] > 1 else mats,
            out[:, t : t + step],
        )
    return out


def reduce(plan: LimbPlan, x):
    """Normalized ``(rows, n)`` limbs -> the balanced residue, in place.

    One float Barrett step: the top three limbs estimate ``value / p`` to
    well under 1, so afterwards ``|value| < p``, the carry row is zero and
    the low rows are limbs a constant matrix may hold.  Needs
    ``|value| < 2^30 p`` (table construction: one product of a residue).
    """
    q = (x[-1] * _BASE + x[-2]) * _BASE + x[-3]
    q *= plan.inv_p
    _np.rint(q, out=q)
    x -= plan.p_col * q
    return normalize(x)


def _times(plan: LimbPlan, x, matrix):
    """Reduced ``x * constant`` for table construction (``x`` ``(rows, n)``)."""
    out = _np.empty(x.shape)
    for l in range(0, x.shape[1], CHUNK_LANES):
        at = (slice(None), slice(l, l + CHUNK_LANES))
        reduce(plan, mul_const(x[at], matrix, out[at]))
    return out


def powers_limbs(plan: LimbPlan, base: int, count: int, first: int = 1):
    """Reduced limbs of ``first * base^k``, ``k < count``, by block doubling:
    each step multiplies the table so far by the constant ``base^block``."""
    p = plan.modulus
    out = _np.zeros((plan.rows, max(count, 0)))
    if count <= 0:
        return out
    out[:, :1] = plan.int_col(first % p)
    block = 1
    while block < count:
        width = min(block, count - block)
        out[:, block : block + width] = _times(
            plan, out[:, :width], plan.const_matrix(pow(base, block, p))
        )
        block <<= 1
    return out


def const_matrices(plan: LimbPlan, limbs):
    """Reduced ``(rows, T)`` limbs -> ``(T, limbs, rows)`` constant matrices,
    built by the kernel: column ``i + 1`` is column ``i`` times ``2^W``."""
    mats = _np.empty((limbs.shape[1], plan.limbs, plan.rows))
    for i in range(plan.rows):
        mats[:, :, i] = limbs[:-1].T
        if i + 1 < plan.rows:
            limbs = _times(plan, limbs, plan.shift)
    return mats


def mul(plan: LimbPlan, x, y):
    """Data-by-data product of two ``(rows, n)`` arrays (normalized in
    place first): schoolbook limb convolution into ``2 rows`` limbs, then
    the fold matrix maps the high limbs back — a new normalized array."""
    rows, n = x.shape
    out = _np.empty((rows, n))
    step = CHUNK_LANES // 2  # the fold matmul is twice as deep
    for l in range(0, n, step):
        xs = normalize(x[:, l : l + step])
        ys = normalize(y[:, l : l + step])
        acc = _np.zeros((2 * rows, xs.shape[1]))
        tmp = _np.empty_like(xs)
        for i in range(rows):
            _np.multiply(xs[i], ys, out=tmp)
            acc[i : i + rows] += tmp
        mul_const(normalize(acc), plan.fold, out[:, l : l + step])
    return out


def _butterflies(a, b, mats, y0, y1) -> None:
    """``y0 = a + w b``, ``y1 = a - w b`` over ``(rows, m, n)`` views, one
    matrix of ``mats`` per index of axis 1, a chunk of lanes at a time."""
    m, n = a.shape[1:]
    mc, nc = (1, CHUNK_LANES) if n >= CHUNK_LANES else (CHUNK_LANES // n, n)
    scratch = _np.empty((a.shape[0], min(m, mc) * nc))
    for p in range(0, m, mc):
        for l in range(0, n, nc):
            at = (slice(None), slice(p, p + mc), slice(l, l + nc))
            t = scratch[:, : b[at][0].size].reshape(b[at].shape)
            mul_const(b[at], mats[p : p + mc], t)
            _np.subtract(a[at], t, out=y1[at])
            _np.add(a[at], t, out=y0[at])


def ntt(x, twiddles, inverse: bool = False):
    """Unscaled NTT along axis 1 of ``(rows, d, C)`` limbs.  Returns a new
    array; ``x`` is the other half of the ping-pong and is overwritten.

    Radix-2 decimation in time on the Stockham autosort schedule: natural
    order in and out, no bit-reversal pass.  Stage ``m`` reads pairs
    ``(p, 0|1, q)`` and writes ``(0|1, p, q)``, so the product operand and
    both outputs are whole blocks and only the pass-through operand is a
    strided view.  ``twiddles`` holds the matrices of ``omega^k`` for
    ``k = 0..d/2``; the inverse root needs no second table, since
    ``omega^-k = -omega^(d/2 - k)``: read the table backwards and swap the
    outputs.  The twiddle product is freshly normalized every stage; the
    pass-through operand is never normalized and drifts by one such limb
    per stage, which :func:`exactness_bounds` covers to :data:`MAX_STAGES`.
    """
    rows, d, C = x.shape
    if d > 1 << MAX_STAGES:
        raise ValueError(f"transform size {d} exceeds 2^{MAX_STAGES}")
    half = d // 2
    y = _np.empty(x.shape)
    m = 1
    while m < d:
        s = half // m
        xv = x.reshape(rows, m, 2, s * C)
        yv = y.reshape(rows, 2, m, s * C)
        a, b, y0, y1 = xv[:, :, 0], xv[:, :, 1], yv[:, 0], yv[:, 1]
        if m == 1:
            _np.add(a, b, out=y0)
            _np.subtract(a, b, out=y1)
        elif inverse:
            _butterflies(a, b, twiddles[half:0:-s], y1, y0)
        else:
            _butterflies(a, b, twiddles[0:half:s], y0, y1)
        x, y = y, x
        m <<= 1
    return x


def backend_name() -> str:
    """``"numpy"``, the one field kernel.  Kept because the benchmark
    harness (``benchmarks/e2e/harness.py::environment``) records it in
    every result's environment block."""
    return "numpy"
