"""Quadratic Arithmetic Program machinery: NTT domains and QAP evaluation.

Groth16 reduces an R1CS with ``m`` constraints to a QAP over an evaluation
domain of size ``d = next_pow2(m)`` with vanishing polynomial
``Z(x) = x^d - 1``.  BN254's scalar field has 2-adicity 28, so radix-2
domains up to ``2^28`` exist; roots of unity are derived from the
multiplicative generator 5 (the arkworks/bellman convention).

Two jobs live here:

* **setup side** — evaluate the Lagrange basis at the toxic-waste point
  ``tau`` to obtain per-variable ``A_i(tau), B_i(tau), C_i(tau)``;
* **prover side** — compute the quotient ``h(x) = (A_w B_w - C_w) / Z`` via
  the standard coset-NTT trick: on the coset ``g * H`` the vanishing
  polynomial is the constant ``g^d - 1``, so the division is pointwise.

A :class:`Domain` precomputes everything that is witness-independent at
construction — omega/coset power tables, per-stage butterfly twiddles, the
bit-reversal permutation — so repeated proving (batch sharing, the serve
loop) never rebuilds an O(d) power chain; :meth:`Domain.for_size` memoizes
whole domains per ``(size, modulus)``.

The prover-side entry points accept an optional CSR snapshot
(:meth:`repro.r1cs.system.ConstraintSystem.to_csr`); witness rows and the
quotient's transforms run in the calling process.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.field.fp import BN254_FR, Field
from repro.r1cs.lc import ONE
from repro.r1cs.system import ConstraintSystem

# Multiplicative generator of BN254 Fr (smallest generator, used by arkworks).
FR_GENERATOR = 5
FR_TWO_ADICITY = 28


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


# Domains memoized per (size, modulus): the power/twiddle tables are pure
# functions of the domain, so every prove over the same circuit size
# shares one instance.
#
# The cache is a bounded LRU: long-running serve/gateway processes see an
# unbounded variety of circuit sizes (one entry per (size, modulus), each
# holding O(d) tables), so an unbounded dict is a slow leak.  Eviction
# drops the least-recently-proved domain; rebuilding one is O(d) and rare.
# Fork-inherited copies in worker pools are independent after the fork —
# each process evicts only its own copy, so a worker churning through
# sizes never invalidates the parent's hot domains (regression-tested in
# tests/test_field_backend.py).
_DOMAIN_CACHE: "OrderedDict[Tuple[int, int], Domain]" = OrderedDict()
_DOMAIN_CACHE_LOCK = threading.Lock()
_DOMAIN_CACHE_MAX = 8


def domain_cache_info() -> Tuple[int, int]:
    """``(entries, capacity)`` of the process-wide domain LRU."""
    return len(_DOMAIN_CACHE), _DOMAIN_CACHE_MAX


# Below this domain size the scalar lazy-reduction path is faster than the
# array kernel's fixed cost per stage (a measured crossover, EXPERIMENTS.md;
# tests patch the attribute to force either path).
_VECTOR_NTT_MIN = 128


class Domain:
    """A radix-2 evaluation domain ``H = {w^0, ..., w^(d-1)}`` in Fr."""

    def __init__(self, size: int, field: Field = BN254_FR) -> None:
        d = _next_pow2(max(size, 2))
        if d.bit_length() - 1 > FR_TWO_ADICITY:
            raise ValueError(f"domain size {d} exceeds Fr 2-adicity")
        self.field = field
        self.size = d
        p = field.modulus
        exponent = (p - 1) >> (d.bit_length() - 1)
        self.omega = pow(FR_GENERATOR, exponent, p)
        self.omega_inv = pow(self.omega, -1, p)
        self.size_inv = pow(d, -1, p)
        self.coset_shift = FR_GENERATOR
        self.coset_shift_inv = pow(FR_GENERATOR, -1, p)
        # Witness-independent tables, built once per domain:
        self.omega_powers = self._power_table(self.omega)
        self.coset_powers = self._power_table(self.coset_shift)
        self.coset_inv_powers = self._power_table(self.coset_shift_inv)
        self._bitrev = self._bitrev_table()
        self._stage_twiddle_cache: Dict[int, List[List[int]]] = {}
        # Fused post-NTT scale tables: INTT's 1/d folded into the coset
        # shift (and its inverse), so each INTT -> coset hop costs one
        # pointwise pass instead of two.
        self._intt_coset_scale = [
            (g * self.size_inv) % p for g in self.coset_powers
        ]
        self._coset_intt_scale = [
            (g * self.size_inv) % p for g in self.coset_inv_powers
        ]
        # Constant matrices for the array kernel, built lazily on the first
        # array-path transform.
        self._vec: Optional["_VectorTables"] = None

    @classmethod
    def for_size(cls, size: int, field: Field = BN254_FR) -> "Domain":
        """Memoized domain lookup — one table build per ``(size, modulus)``,
        bounded LRU with least-recently-used eviction."""
        d = _next_pow2(max(size, 2))
        key = (d, field.modulus)
        with _DOMAIN_CACHE_LOCK:
            domain = _DOMAIN_CACHE.get(key)
            if domain is not None:
                _DOMAIN_CACHE.move_to_end(key)
                return domain
        # Build outside the lock (O(d) table construction); racing builders
        # may duplicate work but the cache stays consistent.
        domain = cls(d, field)
        with _DOMAIN_CACHE_LOCK:
            existing = _DOMAIN_CACHE.get(key)
            if existing is not None:
                _DOMAIN_CACHE.move_to_end(key)
                return existing
            _DOMAIN_CACHE[key] = domain
            while len(_DOMAIN_CACHE) > _DOMAIN_CACHE_MAX:
                _DOMAIN_CACHE.popitem(last=False)
        return domain

    # -- cached tables -----------------------------------------------------------

    def _power_table(self, base: int) -> List[int]:
        """``[base^0, ..., base^(d-1)] mod p``."""
        p = self.field.modulus
        table = [1] * self.size
        for j in range(1, self.size):
            table[j] = (table[j - 1] * base) % p
        return table

    def _bitrev_table(self) -> List[int]:
        """The bit-reversal permutation of ``range(d)``."""
        d = self.size
        log2d = d.bit_length() - 1
        table = [0] * d
        for i in range(1, d):
            table[i] = (table[i >> 1] >> 1) | ((i & 1) << (log2d - 1))
        return table

    def _stage_twiddles(self, root: int) -> List[List[int]]:
        """Per-stage butterfly twiddle tables for ``root`` (omega or its
        inverse), cached so no NTT pays the per-butterfly ``w *= step``
        update chain."""
        stages = self._stage_twiddle_cache.get(root)
        if stages is None:
            p = self.field.modulus
            d = self.size
            stages = []
            length = 2
            while length <= d:
                step = pow(root, d // length, p)
                half = length >> 1
                twiddles = [1] * half
                for i in range(1, half):
                    twiddles[i] = (twiddles[i - 1] * step) % p
                stages.append(twiddles)
                length <<= 1
            self._stage_twiddle_cache[root] = stages
        return stages

    # -- array kernel plumbing ---------------------------------------------------

    def _vector_tables(self) -> Optional["_VectorTables"]:
        """The limb-resident table bundle, or ``None`` below
        :data:`_VECTOR_NTT_MIN`, where the scalar ``_ntt`` runs."""
        if self.size < _VECTOR_NTT_MIN:
            return None
        vec = self._vec
        if vec is None:
            vec = _VectorTables(self)
            self._vec = vec
        return vec

    @staticmethod
    def _all_canonical(values: List[int], p: int) -> bool:
        return not values or (min(values) >= 0 and max(values) < p)

    def _bump_ntt_counters(self, transforms: int) -> None:
        """Charge the cost-model counters for ``transforms`` NTT passes —
        identical totals to the scalar butterfly loop, so the two paths are
        indistinguishable to the op-count benchmarks."""
        from repro.field.counters import global_counter

        counter = global_counter()
        log2d = self.size.bit_length() - 1
        counter.field_mul += (self.size >> 1) * log2d * transforms
        counter.field_add += self.size * log2d * transforms

    def _vec_run(self, vec, values: List[int], *steps: str) -> List[int]:
        """One vector through ``steps`` on the array kernel: ``"ntt"`` /
        ``"intt"`` are the unscaled transforms (the passes the cost model
        counts, as on the scalar path), anything else names a pointwise
        table of ``vec``, this domain's :class:`_VectorTables`."""
        from repro.field import backend as fb

        x = fb.to_limbs(vec.plan, values).reshape(vec.plan.rows, self.size, 1)
        for step in steps:
            if step in ("ntt", "intt"):
                x = fb.ntt(x, vec.twiddles, inverse=step == "intt")
                self._bump_ntt_counters(1)
            else:
                x = vec.pointwise(x, step)
        return fb.from_limbs(vec.plan, x)

    # -- NTT core ----------------------------------------------------------------

    def _ntt(self, values: List[int], omega: int) -> List[int]:
        """Iterative Cooley-Tukey NTT over cached tables (values copied).

        Butterfly sums are *lazily reduced*: the twiddle product is taken
        mod p every stage (so the odd branch stays canonical), while the
        add/sub results are left unreduced — magnitudes grow by at most p
        per stage, staying tiny for Python's bignums — and one cleanup
        pass canonicalizes the output.

        Cost accounting (Table 3-style): one ``field_mul`` and two
        ``field_add`` per butterfly, ``(d/2) * log2(d)`` butterflies.
        """
        p = self.field.modulus
        d = self.size
        if len(values) != d:
            raise ValueError(f"expected {d} values, got {len(values)}")
        out = list(values)
        for i, j in enumerate(self._bitrev):
            if i < j:
                out[i], out[j] = out[j], out[i]
        length = 2
        for twiddles in self._stage_twiddles(omega):
            half = length >> 1
            for start in range(0, d, length):
                k = start
                for w in twiddles:
                    u = out[k]
                    v = (out[k + half] * w) % p
                    out[k] = u + v
                    out[k + half] = u - v
                    k += 1
            length <<= 1
        from repro.field.counters import global_counter

        counter = global_counter()
        log2d = d.bit_length() - 1
        counter.field_mul += (d >> 1) * log2d
        counter.field_add += d * log2d
        return [v % p for v in out]

    def ntt(self, coeffs: Sequence[int]) -> List[int]:
        """Coefficients -> evaluations over H (zero-padded to domain size)."""
        padded = list(coeffs) + [0] * (self.size - len(coeffs))
        vec = self._vector_tables()
        if vec is not None and self._all_canonical(padded, self.field.modulus):
            return self._vec_run(vec, padded, "ntt")
        return self._ntt(padded, self.omega)

    def intt(self, evals: Sequence[int]) -> List[int]:
        """Evaluations over H -> coefficients."""
        p = self.field.modulus
        values = list(evals)
        vec = self._vector_tables()
        if vec is not None and self._all_canonical(values, p):
            return self._vec_run(vec, values, "intt", "size_inv")
        out = self._ntt(values, self.omega_inv)
        size_inv = self.size_inv
        return [(v * size_inv) % p for v in out]

    def coset_ntt(self, coeffs: Sequence[int]) -> List[int]:
        """Coefficients -> evaluations over the coset ``g * H``."""
        p = self.field.modulus
        padded = list(coeffs) + [0] * (self.size - len(coeffs))
        vec = self._vector_tables()
        if vec is not None and self._all_canonical(padded, p):
            return self._vec_run(vec, padded, "coset", "ntt")
        shifted = [(c * g) % p for c, g in zip(padded, self.coset_powers)]
        return self._ntt(shifted, self.omega)

    def coset_intt(self, evals: Sequence[int]) -> List[int]:
        """Evaluations over ``g * H`` -> coefficients (1/d and the inverse
        coset shift applied in one fused pass)."""
        p = self.field.modulus
        values = list(evals)
        vec = self._vector_tables()
        if vec is not None and self._all_canonical(values, p):
            return self._vec_run(vec, values, "intt", "coset_intt")
        out = self._ntt(values, self.omega_inv)
        return [(v * s) % p for v, s in zip(out, self._coset_intt_scale)]

    def chain_to_coset(self, evals: Sequence[int]) -> List[int]:
        """One quotient chain: H-evaluations -> coset evaluations.

        Equivalent to ``coset_ntt(intt(evals))`` with the INTT's ``1/d``
        and the coset shift fused into a single cached pointwise table.
        """
        p = self.field.modulus
        values = list(evals)
        vec = self._vector_tables()
        if vec is not None and self._all_canonical(values, p):
            return self._vec_run(vec, values, "intt", "intt_coset", "ntt")
        coeffs = self._ntt(values, self.omega_inv)
        shifted = [
            (c * s) % p for c, s in zip(coeffs, self._intt_coset_scale)
        ]
        return self._ntt(shifted, self.omega)

    # -- vanishing polynomial -------------------------------------------------------

    def vanishing_at(self, x: int) -> int:
        return (pow(x, self.size, self.field.modulus) - 1) % self.field.modulus

    def coset_vanishing_constant(self) -> int:
        """``Z(g * w^j) = g^d - 1`` — constant over the whole coset."""
        return self.vanishing_at(self.coset_shift)

    # -- Lagrange basis at a point ------------------------------------------------------

    def powers_at(self, x: int) -> List[int]:
        """``[x^0, ..., x^(d-1)] mod p``."""
        p = self.field.modulus
        out = [1]
        for _ in range(self.size - 1):
            out.append(out[-1] * x % p)
        return out

    def lagrange_at(
        self, tau: int, powers: Optional[List[int]] = None
    ) -> List[int]:
        """``[L_0(tau), ..., L_{d-1}(tau)]`` by one inverse transform.

        ``L_j(tau) = (1/d) sum_i tau^i w^(-ij)``: the INTT of tau's powers
        — ``powers`` when the caller holds them already (set-up reuses
        them for the h query).
        """
        if self.vanishing_at(tau) == 0:
            raise ValueError("tau lies inside the evaluation domain")
        return self.intt(self.powers_at(tau) if powers is None else powers)


class _VectorTables:
    """Per-domain constant matrices for the array kernel
    (:mod:`repro.field.backend`), built by the kernel itself.

    ``twiddles`` holds the matrices of ``omega^k`` for ``k = 0..d/2`` —
    every stage of either direction reads a strided view of it.  A
    pointwise table is ``(hi, lo)``: a constant ``c`` is one matrix
    (``lo`` is ``None``); a geometric table ``c g^i`` is two-level,
    ``c g^(B hi)`` per block of ``B ~ sqrt(d)`` lanes and ``g^lo`` inside
    every block, so it costs ``d/B + B`` matrices instead of ``d``.  Built
    once per (domain, process) and cached on the Domain, so the tables
    ride the domain LRU and fork into worker pools for free; they are
    read-only afterwards, and every call brings its own scratch.
    """

    __slots__ = ("plan", "twiddles", "tables")

    def __init__(self, domain: "Domain") -> None:
        from repro.field import backend as fb

        plan = self.plan = fb.plan_for(domain.field)
        p = domain.field.modulus
        d = domain.size
        block = 1 << (d.bit_length() // 2)

        def matrices(base: int, count: int, first: int = 1):
            return fb.const_matrices(
                plan, fb.powers_limbs(plan, base, count, first)
            )

        self.twiddles = matrices(domain.omega, d // 2 + 1)
        g, g_inv = domain.coset_shift, domain.coset_shift_inv
        low = {base: matrices(base, block)[None] for base in (g, g_inv)}

        def geometric(base: int, first: int):
            return matrices(pow(base, block, p), d // block, first), low[base]

        # 1 / (d Z(g)): the quotient's last division, folded into the
        # scale that undoes the coset shift.
        over_dz = domain.size_inv * pow(
            domain.coset_vanishing_constant(), -1, p
        ) % p
        self.tables = {
            "size_inv": (plan.const_matrix(domain.size_inv)[None], None),
            "over_dz": (plan.const_matrix(over_dz)[None], None),
            "coset": geometric(g, 1),
            "intt_coset": geometric(g, domain.size_inv),
            "coset_intt": geometric(g_inv, domain.size_inv),
            "coset_intt_over_dz": geometric(g_inv, over_dz),
        }

    def nbytes(self) -> int:
        """Bytes held by this domain's matrices (shared ones once)."""
        arrays = {id(t): t for pair in self.tables.values() for t in pair}
        arrays[id(self.twiddles)] = self.twiddles
        return sum(t.nbytes for t in arrays.values() if t is not None)

    def pointwise(self, x, name: str):
        """``x[:, i] * table[i]`` over ``(rows, d, C)`` limbs; a new array."""
        from repro.field import backend as fb

        rows, d, lanes = x.shape
        hi, lo = self.tables[name]
        if lo is None:
            x = x.reshape(rows, -1, min(d, fb.CHUNK_LANES))
            return fb.scale(x, hi).reshape(rows, d, lanes)
        block = lo.shape[1]
        x = x.reshape(rows, d // block, block * lanes)
        x = fb.scale(x, hi).reshape(rows, d // block, block, lanes)
        return fb.scale(x, lo).reshape(rows, d, lanes)


def _vector_quotient(
    domain: Domain,
    a_evals: List[int],
    b_evals: List[int],
    c_evals: List[int],
) -> List[int]:
    """The quotient on the array kernel, six transforms.

    One batch-3 inverse NTT takes ``A, B, C`` to (``d`` times) their
    coefficients.  ``C`` stays there.  ``A, B`` are shifted onto the
    coset, transformed, multiplied — the one data-by-data product — and
    transformed back to ``e``; then ``h_i = (g^-i e_i - C_i) / (d Z(g))``,
    which is the scalar path's ``coset_intt((A B - C) / Z(g))`` for every
    input because the coset transform is linear and ``C`` has degree below
    ``d``.  Counter totals equal the scalar path's six NTTs.
    """
    from repro.field import backend as fb

    vec = domain._vector_tables()
    plan, twiddles = vec.plan, vec.twiddles
    rows, d = plan.rows, domain.size
    x = fb.to_limbs(plan, a_evals + b_evals + c_evals)
    x = x.reshape(rows, 3, d).transpose(0, 2, 1).copy()  # chains innermost
    x = fb.ntt(x, twiddles, inverse=True)
    c = vec.pointwise(x[:, :, 2:].copy(), "over_dz")
    ab = vec.pointwise(x[:, :, :2].copy(), "intt_coset")
    ab = fb.ntt(ab, twiddles)
    e = fb.mul(plan, ab[:, :, 0].copy(), ab[:, :, 1].copy())
    e = fb.ntt(e.reshape(rows, d, 1), twiddles, inverse=True)
    e = vec.pointwise(e, "coset_intt_over_dz")
    e -= c
    h_coeffs = fb.from_limbs(plan, e)
    domain._bump_ntt_counters(6)
    if h_coeffs[-1] != 0:
        raise ValueError("witness does not satisfy the constraint system")
    return h_coeffs[:-1]


# -- QAP over a constraint system --------------------------------------------------------


def variable_order(cs: ConstraintSystem) -> List[int]:
    """Groth16 variable ordering: ``[ONE, publics..., privates...]``."""
    publics = [-(i + 1) for i in range(cs.num_public)]
    privates = [i + 1 for i in range(cs.num_private)]
    return [ONE] + publics + privates


def qap_evaluations_at(
    cs: ConstraintSystem, lagrange: Sequence[int]
) -> Tuple[List[int], List[int], List[int]]:
    """Per-variable ``(A_i(tau), B_i(tau), C_i(tau))`` in variable order,
    from the Lagrange values ``L_j(tau)`` (:meth:`Domain.lagrange_at`).

    Used by the (trapdoor-simulated) trusted setup: sweep the sparse
    constraint matrices once, accumulating ``a_{j,i} * L_j(tau)``.  Runs
    over the CSR snapshot, whose columns are already variable-order
    positions, so block-lowered rows are never expanded into dicts; its
    int64 index arrays are read through one ``.tolist()`` each.  (The
    int64 lane of :mod:`repro.r1cs.csr` has nothing to offer here:
    ``L_j(tau)`` is a field-wide value, so every product is a bigint one.)
    Set-up is the prover side's one reader of canonical coefficients: each
    matrix derives them from its digits here, once.
    """
    p = cs.field.modulus
    csr = cs.to_csr(assignment=False)
    out = []
    for matrix in csr.matrices():
        at = [0] * csr.num_variables
        indptr, indices = matrix.indptr.tolist(), matrix.indices.tolist()
        coeffs = matrix.coeffs
        for j in range(csr.num_rows):
            lj = lagrange[j]
            for k in range(indptr[j], indptr[j + 1]):
                at[indices[k]] += coeffs[k] * lj
        out.append([v % p for v in at])
    return out[0], out[1], out[2]


def witness_polynomial_evals(
    cs: ConstraintSystem, domain: Domain, csr=None
) -> Tuple[List[int], List[int], List[int]]:
    """Evaluations of ``A_w, B_w, C_w`` over H (one value per constraint row).

    Runs over the CSR snapshot (built on demand; pass ``csr`` to reuse a
    batch-shared structure).
    """
    from repro.r1cs.csr import evaluate_rows

    if csr is None:
        csr = cs.to_csr()
    elif csr.z is None:
        csr.bind(cs.signed_assignment())
    a_rows, b_rows, c_rows = evaluate_rows(csr)
    pad = [0] * (domain.size - csr.num_rows)
    return a_rows + pad, b_rows + pad, c_rows + pad


def quotient_coefficients(
    cs: ConstraintSystem,
    domain: Domain,
    csr=None,
    evals: Optional[Tuple[List[int], List[int], List[int]]] = None,
) -> List[int]:
    """Coefficients of ``h(x) = (A_w(x) B_w(x) - C_w(x)) / Z(x)``.

    Standard coset trick: interpolate A_w/B_w from their H-evaluations,
    re-evaluate on the coset ``g*H`` where Z is the nonzero constant
    ``g^d - 1``, multiply there and interpolate back; ``C_w`` has degree
    below ``d`` and is subtracted in coefficient form, so the quotient is
    six transforms.  Raises if the witness does not satisfy the R1CS
    (remainder nonzero).
    """
    p = domain.field.modulus
    if evals is None:
        evals = witness_polynomial_evals(cs, domain, csr=csr)
    a_evals, b_evals, c_evals = evals
    vec = domain._vector_tables()
    if vec is not None and all(
        Domain._all_canonical(list(v), p)
        for v in (a_evals, b_evals, c_evals)
    ):
        # Array kernel: all chains batch through one pipeline.  Counter
        # totals match the scalar path exactly.
        return _vector_quotient(
            domain, list(a_evals), list(b_evals), list(c_evals)
        )
    a_coset = domain.chain_to_coset(a_evals)
    b_coset = domain.chain_to_coset(b_evals)
    c_coeffs = domain.intt(c_evals)
    z_inv = pow(domain.coset_vanishing_constant(), -1, p)
    ab_coeffs = domain.coset_intt(
        [a * b % p for a, b in zip(a_coset, b_coset)]
    )
    h_coeffs = [(ab - c) * z_inv % p for ab, c in zip(ab_coeffs, c_coeffs)]
    # deg(h) <= d - 2: the top coefficient must vanish for a valid witness.
    if h_coeffs[-1] != 0:
        raise ValueError("witness does not satisfy the constraint system")
    return h_coeffs[:-1]
