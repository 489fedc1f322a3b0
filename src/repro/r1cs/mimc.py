"""The MiMC-x⁵ sponge: the one in-circuit hash of this code base.

Two users bind a seed and a layout to it and know nothing else about it:
:mod:`repro.aggregate` commits the values crossing a per-layer cut
(seed ``MIMC_DOMAIN``, one variable per round, cut digests pinned to a
public input) and :mod:`repro.lookup` derives the LogUp challenge
(seed ``sha256(domain ‖ table name)``, packed pair chunks then one
multiplicity per round, the digest landing in the pre-allocated
challenge wire).

One round per absorbed value: ``t = state + v + rc_i``, ``state' = t⁵``,
with ``rc_i = sha256(seed ‖ u32(i)) mod p``.  x⁵ is a permutation of
BN254 Fr (``gcd(5, r-1) = 1``), which is what makes each round
invertible.  In the circuit ``t`` is a free linear combination and a
round is three rows — ``t·t = t²``, ``t²·t² = t⁴``, ``t⁴·t = t⁵`` — over
three fresh private wires; the last round's ``t⁵`` is the digest.

**Known issue — the sponge has no capacity.**  Each round adds the
absorbed value to the *whole* state before the x⁵ permutation, so anyone
who knows the values can steer the state: change ``v_1``, then pick the
``v_2`` that cancels the difference, and the digest is unchanged; or
invert the finalization rounds from any target digest and solve the last
absorbed value for it.  ``hashed`` per-layer boundaries *assume* a
collision-resistant sponge and the strict LogUp argument assumes a
challenge its prover cannot choose — the LogUp sponge's last absorbed
values are multiplicities, unbounded witness field elements, so it is
the easier of the two to steer.  Neither assumption holds against a
malicious prover until the round function gets a capacity element
(ROADMAP "Soundness closure"); ``tests/test_mimc.py`` states both
attacks as strict xfails, ``tests/test_aggregate.py::TestCommit::\
test_sponge_has_capacity`` the first under the boundary seed.  The fix
multiplies the cost per absorb and lands here, once.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.field.counters import global_counter
from repro.r1cs.lc import ONE, Digits, RowBlock, RowSide
from repro.r1cs.system import ConstraintSystem

# Rounds absorbing 0 after the payload, so the digest of a prefix is
# never the digest of the full tuple.
FINAL_ROUNDS = 2

# What one round absorbs: a bare variable (coefficient 1), or the terms
# ``{variable: non-zero coefficient}`` of a linear combination, ``ONE``
# keying its constant.  No term may be a wire of the sponge itself.
Absorb = Union[int, Dict[int, int]]


@functools.lru_cache(maxsize=None)
def _constant(seed: bytes, i: int, modulus: int) -> int:
    # A pure function of its arguments, and every sponge of a seed asks
    # for a prefix of the same sequence: memoised for the life of the
    # process, one entry per round of the longest sponge seen.
    digest = hashlib.sha256(seed + i.to_bytes(4, "big")).digest()
    return int.from_bytes(digest, "big") % modulus


def constants(seed: bytes, count: int, modulus: int) -> List[int]:
    """The first ``count`` round constants of ``seed`` (a fresh list)."""
    return [_constant(seed, i, modulus) for i in range(count)]


def rounds(values: Sequence[int], seed: bytes, modulus: int) -> List[int]:
    """Every round's ``t², t⁴, t⁵`` end to end — the wires the circuit
    allocates, in allocation order — absorbing ``values`` and then
    :data:`FINAL_ROUNDS` zeros."""
    wires: List[int] = []
    state = 0
    payload = len(values)
    for i, rc in enumerate(constants(seed, payload + FINAL_ROUNDS, modulus)):
        v = int(values[i]) if i < payload else 0
        t = (state + v + rc) % modulus
        t2 = (t * t) % modulus
        t4 = (t2 * t2) % modulus
        state = (t4 * t) % modulus
        wires += (t2, t4, state)
    return wires


def digest(values: Sequence[int], seed: bytes, modulus: int) -> int:
    """Native evaluation of the in-circuit sponge: its final state."""
    return rounds(values, seed, modulus)[-1]


@dataclass
class Sponge:
    """One in-circuit sponge: what it absorbs and where it sits.

    Round ``i`` owns the consecutive private wires ``first_wire + 3i +
    (0, 1, 2)`` holding t², t⁴ and t⁵; the last t⁵ is the digest.
    """

    absorbed: List[Absorb]  # one per payload round, in absorb order
    first_wire: int
    # The public slot a ``(digest - public) · 1 = 0`` row pins the digest
    # to (aggregate's cut digests), or None: the digest stays private.
    digest_slot: Optional[int] = None
    # A wire allocated before the sponge that holds the digest in place
    # of the last t⁵ (LogUp's challenge, which the membership rows name
    # before the sponge exists); the sponge then owns one wire fewer.
    out: Optional[int] = None
    first_row: int = 0  # of its rows, in the system they were added to

    @property
    def num_rounds(self) -> int:
        return len(self.absorbed) + FINAL_ROUNDS

    @property
    def num_rows(self) -> int:
        return 3 * self.num_rounds + (self.digest_slot is not None)

    @property
    def wires(self) -> range:
        """The private wires the sponge owns (``out`` is not one)."""
        owned = 3 * self.num_rounds - (self.out is not None)
        return range(self.first_wire, self.first_wire + owned)


class SpongeRows(NamedTuple):
    """The rows of several sponges, sponge after sponge."""

    sides: Tuple[RowSide, RowSide, RowSide]  # A, B and C
    tags: List[str]  # one per row
    first_row: np.ndarray  # of each sponge, and one past the last row

    def block(self) -> RowBlock:
        """Every row, as a constraint system takes them."""
        return RowBlock(*self.sides, tags=self.tags)


def sponge_rows(
    sponges: Sequence[Sponge], tags: Sequence[str], seed: bytes, modulus: int
) -> SpongeRows:
    """The absorb rows of ``sponges`` (``tags[k]`` on every row of
    ``sponges[k]``), each followed by its digest pin, tagged
    ``<tag>/digest``, if it has a ``digest_slot``.

    Per round ``t = state + absorbed + rc`` heads two of the three rows;
    the first round has no state and a finalization round absorbs
    nothing.  Tallies what building the same rows as LCs would: a term
    per addend folded into ``t`` or the pin, and the pin's one
    subtraction.
    """
    count = len(sponges)
    payload = np.fromiter((len(s.absorbed) for s in sponges), np.int64, count)
    pinned = np.fromiter(
        (s.digest_slot is not None for s in sponges), bool, count
    )
    first_wire = np.fromiter((s.first_wire for s in sponges), np.int64, count)
    num_rounds = payload + FINAL_ROUNDS
    total = int(num_rounds.sum())
    # per round: its sponge, its index in the sponge, its wires
    owner = np.repeat(np.arange(count), num_rounds)
    i = np.arange(total) - (np.cumsum(num_rounds) - num_rounds)[owner]
    t2 = first_wire[owner] + 3 * i
    t4, t5 = t2 + 1, t2 + 2
    last = np.cumsum(num_rounds) - 1  # each sponge's final round
    given = [k for k, s in enumerate(sponges) if s.out is not None]
    t5[last[given]] = [sponges[k].out for k in given]
    # rows: three per round, one more per pinned sponge
    first_row = np.r_[0, np.cumsum(3 * num_rounds + pinned)]
    square = first_row[owner] + 3 * i  # each round's first row
    pin = first_row[1:][pinned] - 1
    num_rows = int(first_row[-1])

    # What the payload rounds absorb, end to end, constants apart.
    a_vars: List[int] = []
    a_coeffs: List[int] = []
    a_width: List[int] = []
    a_const: List[int] = []
    for sponge in sponges:
        for absorb in sponge.absorbed:
            terms = dict(absorb) if isinstance(absorb, dict) else {absorb: 1}
            a_const.append(terms.pop(ONE, 0))
            a_vars += terms
            a_coeffs += terms.values()
            a_width.append(len(terms))
    has_value = i < payload[owner]
    has_state = i > 0
    constant = np.array(
        constants(seed, int(num_rounds.max(initial=0)), modulus), dtype=object
    )[i]
    constant[has_value] = (
        constant[has_value] + np.array(a_const, dtype=object)
    ) % modulus
    has_constant = (constant != 0).astype(bool)

    # ``t`` of every round as one CSR matrix: the previous t⁵, what the
    # round absorbs, the constant — gathered by round, in that order.
    r = np.arange(total)
    term_round = np.concatenate(
        [r[has_state], np.repeat(r[has_value], a_width), r[has_constant]]
    )
    order = np.argsort(term_round, kind="stable")
    t_vars = np.concatenate([
        (t2 - 1)[has_state],
        np.array(a_vars, dtype=np.int64),
        np.full(has_constant.sum(), ONE),
    ])[order]
    t_coeffs = np.concatenate([
        np.ones(has_state.sum(), dtype=object),
        np.array(a_coeffs, dtype=object),
        constant[has_constant],
    ])[order]
    t_width = np.bincount(term_round, minlength=total)

    # Each side of each row is a round's t, one wire, a pin's ``digest -
    # public``, the constant one, or nothing: a pool of term lists in CSR
    # form, and a side is one pool entry per row, gathered.
    slot = np.array(
        [s.digest_slot for s in sponges if s.digest_slot is not None],
        dtype=np.int64,
    )
    pins = np.stack([t5[last[pinned]], -(slot + 1)], axis=1).ravel()
    pool_vars = np.concatenate([t_vars, t2, t4, t5, pins, [ONE]])
    t_digits = Digits.of(t_coeffs.tolist(), modulus)
    pool_low = np.concatenate([
        t_digits.low, np.ones(3 * total, dtype=np.int64),
        np.tile([1, -1], len(pin)), [1],
    ])
    # the rounds' t terms lead the pool: their field-wide coefficients
    pool_wide = np.zeros(pool_vars.size, dtype=bool)
    pool_wide[t_digits.wide] = True
    pool_values = np.zeros(pool_vars.size, dtype=object)
    pool_values[t_digits.wide] = t_digits.wide_values
    pool_width = np.concatenate([
        t_width, np.ones(3 * total, dtype=np.int64), np.full(len(pin), 2),
        [1, 0],
    ])
    pool_indptr = np.r_[0, np.cumsum(pool_width)]
    t, w2, w4, w5 = (k * total + r for k in range(4))
    pinned_digest = 4 * total + np.arange(len(pin))
    one, nothing = 4 * total + len(pin), 4 * total + len(pin) + 1

    def side(steps, at_pin) -> RowSide:
        """Rows whose three per round hold the pool entries ``steps`` and
        whose pins hold ``at_pin``."""
        pick = np.empty(num_rows, dtype=np.int64)
        for step, entries in enumerate(steps):
            pick[square + step] = entries
        pick[pin] = at_pin
        width = pool_width[pick]
        indptr = np.r_[0, np.cumsum(width)]
        source = np.repeat(pool_indptr[pick] - indptr[:-1], width) + np.arange(
            indptr[-1]
        )
        wide = np.flatnonzero(pool_wide[source])
        return RowSide(indptr, pool_vars[source], Digits(
            pool_low[source], wide,
            tuple(pool_values[source[wide]].tolist()), (), modulus,
        ))

    row_tags = np.repeat(np.array(tags, dtype=object), np.diff(first_row))
    row_tags[pin] += "/digest"
    counter = global_counter()
    # every t: what it absorbs (terms, a constant if any) and its rc
    counter.lc_term += len(a_vars) + sum(map(bool, a_const)) + total + len(pin)
    counter.field_add += len(pin)
    counter.field_mul += len(pin)
    return SpongeRows(
        (
            side((t, w2, w4), pinned_digest),
            side((t, w2, t), one),
            side((w2, w4, w5), nothing),
        ),
        row_tags.tolist(),
        first_row,
    )


def replay(cs, sponge: Sponge, seed: bytes) -> int:
    """Re-value ``sponge``'s wires (and the public input its digest is
    pinned to) from the current values of what it absorbs; returns the
    digest."""
    p = cs.field.modulus
    value_of = cs.value_of
    wires = rounds(
        [
            sum(c * value_of(v) for v, c in absorb.items()) % p
            if isinstance(absorb, dict) else value_of(absorb)
            for absorb in sponge.absorbed
        ],
        seed, p,
    )
    state = wires[-1]
    if sponge.out is not None:
        cs.assign(sponge.out, wires.pop())
    cs.assign_run(sponge.first_wire, wires)
    if sponge.digest_slot is not None:
        cs.assign(-(sponge.digest_slot + 1), state)
    return state


def check_rows(
    cs, sponge: Sponge, seed: bytes, expected: Sequence[Absorb]
) -> Optional[str]:
    """The first way ``sponge``'s rows in ``cs`` are not the rows
    :func:`sponge_rows` writes for a sponge absorbing ``expected`` on the
    same wires, or None."""
    if len(sponge.absorbed) != len(expected):
        return (
            f"sponge has {sponge.num_rounds} rounds, expected "
            f"{len(expected) + FINAL_ROUNDS}"
        )
    if not 0 <= sponge.first_row <= cs.num_constraints - sponge.num_rows:
        return "sponge rows missing"
    canonical = ConstraintSystem(cs.field)
    canonical.enforce_rows(sponge_rows(
        [replace(sponge, absorbed=list(expected))], [""], seed,
        cs.field.modulus,
    ).block())
    for k, want in enumerate(canonical.constraints):
        got = cs.constraints[sponge.first_row + k]
        for mine, theirs in ((got.a, want.a), (got.b, want.b), (got.c, want.c)):
            if {v: c for v, c in mine.terms.items() if c} != theirs.terms:
                if k == 3 * sponge.num_rounds:
                    return "sponge digest is not pinned to its public input"
                return f"sponge round {k // 3} is not the canonical round"
    return None
