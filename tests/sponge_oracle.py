"""The per-LC MiMC sponge, kept as the differential-test oracle: what
``repro.lookup.argument._emit_sponge`` / ``_replay_sponge`` /
``round_constants`` did at 857c91e, before the sponge lived once in
``repro.r1cs.mimc`` — one ``LinearCombination``, three ``new_private`` and
three ``enforce`` per round.  The bodies are the parent's; what moved is
the seam: the per-round loop is :func:`emit_rounds`, so that
``tests/split_oracle.py`` — whose own copy of the same loop this
replaces — can drive it too.  Shares nothing with ``repro.r1cs.mimc``."""

import hashlib
import operator
from typing import Callable, List, Optional, Sequence, Tuple

from repro.lookup.argument import LookupBlock
from repro.lookup.table import PACK_BASE
from repro.r1cs.lc import LinearCombination
from repro.r1cs.system import ConstraintSystem
from tests.lookup_oracle import ScalarLookupEngine

CHUNK_SIZE = 7
CHUNK_BASE = 1 << 32
EXTRA_ROUNDS = 2

_RC_DOMAIN = b"repro.lookup.logup.v1"

Round = Tuple[int, int, int, int]  # (t2_var, t4_var, out_var, first row)


def seeded_constants(seed: bytes, count: int, modulus: int) -> List[int]:
    out = []
    for i in range(count):
        digest = hashlib.sha256(seed + i.to_bytes(4, "big")).digest()
        out.append(int.from_bytes(digest, "big") % modulus)
    return out


def round_constants(table_name: str, count: int, modulus: int) -> List[int]:
    """Per-table MiMC round constants (domain-separated, deterministic)."""
    seed = hashlib.sha256(_RC_DOMAIN + table_name.encode("utf-8")).digest()
    return seeded_constants(seed, count, modulus)


def fold_terms(
    lc: LinearCombination, other: LinearCombination
) -> LinearCombination:
    """``lc += other`` one ``add_term`` at a time — how the per-LC split
    summed ``t`` (a term tallied per addend), where the lookup engine
    used ``+`` (a term and an addition per addend)."""
    for var, coeff in other.terms.items():
        lc.add_term(var, coeff)
    return lc


def emit_rounds(
    cs: ConstraintSystem,
    absorbs: Sequence[Tuple[LinearCombination, Optional[int]]],
    rc: Sequence[int],
    tag: str,
    out: Optional[int] = None,
    log: Callable[[int], None] = lambda var: None,
    add: Callable = operator.add,
) -> Tuple[List[Round], Optional[int]]:
    """One x^5 MiMC round per ``(lc, value)`` of ``absorbs`` (3
    constraints: square, fourth power, fifth power into the next state
    wire); the final round's output wire is ``out`` when given.  With a
    value missing every wire is left unassigned.  Returns the rounds and
    the final state's value."""
    p = cs.field.modulus
    known = all(value is not None for _, value in absorbs)
    rounds: List[Round] = []
    state_lc = cs.lc()
    state_val = 0 if known else None
    for r, (absorb_lc, absorb_val) in enumerate(absorbs):
        t_lc = add(add(state_lc, absorb_lc), cs.lc_constant(rc[r]))
        t2_val = t4_val = out_val = None
        if known:
            t_val = (state_val + absorb_val + rc[r]) % p
            t2_val = (t_val * t_val) % p
            t4_val = (t2_val * t2_val) % p
            out_val = (t4_val * t_val) % p
        t2 = cs.new_private(t2_val)
        t4 = cs.new_private(t4_val)
        last = r == len(absorbs) - 1
        out_var = out if last and out is not None else cs.new_private(out_val)
        log(t2)
        log(t4)
        if out_var != out:
            log(out_var)
        first_cidx = cs.num_constraints
        cs.enforce(t_lc, t_lc.copy(), cs.lc_variable(t2), tag=tag)
        cs.enforce(
            cs.lc_variable(t2), cs.lc_variable(t2), cs.lc_variable(t4), tag=tag
        )
        cs.enforce(
            cs.lc_variable(t4), t_lc.copy(), cs.lc_variable(out_var), tag=tag
        )
        rounds.append((t2, t4, out_var, first_cidx))
        state_lc = cs.lc_variable(out_var)
        state_val = out_val
    return rounds, state_val


def emit_lookup_sponge(
    cs: ConstraintSystem,
    block: LookupBlock,
    pairs: Sequence[int],
    counts: Sequence[int],
    log: Callable[[int], None] = lambda var: None,
) -> Tuple[List[Round], int]:
    """In-circuit Fiat–Shamir: absorb pairs (chunked) then multiplicities.

    Returns the rounds and the challenge value, and assigns
    ``block.alpha_var``."""
    p = cs.field.modulus
    table_consts = (block.y_bias * PACK_BASE - block.domain_lo) % p

    # Absorb schedule: (lc, value) per round.
    absorbs: List[Tuple[LinearCombination, int]] = []
    lookups = list(zip(block.x_vars, block.y_vars, pairs))
    for base in range(0, len(lookups), CHUNK_SIZE):
        chunk = lookups[base : base + CHUNK_SIZE]
        lc = cs.lc()
        const = 0
        value = 0
        for k, (x_var, y_var, packed) in enumerate(chunk):
            scale = pow(CHUNK_BASE, k, p)
            lc.add_term(x_var, scale)
            lc.add_term(y_var, (scale * PACK_BASE) % p)
            const = (const + scale * table_consts) % p
            value = (value + scale * packed) % p
        if const:
            lc.add_term(0, const)
        absorbs.append((lc, value))
    for m_var, count in zip(block.m_vars, counts):
        absorbs.append((cs.lc_variable(m_var), count % p))
    for _ in range(EXTRA_ROUNDS):
        absorbs.append((cs.lc(), 0))

    rc = round_constants(block.table_name, len(absorbs), p)
    rounds, alpha = emit_rounds(
        cs, absorbs, rc, f"lookup:{block.table_name}/sponge",
        out=block.alpha_var, log=log,
    )
    cs.assign(block.alpha_var, alpha)
    return rounds, alpha


def replay_lookup_sponge(
    cs: ConstraintSystem,
    rounds: Sequence[Round],
    table_name: str,
    pairs: Sequence[int],
    counts: Sequence[int],
) -> int:
    p = cs.field.modulus
    values: List[int] = []
    for base in range(0, len(pairs), CHUNK_SIZE):
        chunk = pairs[base : base + CHUNK_SIZE]
        values.append(
            sum(pow(CHUNK_BASE, k, p) * v for k, v in enumerate(chunk)) % p
        )
    values.extend(c % p for c in counts)
    values.extend(0 for _ in range(EXTRA_ROUNDS))
    rc = round_constants(table_name, len(values), p)
    state = 0
    for r, ((t2, t4, out, _), v) in enumerate(zip(rounds, values)):
        t = (state + v + rc[r]) % p
        t2_val = (t * t) % p
        t4_val = (t2_val * t2_val) % p
        state = (t4_val * t) % p
        cs.assign(t2, t2_val)
        cs.assign(t4, t4_val)
        cs.assign(out, state)
    return state


class PerLCEngine(ScalarLookupEngine):
    """The per-element engine with its challenge sponge emitted per LC.
    ``rounds`` keeps each table's, for :func:`replay_lookup_sponge`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rounds = {}

    def _challenge(self, block: LookupBlock) -> int:
        table = self._states[block.table_name].table
        pairs, counts = [], [0] * table.size
        for _, x_val, _, y_val, _ in self._states[block.table_name].lookups:
            counts[x_val - table.domain_lo] += 1
            pairs.append(table.pack(x_val, y_val))
        self.rounds[block.table_name], alpha = emit_lookup_sponge(
            self.cs, block, pairs, counts,
            log=lambda var: self._log(var, block.table_name),
        )
        return alpha
