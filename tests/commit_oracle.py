"""The per-element output commitment, kept as the differential-test oracle:
what ``GadgetEmitter.commit_output``, ``boolean``, ``decompose``,
``_range_check`` and ``KnitPacker.push`` did before every layer committed
its outputs through ``commit_outputs`` — one ``new_private`` / ``enforce``
per wire and row, dict LCs throughout, one ``_commit_cache`` lookup per
output, one knit push per identity — plus one fix: a strict private
output outside the range proof raises instead of emitting an unsatisfiable
row.  Drives a :class:`GadgetEmitter`'s system, recipe, stats and cache,
and shares no code with ``commit_outputs``."""

from repro.core.circuit.gadgets import (
    _SHARE_MAX_TERMS,
    RANGE_BITS,
    RANGE_OFFSET,
    identity_bits,
)
from repro.core.privacy.knit import _SAFETY_BITS, KnitPacker


def log(em, var: int, descriptor: tuple) -> None:
    if em.recipe is not None:
        em.recipe.append((var, descriptor))


def boolean(em, value: int, tag: str = "bool") -> int:
    """Allocate a bit variable and enforce ``b * (b - 1) = 0``."""
    cs = em.cs
    var = cs.new_private(value)
    em.stats.committed_wires += 1
    lc = cs.lc_variable(var)
    cs.enforce(lc, lc - cs.lc_constant(1), cs.lc(), tag=tag)
    em.stats.range_constraints += 1
    return var


def decompose(em, value: int, bits: int, tag: str = "decomp") -> list:
    """Bit-decompose ``value`` into ``bits`` boolean variables."""
    if value < 0 or value >= (1 << bits):
        raise ValueError(f"{value} does not fit in {bits} bits ({tag})")
    return [boolean(em, (value >> i) & 1, tag=tag) for i in range(bits)]


def range_check(em, out_var: int, bit_vars, tag: str) -> None:
    """``sum_i 2^i * bit_i == out + 256``: with boolean bits, the offset
    range proof."""
    cs = em.cs
    recompose = cs.lc()
    for i, bit_var in enumerate(bit_vars):
        recompose.add_term(bit_var, 1 << i)
    out_plus = cs.lc_variable(out_var) + cs.lc_constant(RANGE_OFFSET)
    cs.enforce_equal(recompose, out_plus, tag=f"{tag}/range_eq")
    em.stats.range_constraints += 1


def commit_output(
    em, acc_lc, acc_value: int, shift: int, slot_bits: int,
    public: bool = False, tag: str = "out", index: int = -1,
) -> int:
    """Bind an accumulator LC to its requantized output variable:
    ``acc_lc - out * 2^shift - rem == 0``, as its own constraint or pushed
    into the knit packer (``em.knit``, which must have :meth:`push`).  In
    strict mode the remainder is bit-decomposed and a private output gets
    the offset range proof.  ``acc_lc`` is consumed."""
    cs = em.cs
    share_key = None
    if em.share and not public and len(acc_lc.terms) <= _SHARE_MAX_TERMS:
        share_key = (tuple(sorted(acc_lc.terms.items())), shift, slot_bits)
        cached = em._commit_cache.get(share_key)
        if cached is not None:
            out_var, cached_value = cached
            if cached_value != acc_value:
                raise ValueError(
                    f"shared output {tag}[{index}]: identical LC with "
                    f"diverging witness values {cached_value} != {acc_value}"
                )
            em.stats.shared_outputs += 1
            return out_var
    out_value = acc_value >> shift
    rem_value = acc_value - (out_value << shift)
    shifted_out = out_value + RANGE_OFFSET
    if em.mode == "strict" and not public and (
        not 0 <= shifted_out < 1 << RANGE_BITS
    ):
        raise ValueError(
            f"output {tag}[{index}] = {out_value} is outside the strict "
            f"range proof's [{-RANGE_OFFSET}, "
            f"{(1 << RANGE_BITS) - RANGE_OFFSET})"
        )

    out_var = cs.new_public(out_value) if public else cs.new_private(out_value)
    log(em, out_var, ("out", tag, index, shift))
    if not public:
        em.stats.committed_wires += 1
    expr = acc_lc
    expr.add_term(out_var, cs.field.modulus - (1 << shift))

    if shift:
        if em.mode == "strict":
            for i in range(shift):
                bit_var = boolean(em, (rem_value >> i) & 1, tag=f"{tag}/rem")
                log(em, bit_var, ("rem_bit", tag, index, shift, i))
                expr.add_term(bit_var, cs.field.modulus - (1 << i))
        else:
            rem_var = cs.new_private(rem_value)
            log(em, rem_var, ("rem", tag, index, shift))
            em.stats.committed_wires += 1
            expr.add_term(rem_var, cs.field.modulus - 1)

    if em.mode == "strict" and not public:
        bit_vars = []
        for i in range(RANGE_BITS):
            bit_var = boolean(em, (shifted_out >> i) & 1, tag=f"{tag}/range")
            log(em, bit_var, ("out_bit", tag, index, shift, i))
            bit_vars.append(bit_var)
        range_check(em, out_var, bit_vars, tag)

    if em.knit is not None and not public:
        em.knit.push(expr, identity_bits(slot_bits, shift))
    else:
        cs.enforce(expr, cs.lc_constant(1), cs.lc(), tag=f"{tag}/eq")
        em.stats.equality_constraints += 1
    if share_key is not None:
        em._commit_cache[share_key] = (out_var, acc_value)
    return out_var


class PushPacker(KnitPacker):
    """A :class:`KnitPacker` fed one expression at a time."""

    def push(self, expr, slot_bits: int) -> None:
        """Add one zero-expression bounded by ``slot_bits`` bits."""
        slot_bits += _SAFETY_BITS
        if self._count and slot_bits != self._slot_bits:
            self.flush()
        self._slot_bits = slot_bits
        terms = expr.terms
        self._cols.extend(terms.keys())
        self._coeffs.extend(terms.values())
        self._slots.extend([self._count] * len(terms))
        if self._count:
            self._tally(len(terms))
        self._count += 1
        self.expressions_packed += 1
        if self._count >= self._capacity(slot_bits):
            self.flush()
