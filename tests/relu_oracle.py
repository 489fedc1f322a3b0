"""The per-element ReLU gadget, kept as the differential-test oracle: what
``GadgetEmitter.relu_lc`` did before element-wise layers were lowered a
layer at a time — one ``boolean`` / ``new_private`` / ``enforce`` per wire
and row, dict LCs throughout, one ``_relu_cache`` lookup per element.
``public`` commits the output as an instance variable (the final layer of
a program), which also takes the element out of value numbering, as an
output commitment does.  Drives a :class:`GadgetEmitter`'s system, recipe,
stats and cache, and shares no code with ``relu_rows``."""

from repro.core.circuit.gadgets import _SHARE_MAX_TERMS
from tests.commit_oracle import boolean, log


def relu_lc(
    em, in_lc, in_value: int, bits: int = 16, tag: str = "relu",
    index: int = -1, public: bool = False,
) -> int:
    """``out = max(0, in)`` via a committed sign bit: ``sign * in_lc = out``.

    Lean: one multiplication constraint.  Strict: adds booleanity of the
    sign bit and the shifted bit-decomposition sign proof (``bits - 1``
    booleanity constraints + one recomposition).  ``in_lc`` is consumed.
    """
    cs = em.cs
    share_key = None
    if em.share and not public and len(in_lc.terms) <= _SHARE_MAX_TERMS:
        share_key = (tuple(sorted(in_lc.terms.items())), bits)
        cached = em._relu_cache.get(share_key)
        if cached is not None:
            out_var, cached_value = cached
            if cached_value != in_value:
                raise ValueError(
                    f"shared relu {tag}[{index}]: identical LC with "
                    f"diverging witness values {cached_value} != {in_value}"
                )
            em.stats.shared_relus += 1
            return out_var
    sign = 1 if in_value >= 0 else 0
    out_value = in_value if in_value > 0 else 0

    if em.mode == "strict":
        sign_var = boolean(em, sign, tag=f"{tag}/sign")
        log(em, sign_var, ("sign", tag, index, bits))
        shifted = in_value + (1 << (bits - 1))
        if (shifted >> (bits - 1)) & 1 != sign or not 0 <= shifted < (1 << bits):
            raise ValueError(
                f"relu input {tag}[{index}] = {in_value} exceeds {bits}-bit "
                f"sign gadget range"
            )
        low = shifted & ((1 << (bits - 1)) - 1)
        recompose = cs.lc()
        for i in range(bits - 1):
            bit_var = boolean(em, (low >> i) & 1, tag=f"{tag}/bits")
            log(em, bit_var, ("relu_bit", tag, index, bits, i))
            recompose.add_term(bit_var, 1 << i)
        recompose.add_term(sign_var, 1 << (bits - 1))
        shifted_lc = in_lc + cs.lc_constant(1 << (bits - 1))
        cs.enforce_equal(recompose, shifted_lc, tag=f"{tag}/signproof")
        em.stats.range_constraints += 1
    else:
        sign_var = cs.new_private(sign)
        log(em, sign_var, ("sign", tag, index, bits))
        em.stats.committed_wires += 1

    out_var = cs.new_public(out_value) if public else cs.new_private(out_value)
    log(em, out_var, ("relu_out", tag, index, bits))
    if not public:
        em.stats.committed_wires += 1
    cs.enforce(
        cs.lc_variable(sign_var), in_lc, cs.lc_variable(out_var),
        tag=f"{tag}/select",
    )
    em.stats.relu_constraints += 1
    if share_key is not None:
        em._relu_cache[share_key] = (out_var, in_value)
    return out_var


def relu(em, in_var: int, in_value: int, bits: int = 16, tag: str = "relu",
         index: int = -1, public: bool = False) -> int:
    """:func:`relu_lc` of one wire."""
    return relu_lc(
        em, em.cs.lc_variable(in_var), in_value, bits, tag, index, public
    )
