"""The per-term dot-layer lowering, kept as the differential-test oracle:
what ``CircuitComputer`` and the knit packer did before whole-layer
lowering — one ``LinearCombination`` dict per dot, built and knit-packed one
term per Python step (plus one fix: taps of a dot reading the same wire
merge), each committed by ``tests.commit_oracle.commit_output``.  Shares no
code with ``pack_slots`` or ``commit_outputs``."""

from unittest import mock

from repro.core.circuit import compute
from repro.core.privacy.knit import _SAFETY_BITS, KnitPacker
from repro.field.counters import global_counter
from repro.r1cs.lc import LinearCombination
from tests.commit_oracle import commit_output


class TermLoopPacker(KnitPacker):
    _pending = None

    def push(self, expr, slot_bits):
        slot_bits += _SAFETY_BITS
        if self._pending is not None and slot_bits != self._slot_bits:
            self.flush()
        if self._pending is None:
            self._pending, self._slot_bits = expr.copy(), slot_bits
            self._count = self._power = 1
        else:
            p, pending = self.cs.field.modulus, self._pending.terms
            self._power = (self._power << slot_bits) % p
            for index, coeff in expr.terms.items():
                merged = (pending.get(index, 0) + coeff * self._power) % p
                pending[index] = merged
                if not merged:
                    del pending[index]
            self._tally(len(expr.terms))
            self._count += 1
        self.expressions_packed += 1
        if self._count >= self._capacity(slot_bits):
            self.flush()

    def flush(self):
        if self._pending is not None:
            one = self.cs.lc_constant(1)
            self.cs.enforce(self._pending, one, self.cs.lc(), tag=self.row_tag)
            self.constraints_emitted += 1
            self._pending, self._count = None, 0


def _dot_terms(self, cs, emitter, op, x_tensor, slot_bits, is_final):
    p, out_vars = cs.field.modulus, []
    if op.weights_private:
        w_vars, x_vals = self._weight_vars(cs, op), x_tensor.flat_values()
    else:
        x_vars = x_tensor.flat_vars()
    for d in range(op.num_dots):
        r, terms = int(op.row_of_dot[d]), {}
        for i, pos in enumerate(op.input_cols[:, op.col_of_dot[d]].tolist()):
            if not pos:
                continue
            if op.weights_private:
                var, coeff = int(w_vars[r, i]), int(x_vals[pos - 1])
            else:
                var, coeff = int(x_vars[pos - 1]), int(op.weight_rows[r, i])
            terms[var] = (terms.get(var, 0) + coeff) % p
            if not terms[var]:
                del terms[var]
        if int(op.bias[r]):
            terms[0] = int(op.bias[r]) % p
        global_counter().lc_term += len(terms)
        out_vars.append(commit_output(
            emitter, LinearCombination(cs.field, terms), int(op.acc_values[d]),
            op.requant, slot_bits, public=is_final, tag=op.name, index=d,
        ))
    return out_vars, op.num_dots * op.dot_length


def oracle_compute(program, options):
    """``CircuitComputer(program, options).compute()`` through the term loop."""
    computer = compute.CircuitComputer
    with mock.patch.object(compute, "KnitPacker", TermLoopPacker), \
            mock.patch.object(computer, "_dot_linear", _dot_terms):
        return computer(program, options).compute()
