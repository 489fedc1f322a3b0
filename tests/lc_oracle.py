"""The per-LC witness evaluation, kept as the differential-test oracle:
what ``witness_polynomial_evals`` did before the CSR snapshot — one
``LinearCombination.evaluate`` dict walk per constraint side.  Shares no
code with ``repro.r1cs.csr``."""

from typing import List, Tuple

from repro.r1cs.system import ConstraintSystem
from repro.snark.qap import Domain


def witness_polynomial_evals_lc(
    cs: ConstraintSystem, domain: Domain
) -> Tuple[List[int], List[int], List[int]]:
    """Evaluations of ``A_w, B_w, C_w`` over H, zero-padded to the domain."""
    assignment = cs.assignment()
    a_evals = [0] * domain.size
    b_evals = [0] * domain.size
    c_evals = [0] * domain.size
    for j, constraint in enumerate(cs.constraints):
        a_evals[j] = constraint.a.evaluate(assignment)
        b_evals[j] = constraint.b.evaluate(assignment)
        c_evals[j] = constraint.c.evaluate(assignment)
    return a_evals, b_evals, c_evals
