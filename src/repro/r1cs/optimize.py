"""Constraint-system optimizer passes.

Security-computation latency is proportional to the witness size ``n`` and
constraint count ``m`` (§2.1), so post-compilation cleanup translates
directly into proving time:

* :func:`eliminate_unconstrained` — drops private variables that appear in
  **no** constraint.  The compiler legitimately produces some (committed
  weight entries whose value is zero never get referenced by Eq. 2
  products; ReLU sign bits at exactly-zero inputs are referenced but
  slack — only the former are *unreferenced* and removable).  Each dropped
  variable removes one witness MSM term and one CRS element.
* :func:`deduplicate_constraints` — removes duplicate constraints modulo
  term order and scalar multiples (``(λA)·(μB) = λμC`` proves exactly what
  ``A·B = C`` proves, as does ``B·A = C``).  Duplicates prove nothing
  extra; each removal shrinks the QAP domain contribution.
* :func:`optimize` — both passes, returning a report.

Everything a pass removes is surfaced as lint-compatible
:class:`~repro.analysis.report.Finding` entries on the
:class:`OptimizeReport`, so optimizer decisions land in the same audit
stream as :mod:`repro.analysis.lint`.

Passes rebuild a fresh :class:`ConstraintSystem` with remapped indices and
witness values; the original is never mutated.  Satisfiability and public
values are preserved (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.field.vector import batch_inverse
from repro.r1cs.constraint import Constraint
from repro.r1cs.lc import ONE, LinearCombination
from repro.r1cs.system import ConstraintSystem


@dataclass(frozen=True)
class OptimizeReport:
    """What the passes removed."""

    variables_before: int
    variables_after: int
    constraints_before: int
    constraints_after: int
    # Lint-compatible findings (repro.analysis.report.Finding) describing
    # each removal, mergeable into an AuditReport.
    findings: tuple = ()

    @property
    def variables_removed(self) -> int:
        return self.variables_before - self.variables_after

    @property
    def constraints_removed(self) -> int:
        return self.constraints_before - self.constraints_after


def referenced_private_variables(cs: ConstraintSystem) -> Set[int]:
    """Private variable indices appearing in at least one constraint —
    read off the CSR snapshot's dense positions, where private ``k`` is
    ``num_public + k``."""
    matrices = cs.to_csr(assignment=False).matrices()
    positions = np.unique(np.concatenate([m.indices for m in matrices]))
    return set((positions[positions > cs.num_public] - cs.num_public).tolist())


def _compacted_lc(
    lc: LinearCombination, mapping: Dict[int, int], field
) -> LinearCombination:
    terms = {}
    for index, coeff in lc:
        new_index = mapping[index] if index > 0 else index
        terms[new_index] = coeff
    return LinearCombination(field, terms)


def eliminate_unconstrained(
    cs: ConstraintSystem,
) -> Tuple[ConstraintSystem, int]:
    """Drop unreferenced private variables; returns (new system, #dropped).

    Public variables are never dropped — they are the instance the
    verifier binds to, referenced or not.
    """
    used = referenced_private_variables(cs)
    mapping: Dict[int, int] = {}
    out = ConstraintSystem(field=cs.field, name=cs.name)
    for i in range(cs.num_public):
        out.new_public(cs._public_values[i])
    for old in range(1, cs.num_private + 1):
        if old in used:
            mapping[old] = out.new_private(cs._private_values[old - 1])
    for constraint in cs.constraints:
        out.enforce(
            _compacted_lc(constraint.a, mapping, cs.field),
            _compacted_lc(constraint.b, mapping, cs.field),
            _compacted_lc(constraint.c, mapping, cs.field),
            tag=constraint.tag,
        )
    out.layer_ranges = dict(cs.layer_ranges)
    return out, cs.num_private - out.num_private


def _scaled_terms(lc: LinearCombination, scale: int, p: int) -> tuple:
    """Sorted term tuple of ``scale * lc`` — canonical modulo term order."""
    return tuple(sorted((i, c * scale % p) for i, c in lc.terms.items()))


def _leading(lc: LinearCombination, p: int) -> int:
    """The first nonzero coefficient (smallest variable index).

    Stored zero coefficients are legal (an LC is a sparse map, not a
    normalized polynomial), so skip them rather than inverting zero.
    """
    terms = lc.terms
    return terms[min(v for v, c in terms.items() if c % p)] % p


def canonical_constraint_keys(constraints: Sequence[Constraint]) -> List[tuple]:
    """:func:`canonical_constraint_key` of every constraint of a pass, the
    leading coefficients inverted together: 1 and ``p - 1`` are their own
    inverses, every other distinct one takes its share of one
    :func:`~repro.field.vector.batch_inverse`."""
    rows = list(constraints)
    if not rows:
        return []
    field = rows[0].a.field
    p = field.modulus
    leads = []
    for constraint in rows:
        if constraint.a.is_zero() or constraint.b.is_zero():
            # 0 * B = C (or A * 0 = C): only <C, z> = 0 is being enforced.
            c = constraint.c
            leads.append(() if c.is_zero() else (_leading(c, p),))
        else:
            leads.append(
                (_leading(constraint.a, p), _leading(constraint.b, p))
            )
    rest = sorted({x for lead in leads for x in lead} - {1, p - 1})
    inverse = dict(zip(rest, batch_inverse(field, rest)))
    inverse[1], inverse[p - 1] = 1, p - 1
    keys: List[tuple] = []
    for constraint, lead in zip(rows, leads):
        if not lead:
            keys.append(("trivial",))
        elif len(lead) == 1:
            keys.append(
                ("linear", _scaled_terms(constraint.c, inverse[lead[0]], p))
            )
        else:
            lam, mu = inverse[lead[0]], inverse[lead[1]]
            a_key = _scaled_terms(constraint.a, lam, p)
            b_key = _scaled_terms(constraint.b, mu, p)
            c_key = _scaled_terms(constraint.c, lam * mu % p, p)
            lo, hi = sorted((a_key, b_key))
            keys.append(("mul", lo, hi, c_key))
    return keys


def canonical_constraint_key(constraint: Constraint) -> tuple:
    """A key equal for constraints that prove the same statement.

    Two rank-1 constraints are equivalent when one is a scalar multiple of
    the other — ``(λA)·(μB) = (λμ)C`` for nonzero ``λ, μ`` — or when the
    product sides are swapped.  Each LC is normalized so its leading
    (smallest-index) coefficient is 1, the C side absorbs the combined
    scale, and the (A, B) pair is ordered canonically.  Constraints with an
    empty product side reduce to the pure linear statement ``<C, z> = 0``,
    which is itself scale-invariant.  A pass over many constraints takes
    :func:`canonical_constraint_keys`.
    """
    return canonical_constraint_keys([constraint])[0]


def deduplicate_constraints(
    cs: ConstraintSystem,
) -> Tuple[ConstraintSystem, int]:
    """Remove duplicates modulo term order, scalar multiples, and A/B swap.

    Layer provenance ranges are invalidated by the removal and dropped.
    """
    out, _ = _deduplicate_with_findings(cs)
    return out, cs.num_constraints - out.num_constraints


def _deduplicate_with_findings(cs: ConstraintSystem):
    from repro.analysis.report import Finding, Severity

    out = ConstraintSystem(field=cs.field, name=cs.name)
    for i in range(cs.num_public):
        out.new_public(cs._public_values[i])
    for i in range(cs.num_private):
        out.new_private(cs._private_values[i])
    findings: List[Finding] = []
    seen: Dict[tuple, int] = {}
    rows = list(cs.constraints)
    for index, (constraint, key) in enumerate(
        zip(rows, canonical_constraint_keys(rows))
    ):
        kept = seen.get(key)
        if kept is not None:
            findings.append(
                Finding(
                    rule="duplicate-constraint",
                    severity=Severity.INFO,
                    message=(
                        f"removed constraint #{index}: scalar multiple / "
                        f"reordering of kept constraint #{kept}"
                    ),
                    constraint=index,
                    layer=cs.layer_of(index),
                    details={"kept": kept, "removed_tag": constraint.tag},
                )
            )
            continue
        seen[key] = index
        out.enforce(constraint.a, constraint.b, constraint.c,
                    tag=constraint.tag)
    return out, findings


def optimize(cs: ConstraintSystem) -> Tuple[ConstraintSystem, OptimizeReport]:
    """Run both passes; returns (optimized system, report)."""
    from repro.analysis.report import Finding, Severity

    deduped, findings = _deduplicate_with_findings(cs)
    slim, dropped = eliminate_unconstrained(deduped)
    if dropped:
        used = referenced_private_variables(deduped)
        findings.extend(
            Finding(
                rule="unreferenced-private",
                severity=Severity.INFO,
                message=f"removed private variable w{var}: "
                        "referenced by no constraint",
                variable=var,
            )
            for var in range(1, deduped.num_private + 1)
            if var not in used
        )
    return slim, OptimizeReport(
        variables_before=cs.num_variables,
        variables_after=slim.num_variables,
        constraints_before=cs.num_constraints,
        constraints_after=slim.num_constraints,
        findings=tuple(findings),
    )
