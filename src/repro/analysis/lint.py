"""Structural lints over a compiled :class:`ConstraintSystem`.

Every ZENO rewrite — privacy-adaptive folding (Eq. 2→3), knit packing,
multi-child additions, fusion into weights — deletes or merges
constraints.  These lints catch the structural residue such rewrites
leave behind when they go wrong:

===========================  ========  =====================================
rule                         severity  fires when
===========================  ========  =====================================
``unreferenced-private``     WARNING   a private variable appears in no
                                       constraint (free witness column)
``pruned-input``             INFO      a *declared free input* (``assume``)
                                       appears in no constraint — its taps
                                       were elided as zero-weight by
                                       sparsity-aware compilation
``constant-tautology``       WARNING   a constraint references only the
                                       constant ONE and is always true
``constant-contradiction``   ERROR     a constant-only constraint is always
                                       false (system unsatisfiable)
``duplicate-constraint``     WARNING   two constraints are equal modulo
                                       term order / scalar multiples / A·B
                                       swap (same canonical key as the
                                       optimizer's dedupe pass)
``boolean-unconsumed``       WARNING   a variable is constrained boolean
                                       but never recombined into any other
                                       constraint (dead range check)
``dangling-layer-range``     ERROR     a ``mark_layer`` range points past
                                       the constraint list
``overlapping-layer-ranges`` WARNING   two layer tags claim the same
                                       constraint index
``untagged-constraints``     INFO      constraints covered by no layer tag
===========================  ========  =====================================

All lints are purely structural: they never evaluate the witness, so they
run on unassigned (shared/imported) systems too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.report import Finding, Severity
from repro.r1cs.constraint import Constraint
from repro.r1cs.lc import ONE
from repro.r1cs.optimize import (
    canonical_constraint_key,
    referenced_private_variables,
)
from repro.r1cs.system import ConstraintSystem


def match_boolean(constraint: Constraint) -> Optional[int]:
    """The variable ``x`` if the constraint is ``x * (x - 1) = 0``.

    Accepts scalar multiples and the A/B swap: ``(a·x) * (b·x - b) = 0``
    for nonzero ``a, b`` enforces exactly booleanity of ``x``.  Returns
    ``None`` for any other shape.
    """
    if not constraint.c.is_zero():
        return None
    for lin, aff in ((constraint.a, constraint.b), (constraint.b, constraint.a)):
        if len(lin.terms) != 1 or len(aff.terms) != 2:
            continue
        (x, a) = next(iter(lin.terms.items()))
        if x == ONE or a == 0:
            continue
        b = aff.terms.get(x)
        c = aff.terms.get(ONE)
        if b is None or c is None:
            continue
        # roots of b·x + c are {0, 1} iff c == -b (mod p)
        if (b + c) % lin.field.modulus == 0 and b != 0:
            return x
    return None


def boolean_variables(cs: ConstraintSystem) -> Dict[int, int]:
    """Map of boolean-constrained variable -> its booleanity constraint."""
    return _booleans(cs.constraints)


def _booleans(rows: Sequence[Constraint]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for index, constraint in enumerate(rows):
        var = match_boolean(constraint)
        if var is not None and var not in out:
            out[var] = index
    return out


def _lint_unreferenced(
    cs: ConstraintSystem, assume: Optional[Set[int]] = None
) -> List[Finding]:
    used = referenced_private_variables(cs)
    assume = assume or set()
    findings = []
    for var in range(1, cs.num_private + 1):
        if var in used:
            continue
        if var in assume:
            # A declared free input (image pixel / committed constant)
            # that no constraint touches: sparsity-aware compilation
            # legitimately elides every tap of an input whose downstream
            # weights are all zero.  Provenance known — not a soundness
            # smell, just dead input.
            findings.append(
                Finding(
                    rule="pruned-input",
                    severity=Severity.INFO,
                    message=f"free input w{var} appears in no constraint "
                            "(all referencing terms elided as zero-weight)",
                    variable=var,
                )
            )
        else:
            findings.append(
                Finding(
                    rule="unreferenced-private",
                    severity=Severity.WARNING,
                    message=f"private variable w{var} appears in no constraint "
                            "(free witness column; optimizer would drop it)",
                    variable=var,
                )
            )
    return findings


def _lint_constant_only(
    cs: ConstraintSystem, rows: Sequence[Constraint]
) -> List[Finding]:
    findings = []
    for index, constraint in enumerate(rows):
        lcs = (constraint.a, constraint.b, constraint.c)
        if any(any(i != ONE for i in lc.indices()) for lc in lcs):
            continue
        p = cs.field.modulus
        a0 = constraint.a.terms.get(ONE, 0)
        b0 = constraint.b.terms.get(ONE, 0)
        c0 = constraint.c.terms.get(ONE, 0)
        if a0 * b0 % p == c0 % p:
            findings.append(
                Finding(
                    rule="constant-tautology",
                    severity=Severity.WARNING,
                    message=f"constraint #{index} references no variable and "
                            "is always true (proves nothing)",
                    constraint=index,
                    layer=cs.layer_of(index),
                )
            )
        else:
            findings.append(
                Finding(
                    rule="constant-contradiction",
                    severity=Severity.ERROR,
                    message=f"constraint #{index} references no variable and "
                            f"is always false ({a0}*{b0} != {c0}): "
                            "the system is unsatisfiable",
                    constraint=index,
                    layer=cs.layer_of(index),
                )
            )
    return findings


def _lint_duplicates(
    cs: ConstraintSystem, rows: Sequence[Constraint]
) -> List[Finding]:
    findings = []
    seen: Dict[tuple, int] = {}
    for index, constraint in enumerate(rows):
        key = canonical_constraint_key(constraint)
        kept = seen.setdefault(key, index)
        if kept != index:
            findings.append(
                Finding(
                    rule="duplicate-constraint",
                    severity=Severity.WARNING,
                    message=f"constraint #{index} duplicates #{kept} modulo "
                            "term order / scalar multiple (proves nothing "
                            "extra)",
                    constraint=index,
                    layer=cs.layer_of(index),
                    details={"duplicate_of": kept},
                )
            )
    return findings


def _lint_boolean_unconsumed(
    cs: ConstraintSystem, rows: Sequence[Constraint]
) -> List[Finding]:
    booleans = _booleans(rows)
    if not booleans:
        return []
    consumers: Set[int] = set()
    for index, constraint in enumerate(rows):
        for lc in (constraint.a, constraint.b, constraint.c):
            for var in lc.indices():
                if var in booleans and booleans[var] != index:
                    consumers.add(var)
    findings = []
    for var, index in sorted(booleans.items()):
        if var in consumers:
            continue
        findings.append(
            Finding(
                rule="boolean-unconsumed",
                severity=Severity.WARNING,
                message=f"variable w{var} is constrained boolean "
                        f"(constraint #{index}) but never recombined — "
                        "a range check whose result is unused",
                variable=var,
                constraint=index,
                layer=cs.layer_of(index),
            )
        )
    return findings


def _lint_layer_ranges(cs: ConstraintSystem) -> List[Finding]:
    findings = []
    m = cs.num_constraints
    claimed: Dict[int, str] = {}
    reported_pairs = set()
    for tag, rng in cs.layer_ranges.items():
        if rng.start < 0 or rng.stop > m or rng.start > rng.stop:
            findings.append(
                Finding(
                    rule="dangling-layer-range",
                    severity=Severity.ERROR,
                    message=f"layer {tag!r} claims constraints "
                            f"[{rng.start}, {rng.stop}) but the system has "
                            f"only {m} — provenance is stale",
                    layer=tag,
                )
            )
            continue
        for index in rng:
            other = claimed.get(index)
            if other is None:
                claimed[index] = tag
            elif (other, tag) not in reported_pairs:
                reported_pairs.add((other, tag))
                findings.append(
                    Finding(
                        rule="overlapping-layer-ranges",
                        severity=Severity.WARNING,
                        message=f"layers {other!r} and {tag!r} both claim "
                                f"constraint #{index}",
                        constraint=index,
                        layer=tag,
                        details={"other_layer": other},
                    )
                )
    if cs.layer_ranges:
        untagged = m - len(claimed)
        if untagged > 0:
            findings.append(
                Finding(
                    rule="untagged-constraints",
                    severity=Severity.INFO,
                    message=f"{untagged} of {m} constraints are covered by "
                            "no layer tag",
                    details={"untagged": untagged},
                )
            )
    return findings


def lint_system(cs: ConstraintSystem, assume=()) -> List[Finding]:
    """Run every structural lint; returns the combined findings.

    ``assume`` names declared free-input variables (the same set the
    determinism detector is seeded with): unreferenced ones are reported
    as INFO ``pruned-input`` rather than WARNING ``unreferenced-private``,
    since sparsity-aware compilation elides them with known provenance.
    """
    rows = list(cs.constraints)  # one read for the rules that walk them
    findings: List[Finding] = []
    findings.extend(_lint_unreferenced(cs, assume=set(assume)))
    findings.extend(_lint_constant_only(cs, rows))
    findings.extend(_lint_duplicates(cs, rows))
    findings.extend(_lint_boolean_unconsumed(cs, rows))
    findings.extend(_lint_layer_ranges(cs))
    return findings
