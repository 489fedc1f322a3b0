"""Lightweight under-constrained-witness detection (Picus-style).

An R1CS is *under-constrained* when two satisfying assignments agree on
the public inputs (and the prover's declared free inputs) but differ on
some internal wire — the prover can then choose that wire's value, and
any rewrite that introduced the slack (a dropped range check, a knit slot
wide enough to alias) is a soundness hole that ``is_satisfied()`` on the
honest witness will never show.

This detector propagates *uniqueness* through the constraint graph from a
seed set (public variables, the constant ONE, and ``assume``-d inputs such
as the private image and committed weights) to a fixpoint, using three
rules:

1. **Linear solve** — when one product side of ``A·B = C`` is fully
   determined, the constraint becomes a linear equation over the remaining
   unknowns; exactly one unknown with a nonzero net coefficient solves
   exactly (prime field).
2. **Boolean marking** — ``b·(b−1) = 0`` patterns bound ``b`` to ``{0,1}``
   (see :func:`repro.analysis.lint.match_boolean`); more generally a
   linear equation whose other unknowns are bounded *derives* an integer
   bound for its one unbounded unknown (this is how an offset range proof
   ``Σ 2^i·bit = out + 256`` bounds ``out`` to ``[-256, 767]``).
3. **Unique decomposition** — a linear equation whose unknowns are all
   integer-bounded determines *all* of them when the coefficient/bound
   profile is uniquely decodable (mixed-radix condition: sorted by weight,
   every prefix's maximal value stays below the next weight, and the total
   span stays below the field modulus).  This is what discharges bit
   decompositions, ReLU sign proofs, and knit-packed multi-slot equality
   constraints in one step.

4. **One-hot selectors** — ``Σ b_v = 1`` over boolean-bounded variables
   registers an *exactly-one group*: any satisfying assignment sets
   precisely one of them.  A later linear equation over the same group,
   ``Σ c_v·b_v = const``, then determines the entire group when exactly
   one member's coefficient matches ``const`` (members absent from the
   equation count as coefficient 0): the set bit must be that member.
   This discharges the one-hot table selectors and embedding-row
   selectors of the bit-decomposition transformer path, which neither
   the bound rule (all-equal weights are not uniquely decodable) nor
   the decomposition rule can handle.

5. **Lookup-argument grants** — LogUp soundness is a *global,
   probabilistic* property (Schwartz–Zippel over the in-circuit
   Fiat–Shamir challenge), invisible to the local linear rules: the
   membership constraint ``(alpha - x - 2^16·y + c)·h = 1`` alone never
   pins ``y``.  The propagator therefore consults the
   :class:`~repro.lookup.argument.LookupBlock` metadata the engine left
   on the system: a **strict-mode** block whose constraints pass the
   structural check (:func:`~repro.lookup.argument.verify_lookup_block`
   — canonical table column, bound multiplicities, sum check, sponge
   absorbing exactly the recorded pairs and multiplicities) grants all
   of its engine wires (outputs, inverse columns, multiplicities,
   sponge states, challenge, input range bits) once every lookup input
   wire is determined.  Given range-proven inputs the pair packing is
   injective, so table membership uniquely determines each output —
   up to the argument's negligible soundness error, which is the same
   caveat the proof system itself carries.  Lean-mode blocks (fixed
   challenge, documented unsound) and blocks failing the structural
   check grant *nothing*: their wires degrade to under-constrained
   findings, which is how ``zeno audit`` catches a tampered lowering.

The detector is *sound in one direction*: a variable it reports
determined really is uniquely determined (each rule is a valid
implication); a variable it reports under-constrained may be a false
positive (the rules are not complete).  On this repo's strict-mode
gadgets and compiled models the fixpoint determines every wire; lean-mode
circuits are genuinely under-constrained (slack remainders, unproven sign
bits) and are reported as such.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import match_boolean
from repro.analysis.report import Finding, Severity
from repro.field import signed
from repro.r1cs.lc import ONE
from repro.r1cs.recipe import Inputs
from repro.r1cs.system import ConstraintSystem

# Derived integer bounds wider than this are useless for decomposition
# reasoning; treat the variable as unbounded instead.
_MAX_BOUND_WIDTH = 1 << 64


def lookup_block_finding(table_name: str, defect: str) -> Finding:
    """The ERROR naming a lookup block that failed its structural check."""
    return Finding(
        rule="lookup-block",
        severity=Severity.ERROR,
        message=f"lookup block {table_name!r} is not a sound "
                f"LogUp lowering: {defect}",
        layer=f"lookup:{table_name}",
    )


@dataclass
class DeterminismResult:
    """Outcome of one uniqueness-propagation run."""

    determined: Set[int] = field(default_factory=set)
    assumed: Set[int] = field(default_factory=set)
    bounds: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    undetermined: List[int] = field(default_factory=list)
    rounds: int = 0
    wall_time: float = 0.0
    # (table_name, defect) per lookup block that failed the structural
    # check or is lean-mode (and therefore granted nothing).
    lookup_errors: List[Tuple[str, str]] = field(default_factory=list)
    lookup_blocks_granted: int = 0

    @property
    def ok(self) -> bool:
        return not self.undetermined and not self.lookup_errors

    def findings(self, cs: ConstraintSystem) -> List[Finding]:
        """One ERROR finding per under-constrained private variable,
        plus one per structurally broken lookup block (named defect)."""
        out = [
            lookup_block_finding(table_name, defect)
            for table_name, defect in self.lookup_errors
        ]
        if not self.undetermined:
            return out
        touching: Dict[int, List[int]] = {v: [] for v in self.undetermined}
        for index, constraint in enumerate(cs.constraints):
            for lc in (constraint.a, constraint.b, constraint.c):
                for var in lc.indices():
                    if var in touching and index not in touching[var]:
                        touching[var].append(index)
        for var in self.undetermined:
            refs = touching[var]
            layer = cs.layer_of(refs[0]) if refs else None
            bound = self.bounds.get(var)
            hint = (
                f"bounded to [{bound[0]}, {bound[1]}] but not unique"
                if bound
                else "no constraint pins its value"
            )
            out.append(
                Finding(
                    rule="under-constrained",
                    severity=Severity.ERROR,
                    message=f"private variable w{var} is not uniquely "
                            f"determined by the public inputs ({hint})",
                    variable=var,
                    constraint=refs[0] if refs else None,
                    layer=layer,
                    details={"constraints": refs[:8]},
                )
            )
        return out


def _uniquely_decodable(
    weights: Sequence[int], widths: Sequence[int], p: int
) -> bool:
    """Mixed-radix injectivity: is ``t -> Σ w_j t_j  (0 <= t_j <= width_j)``
    injective mod ``p``?

    Sufficient condition: sorted by ``|w|``, each prefix's maximal absolute
    sum stays strictly below the next weight, and the total stays below
    ``p``.  (Any two distinct digit vectors then differ by a nonzero
    integer of magnitude < p.)
    """
    order = sorted(range(len(weights)), key=lambda j: abs(weights[j]))
    prefix = 0
    for j in order:
        w = abs(weights[j])
        if w == 0 or prefix >= w:
            return False
        prefix += w * widths[j]
    return prefix < p


class _Propagator:
    def __init__(self, cs: ConstraintSystem, assume: Iterable[int]):
        self.cs = cs
        self.rows = list(cs.constraints)  # read once, walked every round
        self.p = cs.field.modulus
        self.assignment = cs.assignment()
        self.assumed = {v for v in assume if v > 0}
        self.det: Set[int] = set(self.assumed)
        self.bounds: Dict[int, Tuple[int, int]] = {
            var: (0, 1) for var in map(match_boolean, self.rows)
            if var is not None
        }
        self.done = [False] * cs.num_constraints
        # Rule 4 state: exactly-one groups from sum-to-one constraints
        # over booleans, and a member -> group index for fast lookup.
        self.groups: List[frozenset] = []
        self.group_of: Dict[int, int] = {}
        self.lookup_errors: List[Tuple[str, str]] = []
        self.granted_blocks = 0
        # Structurally verified strict lookup blocks, pending their
        # input wires becoming determined (see rule 5 in the module doc).
        self._pending_blocks: List = []
        for block in getattr(cs, "lookup_blocks", ()):
            if block.mode != "strict":
                continue  # lean: unsound challenge, never granted
            from repro.lookup.argument import verify_lookup_block

            defect = verify_lookup_block(cs, block)
            if defect is None:
                self._pending_blocks.append(block)
            else:
                self.lookup_errors.append((block.table_name, defect))

    def is_det(self, var: int) -> bool:
        return var <= 0 or var in self.det

    def _lc_value(self, lc) -> int:
        return lc.evaluate(self.assignment)

    def _grant_lookup_blocks(self) -> bool:
        """Rule 5: verified strict blocks grant their engine wires.

        Two granularities.  Each *output* ``y_i`` is a function of its own
        input — the argument proves ``(x_i, y_i)`` is a table row, and the
        table maps each ``x`` to exactly one ``y`` — so ``y_i`` is granted
        as soon as ``x_i`` is determined (a shared table can span layers
        with data dependencies between them; waiting for the whole block
        would deadlock).  The *column* wires (multiplicities, ``g``,
        sponge states, challenge) depend on the full multiset of lookups
        and are granted only when every input is determined.
        """
        progress = False
        still_pending = []
        for block in self._pending_blocks:
            all_x = True
            for x, y in zip(block.x_vars, block.y_vars):
                if self.is_det(x):
                    if not self.is_det(y):
                        self.det.add(y)
                        progress = True
                else:
                    all_x = False
            if all_x:
                self.det.update(block.engine_vars())
                self.granted_blocks += 1
                progress = True
            else:
                still_pending.append(block)
        self._pending_blocks = still_pending
        return progress

    def run(self) -> Tuple[int, Set[int]]:
        rounds = 0
        progress = True
        while progress:
            progress = False
            rounds += 1
            for index, constraint in enumerate(self.rows):
                if self.done[index]:
                    continue
                if self._visit(constraint):
                    progress = True
                if all(
                    self.is_det(v)
                    for lc in (constraint.a, constraint.b, constraint.c)
                    for v in lc.indices()
                ):
                    self.done[index] = True
            if self._grant_lookup_blocks():
                progress = True
        return rounds, self.det

    # -- one constraint ------------------------------------------------------

    def _visit(self, constraint) -> bool:
        a, b, c = constraint.a, constraint.b, constraint.c
        a_known = all(self.is_det(v) for v in a.indices())
        b_known = all(self.is_det(v) for v in b.indices())
        if a_known:
            return self._linear(self._lc_value(a), b, c)
        if b_known:
            return self._linear(self._lc_value(b), a, c)
        return False

    def _linear(self, side_val: int, other, c) -> bool:
        """Propagate through ``side_val * other = c`` as a linear equation.

        Builds ``Σ net_v · v = const`` over the undetermined variables and
        applies, in order: exact solve (one unknown), bound derivation
        (one unbounded unknown), unique decomposition (all bounded).
        """
        p = self.p
        net: Dict[int, int] = {}
        for v, coeff in other.terms.items():
            net[v] = net.get(v, 0) + side_val * coeff
        for v, coeff in c.terms.items():
            net[v] = net.get(v, 0) - coeff
        unknowns = {}
        for v, coeff in net.items():
            coeff %= p
            if coeff and not self.is_det(v):
                unknowns[v] = coeff
        if not unknowns:
            return False
        if len(unknowns) == 1:
            var = next(iter(unknowns))
            self.det.add(var)
            return True

        unbounded = [v for v in unknowns if v not in self.bounds]
        if len(unbounded) == 1:
            return self._derive_bound(unbounded[0], unknowns)
        if not unbounded:
            if self._decompose(unknowns):
                return True
            return self._selector(net, unknowns)
        return False

    def _selector(self, net: Dict[int, int], unknowns: Dict[int, int]) -> bool:
        """Rule 4: exactly-one groups and unique-coefficient selection.

        ``Σ_v net_v·v = 0`` restricted to the unknowns reads
        ``Σ_u c_u·u = const`` with ``const`` the negated known part.
        Registers a group when the equation is ``λ·Σ b = λ`` over
        booleans; solves a whole registered group when exactly one
        member's coefficient equals ``const``.
        """
        p = self.p
        const = 0
        for v, coeff in net.items():
            if v not in unknowns:
                const = (const - coeff * self.assignment[v]) % p

        coeffs = set(unknowns.values())
        if (
            len(coeffs) == 1
            and all(self.bounds.get(u) == (0, 1) for u in unknowns)
        ):
            lam = next(iter(coeffs))
            if const == lam and not any(
                u in self.group_of for u in unknowns
            ):
                idx = len(self.groups)
                self.groups.append(frozenset(unknowns))
                for u in unknowns:
                    self.group_of[u] = idx
                # Registration alone is not propagation progress; a later
                # visit of a selecting equation does the determining.
                return False

        gidx = self.group_of.get(next(iter(unknowns)))
        if gidx is None:
            return False
        group = self.groups[gidx]
        if not set(unknowns) <= group:
            return False
        # A member already determined to 1 is the set bit everywhere; the
        # rest of the group is forced to 0.
        if any(
            self.is_det(u) and self.assignment[u] == 1
            for u in group
            if u not in unknowns
        ):
            self.det.update(group)
            return True
        # Exactly one member is 1.  Members absent from this equation have
        # coefficient 0; the set member's coefficient must equal const.
        candidates = [u for u, c in unknowns.items() if c == const]
        if const == 0:
            candidates += [
                u for u in group if u not in unknowns and not self.is_det(u)
            ]
        if len(candidates) == 1:
            self.det.update(group)
            return True
        return False

    def _derive_bound(self, var: int, unknowns: Dict[int, int]) -> bool:
        """Solve the equation for ``var`` as an integer interval.

        Solving gives ``var = k' + Σ d_j u_j``.  The honest witness is one
        solution, and any other solution shifts each ``u_j`` by at most
        its bound width ``w_j``, so every satisfying value of ``var`` lies
        within ``honest ± Σ |d_j|·w_j`` — an integer interval anchored at
        the honest (signed-canonical) value.
        """
        p = self.p
        inv = self.cs.field.inv(unknowns[var])
        span = 0
        for v, coeff in unknowns.items():
            if v == var:
                continue
            d = signed(-coeff * inv % p, p)
            b_lo, b_hi = self.bounds[v]
            span += abs(d) * (b_hi - b_lo)
            if span > _MAX_BOUND_WIDTH:
                return False
        honest = signed(self.assignment[var], p)
        new = (honest - span, honest + span)
        old = self.bounds.get(var)
        if old is not None and old[1] - old[0] <= new[1] - new[0]:
            return False
        self.bounds[var] = new
        return True

    def _decompose(self, unknowns: Dict[int, int]) -> bool:
        p = self.p
        weights = []
        widths = []
        for v, coeff in unknowns.items():
            weights.append(signed(coeff, p))
            widths.append(self.bounds[v][1] - self.bounds[v][0])
        if not _uniquely_decodable(weights, widths, p):
            return False
        self.det.update(unknowns)
        return True


def check_determinism(
    cs: ConstraintSystem, assume: Iterable[int] = ()
) -> DeterminismResult:
    """Propagate uniqueness from publics + ``assume``; report the rest.

    ``assume`` lists private variables the prover legitimately chooses —
    the image pixels and committed weights for a compiled model, a
    gadget's input wires for a gadget-level audit.  Every other private
    variable must be uniquely pinned by the constraints; those that are
    not are returned in ``undetermined`` (sorted).
    """
    start = time.perf_counter()
    prop = _Propagator(cs, assume)
    rounds, det = prop.run()
    undetermined = [
        v
        for v in range(1, cs.num_private + 1)
        if v not in det and v not in prop.assumed
    ]
    return DeterminismResult(
        determined=det,
        assumed=prop.assumed,
        bounds=prop.bounds,
        undetermined=undetermined,
        rounds=rounds,
        wall_time=time.perf_counter() - start,
        lookup_errors=prop.lookup_errors,
        lookup_blocks_granted=prop.granted_blocks,
    )


def assume_from_recipe(recipe) -> List[int]:
    """Free-input variables from a witness recipe: image pixels + weights.

    The recipe (``record_recipe=True`` compilations, and every
    :class:`~repro.core.reuse.batch.BatchProver`) holds one step per
    emitter call; its :class:`~repro.r1cs.recipe.Inputs` steps — the image
    and the constants — are exactly the variables the prover chooses
    freely.
    """
    return [
        var for step in recipe if isinstance(step, Inputs)
        for var in step.variables().tolist()
    ]
