"""The output commitment a run of accumulators at a time.

``GadgetEmitter.commit_outputs`` against the per-element oracle
(``tests/commit_oracle.py``): rows in order, tags, variables and values,
recipe, stats, knit counts and op tallies — lean and strict, knit on and
off, value numbering on and off, private and public outputs, shift 0 and
> 0, negative accumulators, and accumulators summing 0, 1 or k product
wires over one-wire and two-term sides, split over two calls whose slot
widths differ.  Also the strict range proof's bounds and both error
messages.
"""

import numpy as np
import pytest

from repro.core.circuit.gadgets import GadgetEmitter, Products
from repro.core.privacy.knit import KnitPacker
from repro.field.counters import count_ops
from repro.r1cs.lc import LinearCombination
from repro.r1cs.system import ConstraintSystem
from tests.commit_oracle import PushPacker, commit_output
from tests.replay_oracle import named

WIRES = [-5, 0, 7, -3, 9, 2, 4]
# Product sides, as (wire, coefficient) terms: one wire, or ``u - v``.
SIDES = {
    "mul": ([(0, 1)], [(2, 1)]),  # like a matmul's a * b
    "sq": ([(4, 1), (5, -1)], [(4, 1), (5, -1)]),  # like (x - mean)^2
    "prod": ([(2, 1), (3, -1)], [(6, 1)]),  # like (x - mean) * y
}
# Accumulators as (terms, products); a product is (a offset, b offset),
# added to the wires of its kind's sides so the products differ.
PATTERNS = {
    "plain": [
        ([(0, 1), (1, -1)], []), ([(2, 2)], []), ([(0, 1), (1, -1)], []),
        ([(3, 1), (4, 1), (5, -1)], []), ([(2, 2)], []), ([(6, -4)], []),
        ([(0, 1), (2, 1), (4, -1), (6, 1), (5, 1)], []),  # too wide to share
    ],
    "one": [([], [(0, 0)]), ([], [(1, 0)]), ([], [(0, 0)]), ([], [(0, 1)])],
    "many": [([], [(0, 0), (1, 1), (2, 0)]), ([], [(1, 0), (0, 1)])],
    "mixed": [
        ([(1, 3)], []), ([(0, 1)], [(0, 0)]), ([(0, 2)], []),
        ([], [(0, 0), (0, 1), (1, 1)]), ([(6, 1), (5, 1)], [(0, 2)]),
        ([(1, 3)], []),
    ],
}
TAG = "l"


def side_of(side, offset):
    return [((w + offset) % len(WIRES), c) for w, c in side]


def value_of(terms):
    return sum(c * WIRES[w] for w, c in terms)


def product_terms(kind, product):
    a, b = SIDES[kind]
    return side_of(a, product[0]), side_of(b, product[1])


def acc_value(kind, acc):
    terms, products = acc
    return value_of(terms) + sum(
        value_of(a) * value_of(b)
        for a, b in (product_terms(kind, p) for p in products)
    )


def system(mode, share, knit, packer):
    cs = ConstraintSystem()
    em = GadgetEmitter(
        cs, mode=mode, recipe=[], share=share,
        knit=None if knit is None else packer(cs, batch_size=knit, tag="net"),
    )
    first = cs.allocate(WIRES)
    return cs, em, list(range(first, first + len(WIRES)))


def run_oracle(em, wires, kind, calls, shift, public):
    cs = em.cs
    p = cs.field.modulus

    def lc(terms):
        return LinearCombination(cs.field, {wires[w]: c % p for w, c in terms})

    outs = []
    for start, slot_bits, accs in calls:
        for k, acc in enumerate(accs):
            terms, products = acc
            acc_lc = lc(terms)
            for j, product in enumerate(products):
                a, b = product_terms(kind, product)
                wire = cs.new_private(value_of(a) * value_of(b))
                em.recipe.append((wire, ("mul_wire", TAG, start + k, j)))
                cs.enforce(lc(a), lc(b), cs.lc_variable(wire), tag=f"{TAG}/{kind}")
                acc_lc.terms[wire] = 1
            outs.append(commit_output(
                em, acc_lc, acc_value(kind, acc), shift, slot_bits,
                public=public, tag=TAG, index=start + k,
            ))
    return outs


def run_bulk(em, wires, kind, calls, shift, public):
    outs = []
    for start, slot_bits, accs in calls:
        entries = [
            (k, wires[w], c) for k, (terms, _) in enumerate(accs)
            for w, c in terms
        ]
        exprs, cols, coeffs = (
            np.array([e[i] for e in entries], dtype=np.int64) for i in range(3)
        )
        made = [
            (k, j, product_terms(kind, product))
            for k, (_, products) in enumerate(accs)
            for j, product in enumerate(products)
        ]
        products = None
        if made:
            sides = [
                (np.array([[wires[w] for w, _ in sides[s]] for *_, sides in made]),
                 tuple(c for _, c in made[0][2][s]))
                for s in (0, 1)
            ]
            products = Products(
                np.array([k for k, _, _ in made]), *sides,
                np.array([value_of(a) * value_of(b) for *_, (a, b) in made]),
                f"{TAG}/{kind}",
            )
        outs += em.commit_outputs(
            exprs, cols, coeffs, [acc_value(kind, acc) for acc in accs], shift,
            slot_bits, public=public, tag=TAG, first_index=start,
            products=products,
        ).tolist()
    return outs


def observe(cs, em, outs, ops):
    recipe = named(em.recipe)
    product_wires = {v for v, d in recipe.items() if d[0] == "mul_wire"}
    return {
        "rows": [
            (c.tag, c.a.terms, c.b.terms, c.c.terms) for c in cs.constraints
        ],
        "sizes": (cs.num_public, cs.num_private),
        "z": cs.dense_assignment(),
        "outs": outs,
        "recipe": recipe,
        "stats": em.stats,
        # an output summing fresh product wires is never value-numbered
        "cache": {
            key: hit for key, hit in em._commit_cache.items()
            if not {var for var, _ in key[0]} & product_wires
        },
        "knit": em.knit and (
            em.knit.constraints_emitted, em.knit.expressions_packed
        ),
        "ops": ops,
    }


def both(mode, share, knit, kind, calls, shift=0, public=False):
    seen = []
    for run, packer in ((run_oracle, PushPacker), (run_bulk, KnitPacker)):
        cs, em, wires = system(mode, share, knit, packer)
        with count_ops() as ops:
            outs = run(em, wires, kind, calls, shift, public)
            if em.knit is not None:
                em.knit.flush()
        assert cs.is_satisfied()
        seen.append(observe(cs, em, outs, ops.snapshot()))
    return seen


def split(accs, calls):
    """``(first_index, slot_bits, accumulators)`` per call; the second
    call's slot width differs, so it closes the knit row left open."""
    cut = len(accs) // 2 if calls == 2 else len(accs)
    return [(0, 16, accs[:cut]), (cut, 30, accs[cut:])][:calls]


class TestCommitOutputsParity:
    @pytest.mark.parametrize("mode", ["lean", "strict"])
    @pytest.mark.parametrize("knit", [None, 2, 9])
    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("calls", [1, 2])
    @pytest.mark.parametrize("shift", [0, 3])
    def test_matches_oracle(self, mode, knit, share, pattern, calls, shift):
        kind = {"one": "mul", "many": "sq"}.get(pattern, "prod")
        oracle, bulk = both(
            mode, share, knit, kind, split(PATTERNS[pattern], calls), shift
        )
        assert bulk == oracle

    @pytest.mark.parametrize("mode", ["lean", "strict"])
    @pytest.mark.parametrize("pattern", ["plain", "mixed"])
    @pytest.mark.parametrize("shift", [0, 3])
    def test_public_matches_oracle(self, mode, pattern, shift):
        oracle, bulk = both(
            mode, True, 2, "prod", split(PATTERNS[pattern], 2), shift,
            public=True,
        )
        assert bulk == oracle
        assert bulk["sizes"][0] == len(PATTERNS[pattern])
        assert bulk["stats"].shared_outputs == 0

    def test_sharing_happens(self):
        oracle, bulk = both("strict", True, None, "prod", split(
            PATTERNS["plain"], 1
        ))
        assert bulk["stats"].shared_outputs == 2
        assert len(set(bulk["outs"])) == len(PATTERNS["plain"]) - 2
        # product accumulators never share, even when alike
        oracle, bulk = both("lean", True, None, "mul", split(
            PATTERNS["one"], 1
        ))
        assert bulk["stats"].shared_outputs == 0

    def test_knit_row_closed_after_first_accumulators_rows(self):
        """A row left open at another width lands after the first
        accumulator's product and strict rows, before its own rows."""
        oracle, bulk = both("strict", False, 9, "sq", split(
            PATTERNS["many"], 2
        ))
        tags = [row[0] for row in bulk["rows"]]
        first_knit = tags.index("net/knit")
        assert tags[:first_knit].count("l/sq") == 3 + 2
        assert tags[first_knit - 1] == "l/range_eq"
        assert tags.count("net/knit") == 2

    @pytest.mark.parametrize("calls", [1, 2])
    def test_diverging_witness_message(self, calls):
        accs = [([(0, 1)], []), ([(2, 1)], []), ([(1, 1)], []), ([(2, 1)], [])]
        cs, em, wires = system("lean", True, None, KnitPacker)
        with pytest.raises(ValueError) as err:
            for start, _, part in split(accs, calls):
                em.commit_outputs(
                    np.arange(len(part)),
                    np.array([wires[terms[0][0]] for terms, _ in part]),
                    np.ones(len(part), dtype=np.int64),
                    [-5, 7, 0, 8][start:start + len(part)], 0, 16, tag=TAG,
                    first_index=start,
                )
        assert str(err.value) == (
            "shared output l[3]: identical LC with diverging witness values "
            "7 != 8"
        )


class TestStrictRange:
    """A private strict output must lie in the range proof's [-256, 768)."""

    def commit(self, acc, shift=0, mode="strict", public=False):
        cs = ConstraintSystem()
        em = GadgetEmitter(cs, mode=mode)
        var = cs.new_private(acc)
        em.commit_outputs(
            np.array([0]), np.array([var]), np.array([1]), [acc], shift, 16,
            public=public, tag="l", first_index=4,
        )
        return cs

    @pytest.mark.parametrize("acc,shift", [(-256, 0), (767, 0), (767 * 8 + 7, 3),
                                           (-256 * 8, 3), (0, 0)])
    def test_ends_satisfied(self, acc, shift):
        assert self.commit(acc, shift).is_satisfied()

    @pytest.mark.parametrize("acc,shift,out", [
        (-257, 0, -257), (768, 0, 768), (-307, 0, -307), (900, 0, 900),
        (768 * 8, 3, 768), (-256 * 8 - 1, 3, -257),
    ])
    def test_outside_raises(self, acc, shift, out):
        with pytest.raises(ValueError) as err:
            self.commit(acc, shift)
        assert str(err.value) == (
            f"output l[4] = {out} is outside the strict range proof's "
            f"[-256, 768)"
        )

    @pytest.mark.parametrize("acc", [-257, 768, 900])
    def test_oracle_raises_alike(self, acc):
        cs = ConstraintSystem()
        em = GadgetEmitter(cs, mode="strict")
        var = cs.new_private(acc)
        with pytest.raises(ValueError) as err:
            commit_output(em, cs.lc_variable(var), acc, 0, 16, tag="l", index=4)
        with pytest.raises(ValueError) as bulk_err:
            self.commit(acc)
        assert str(err.value) == str(bulk_err.value)

    @pytest.mark.parametrize("acc", [-257, 768])
    def test_lean_and_public_unbounded(self, acc):
        """Lean mode and public outputs carry no range proof."""
        assert self.commit(acc, mode="lean").is_satisfied()
        assert self.commit(acc, public=True).is_satisfied()
