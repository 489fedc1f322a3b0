"""Tests for linear combinations, constraints, and the constraint system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.fp import BN254_FR
from repro.r1cs.lc import ONE, Assignment, LinearCombination
from repro.r1cs.system import ConstraintSystem

P = BN254_FR.modulus


class TestLinearCombination:
    def test_constant_and_variable_constructors(self):
        c = LinearCombination.constant(BN254_FR, 5)
        assert c.terms == {ONE: 5}
        assert LinearCombination.constant(BN254_FR, 0).is_zero()
        v = LinearCombination.variable(BN254_FR, 3, coeff=2)
        assert v.terms == {3: 2}
        assert LinearCombination.variable(BN254_FR, 3, coeff=0).is_zero()

    def test_add_term_merges_and_cancels(self):
        lc = LinearCombination(BN254_FR)
        lc.add_term(1, 4)
        lc.add_term(1, 3)
        assert lc.terms == {1: 7}
        lc.add_term(1, P - 7)  # cancels to zero -> term removed
        assert lc.is_zero()

    def test_add_lc_with_scale(self):
        a = LinearCombination(BN254_FR, {1: 2, 2: 3})
        b = LinearCombination(BN254_FR, {2: 5, 3: 1})
        a.add_lc(b, scale=10)
        assert a.terms == {1: 2, 2: 53, 3: 10}

    def test_add_lc_cancellation_removes_keys(self):
        a = LinearCombination(BN254_FR, {1: 2})
        b = LinearCombination(BN254_FR, {1: P - 2})
        a.add_lc(b)
        assert a.terms == {}

    def test_operators(self):
        a = LinearCombination(BN254_FR, {1: 2})
        b = LinearCombination(BN254_FR, {1: 1, 2: 4})
        assert (a + b).terms == {1: 3, 2: 4}
        assert (a - b).terms == {1: 1, 2: P - 4}
        assert (a * 3).terms == {1: 6}
        assert (a * 0).is_zero()
        assert (-a).terms == {1: P - 2}

    def test_evaluate(self):
        lc = LinearCombination(BN254_FR, {ONE: 10, 1: 2, -1: 3})
        assignment = Assignment(public=[100], private=[7])
        assert lc.evaluate(assignment) == 10 + 14 + 300

    def test_repr_names_namespaces(self):
        lc = LinearCombination(BN254_FR, {ONE: 1, 1: 1, -1: 1})
        text = repr(lc)
        assert "w1" in text and "pub1" in text

    @given(
        st.dictionaries(
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=0, max_value=P - 1),
            max_size=8,
        ),
        st.integers(min_value=0, max_value=P - 1),
    )
    @settings(max_examples=25)
    def test_property_scale_then_evaluate(self, terms, scale):
        lc = LinearCombination(BN254_FR, dict(terms))
        assignment = Assignment(
            public=[3, 1, 4, 1, 5], private=[9, 2, 6, 5, 3]
        )
        scaled = lc * scale
        assert scaled.evaluate(assignment) == (lc.evaluate(assignment) * scale) % P


class TestConstraintSystem:
    def test_allocation_namespaces(self):
        cs = ConstraintSystem()
        assert cs.new_public(5) == -1
        assert cs.new_public(6) == -2
        assert cs.new_private(7) == 1
        assert cs.new_private(8) == 2
        assert cs.num_variables == 5  # ONE + 2 + 2

    def test_value_lookup_and_assign(self):
        cs = ConstraintSystem()
        pub = cs.new_public(5)
        priv = cs.new_private()
        assert cs.value_of(pub) == 5
        assert cs.value_of(priv) is None
        assert cs.value_of(ONE) == 1
        cs.assign(priv, 9)
        assert cs.value_of(priv) == 9
        with pytest.raises(ValueError):
            cs.assign(ONE, 2)

    def test_assignment_requires_all_values(self):
        cs = ConstraintSystem()
        cs.new_private()
        with pytest.raises(ValueError):
            cs.assignment()

    def test_mul_private_satisfied(self):
        cs = ConstraintSystem()
        x = cs.new_private(6)
        w = cs.new_private(7)
        wire = cs.mul_private(x, w)
        assert cs.value_of(wire) == 42
        assert cs.num_constraints == 1
        assert cs.is_satisfied()

    def test_mul_private_detects_bad_witness(self):
        cs = ConstraintSystem()
        x = cs.new_private(6)
        w = cs.new_private(7)
        wire = cs.mul_private(x, w)
        cs.assign(wire, 41)
        assert not cs.is_satisfied()
        assert cs.first_unsatisfied() is not None

    def test_enforce_equal(self):
        cs = ConstraintSystem()
        a = cs.new_private(5)
        ref = cs.new_public(5)
        cs.enforce_equal(cs.lc_variable(a), cs.lc_variable(ref))
        assert cs.is_satisfied()
        cs.assign(a, 6)
        assert not cs.is_satisfied()

    def test_free_addition_property(self):
        """Any number of additions folds into one constraint (§2.1)."""
        cs = ConstraintSystem()
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        vars_ = [cs.new_private(v) for v in values]
        lc = cs.lc()
        for v in vars_:
            lc.add_term(v, 1)
        ref = cs.new_public(sum(values))
        cs.enforce_equal(lc, cs.lc_variable(ref))
        assert cs.num_constraints == 1
        assert cs.is_satisfied()

    def test_layer_ranges(self):
        cs = ConstraintSystem()
        x = cs.new_private(2)
        w = cs.new_private(3)
        start = cs.num_constraints
        cs.mul_private(x, w)
        cs.mark_layer("layer0", start)
        assert list(cs.layer_ranges["layer0"]) == [0]

    def test_total_lc_terms(self):
        cs = ConstraintSystem()
        x = cs.new_private(2)
        w = cs.new_private(3)
        cs.mul_private(x, w)
        assert cs.total_lc_terms() == 3  # 1 term in each of A, B, C

    def test_public_values(self):
        cs = ConstraintSystem()
        cs.new_public(5)
        cs.new_public(6)
        assert cs.public_values() == [5, 6]

    def test_repr(self):
        cs = ConstraintSystem(name="demo")
        assert "demo" in repr(cs)


def same_row(x, y) -> bool:
    return (x.a, x.b, x.c, x.tag) == (y.a, y.b, y.c, y.tag)


class TestViolations:
    def bad_cs(self):
        cs = ConstraintSystem()
        x = cs.new_private(2)
        w = cs.new_private(3)
        start = cs.num_constraints
        cs.mul_private(x, w)  # satisfied: 2*3=6
        cs.mark_layer("mul", start)
        start = cs.num_constraints
        cs.enforce_equal(cs.lc_variable(x), cs.lc_constant(9), tag="eq")  # 2 != 9
        cs.enforce_equal(cs.lc_variable(w), cs.lc_constant(9), tag="eq")  # 3 != 9
        cs.mark_layer("checks", start)
        return cs

    def test_all_violations_with_layers(self):
        cs = self.bad_cs()
        found = cs.violations()
        assert [v.index for v in found] == [1, 2]
        assert [v.layer for v in found] == ["checks", "checks"]
        # each a fresh read of its row: equal to, never the same object as,
        # another read
        for v in found:
            again = cs.constraints[v.index]
            assert v.constraint is not again
            assert same_row(v.constraint, again)

    def test_limit(self):
        cs = self.bad_cs()
        assert len(cs.violations(limit=1)) == 1
        first = cs.first_unsatisfied()
        assert first is not cs.constraints[1]
        assert same_row(first, cs.constraints[1])

    def test_clean_system_empty(self):
        cs = ConstraintSystem()
        x = cs.new_private(2)
        cs.enforce_equal(cs.lc_variable(x), cs.lc_constant(2))
        assert cs.violations() == []
        assert cs.first_unsatisfied() is None

    def test_layer_of(self):
        cs = self.bad_cs()
        assert cs.layer_of(0) == "mul"
        assert cs.layer_of(2) == "checks"
        assert cs.layer_of(99) is None

    def test_repr_names_layer(self):
        violation = self.bad_cs().violations(limit=1)[0]
        assert "checks" in repr(violation)
        assert "#1" in repr(violation)


class TestLayerIndexCache:
    """The bisect-backed layer_of must match a linear first-match scan."""

    @staticmethod
    def _reference(cs: ConstraintSystem, index: int):
        for tag, rng in cs.layer_ranges.items():
            if rng.start <= index < min(rng.stop, cs.num_constraints):
                return tag
        return None

    @staticmethod
    def _system_with_layers(marks):
        """``marks`` = [(tag, start)] applied after appending rows."""
        cs = ConstraintSystem()
        x = cs.new_private(3)
        for _ in range(12):
            cs.enforce_equal(cs.lc_variable(x), cs.lc_constant(3))
        for tag, start in marks:
            cs.layer_ranges[tag] = range(start, cs.num_constraints)
            cs._layer_index = None
        return cs

    def test_matches_reference_on_disjoint_layers(self):
        cs = ConstraintSystem()
        x = cs.new_private(1)
        for tag in ("a", "b", "c"):
            start = cs.num_constraints
            for _ in range(4):
                cs.enforce_equal(cs.lc_variable(x), cs.lc_constant(1))
            cs.mark_layer(tag, start)
        for row in range(-1, cs.num_constraints + 2):
            assert cs.layer_of(row) == self._reference(cs, row)

    @settings(max_examples=50, deadline=None)
    @given(
        bounds=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=1, max_size=5,
        ),
        probe=st.integers(-2, 14),
    )
    def test_matches_reference_on_overlapping_layers(self, bounds, probe):
        """First-inserted tag wins wherever ranges overlap."""
        cs = ConstraintSystem()
        x = cs.new_private(5)
        for _ in range(12):
            cs.enforce_equal(cs.lc_variable(x), cs.lc_constant(5))
        for i, (a, b) in enumerate(bounds):
            lo, hi = min(a, b), max(a, b)
            cs.layer_ranges[f"t{i}"] = range(lo, hi)
        cs._layer_index = None
        assert cs.layer_of(probe) == self._reference(cs, probe)

    def test_cache_invalidated_by_mark_layer(self):
        cs = self._system_with_layers([("early", 0)])
        assert cs.layer_of(11) == "early"
        cs.mark_layer("late", 6)
        assert cs.layer_of(11) == "early"  # first-match-wins is preserved
        del cs.layer_ranges["early"]
        cs._layer_index = None
        assert cs.layer_of(11) == "late"
        assert cs.layer_of(3) is None

    def test_cache_invalidated_by_enforce(self):
        cs = ConstraintSystem()
        x = cs.new_private(2)
        cs.enforce_equal(cs.lc_variable(x), cs.lc_constant(2))
        cs.mark_layer("all", 0)
        assert cs.layer_of(0) == "all"
        assert cs.layer_of(1) is None
        # Appending a row and re-marking must drop the stale index.
        cs.enforce_equal(cs.lc_variable(x), cs.lc_constant(2))
        cs.mark_layer("all", 0)
        assert cs.layer_of(1) == "all"
