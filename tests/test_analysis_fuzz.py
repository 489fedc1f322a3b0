"""Tests for the adversarial witness fuzzer.

Acceptance: >= 200 mutations per stock gadget and per compiled model with
zero accepted mutants; broken fixtures must yield accepted mutants with
minimized reproducers that re-validate.
"""

import random

import pytest

from repro.analysis import WitnessFuzzer, fuzz_witness
from repro.analysis.fuzz import STRATEGIES
from repro.analysis.report import Severity
from repro.core.circuit.gadgets import GadgetEmitter
from repro.core.compiler import ZenoCompiler, zeno_options
from repro.r1cs.system import ConstraintSystem
from tests.conftest import commit_lc, relu_wire, tiny_conv_model, tiny_image
from tests.tamper import tampered

MUTATIONS = 200


def strict_relu(value=37):
    cs = ConstraintSystem()
    em = GadgetEmitter(cs, mode="strict")
    in_var = cs.new_private(value)
    relu_wire(em, in_var, value)
    return cs


def strict_commit(acc=1000, shift=3):
    cs = ConstraintSystem()
    em = GadgetEmitter(cs, mode="strict")
    var = cs.new_private(acc)
    commit_lc(em, cs.lc_variable(var), acc, shift=shift, slot_bits=16)
    return cs


class TestStockCircuitsSurvive:
    @pytest.mark.parametrize("value", [-50, 0, 37])
    def test_strict_relu(self, value):
        report = fuzz_witness(
            strict_relu(value), mutations=MUTATIONS, rng=random.Random(7)
        )
        assert report.trials == MUTATIONS
        assert report.rejected == MUTATIONS
        assert report.ok and not report.accepted

    def test_strict_commit_output(self):
        report = fuzz_witness(
            strict_commit(), mutations=MUTATIONS, rng=random.Random(7)
        )
        assert report.rejected == MUTATIONS

    def test_every_strategy_exercised(self):
        report = fuzz_witness(
            strict_relu(), mutations=MUTATIONS, rng=random.Random(7)
        )
        assert set(report.by_strategy) == set(STRATEGIES)
        assert sum(report.by_strategy.values()) == MUTATIONS

    def test_compiled_strict_model(self):
        artifact = ZenoCompiler(zeno_options(gadget_mode="strict")).compile_model(
            tiny_conv_model(), tiny_image()
        )
        report = fuzz_witness(
            artifact.cs, mutations=MUTATIONS, rng=random.Random(11)
        )
        assert report.rejected == MUTATIONS
        assert report.ok


class TestBrokenCircuitsCaught:
    def broken_commit(self):
        """A strict output commitment minus its offset range proof (a
        soundness hole)."""
        cs = strict_commit()
        doomed = [i for i, c in enumerate(cs.constraints) if c.tag == "out/range_eq"]
        cs = tampered(cs, drop=doomed[:1])
        assert cs.is_satisfied()
        return cs

    def test_accepted_mutant_found_and_minimized(self):
        cs = self.broken_commit()
        fuzzer = WitnessFuzzer(cs, rng=random.Random(3))
        report = fuzzer.run(MUTATIONS)
        assert not report.ok
        ce = report.accepted[0]
        assert ce.minimized
        assert len(ce.minimized) <= len(ce.deltas)
        # The minimized reproducer must itself still be accepted.
        assert fuzzer._accepted(ce.minimized)
        # ... and applying it must leave an honest-looking witness: every
        # constraint satisfied despite a perturbed private variable.
        doc = ce.to_json()
        assert doc["strategy"] == ce.strategy
        assert set(doc) == {"strategy", "deltas", "minimized"}

    def test_lean_relu_sign_slack_found(self):
        cs = ConstraintSystem()
        em = GadgetEmitter(cs, mode="lean")
        in_var = cs.new_private(0)
        relu_wire(em, in_var, 0)
        report = fuzz_witness(cs, mutations=MUTATIONS, rng=random.Random(5))
        assert report.accepted  # free sign bit at zero input

    def test_findings_are_errors_with_provenance(self):
        cs = self.broken_commit()
        cs.mark_layer("fc1", 0)
        report = fuzz_witness(cs, mutations=MUTATIONS, rng=random.Random(3))
        findings = report.findings(cs)
        assert findings
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert finding.rule == "accepted-mutant"
        assert finding.layer == "fc1"
        assert finding.details["counterexample"]["minimized"]


class TestFuzzerContract:
    def test_rejects_unsatisfied_witness(self):
        cs = ConstraintSystem()
        var = cs.new_private(2)
        x = cs.lc_variable(var)
        cs.enforce(x, x - cs.lc_constant(1), cs.lc(), tag="bool")  # 2 not boolean
        with pytest.raises(ValueError):
            WitnessFuzzer(cs)

    def test_witness_restored_after_run(self):
        cs = strict_relu()
        before = [cs.value_of(v) for v in range(1, cs.num_private + 1)]
        fuzz_witness(cs, mutations=MUTATIONS, rng=random.Random(1))
        after = [cs.value_of(v) for v in range(1, cs.num_private + 1)]
        assert before == after
        assert cs.is_satisfied()

    def test_unreferenced_vars_never_mutated(self):
        # Free witness columns are lint territory, not fuzz counterexamples.
        cs = strict_relu()
        cs.new_private(99)  # unreferenced
        report = fuzz_witness(cs, mutations=MUTATIONS, rng=random.Random(2))
        assert report.ok

    def test_empty_system(self):
        cs = ConstraintSystem()
        cs.new_private(1)
        report = fuzz_witness(cs, mutations=10)
        assert report.trials == 0 and report.ok

    def test_deterministic_given_seed(self):
        r1 = fuzz_witness(strict_relu(), mutations=50, rng=random.Random(9))
        r2 = fuzz_witness(strict_relu(), mutations=50, rng=random.Random(9))
        assert r1.by_strategy == r2.by_strategy
        assert r1.rejected == r2.rejected
