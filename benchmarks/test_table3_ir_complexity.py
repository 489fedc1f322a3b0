"""Table 3 — per-layer complexity of the two circuit IRs.

The analytic rows (gates / wires / LCs / critical path / computation) are
printed for representative shapes and cross-checked against the *actual*
generated circuits: the Generate phase's gate counts must match the
formulas exactly, and the measured circuit-computation work must scale
like the predicted complexity (O(n^2) baseline vs O(n) ZENO).
"""

import gc

import numpy as np
import pytest

from repro.core.circuit.compute import CircuitComputer, CompilerOptions
from repro.core.circuit.gates import baseline_gate_counts, zeno_gate_counts
from repro.core.lang.primitives import ProgramBuilder
from benchmarks._shared import fmt, print_table


def test_table3_analytic_rows(benchmark):
    shapes = [
        ("dot", dict(m=1, n=512)),
        ("fc", dict(m=128, n=512)),
        ("conv", dict(m=32, n=288, k=100)),
        ("pool", dict(m=32, n=144, s=2)),
    ]
    rows = []
    for layer, kw in shapes:
        base = baseline_gate_counts(layer, **kw)
        zeno = zeno_gate_counts(layer, **kw)
        for ir, counts in (("arithmetic", base), ("ZENO", zeno)):
            rows.append(
                [
                    ir,
                    layer,
                    str(kw),
                    counts["gates"],
                    counts["wires"],
                    counts["lcs"],
                    counts["critical_path"],
                    counts["computation"],
                ]
            )
    print_table(
        "Table 3: IR complexity per layer (analytic)",
        ["IR", "layer", "shape", "#gates", "#wires", "#LC", "crit.path", "comp."],
        rows,
    )

    for layer, kw in shapes:
        base = baseline_gate_counts(layer, **kw)
        zeno = zeno_gate_counts(layer, **kw)
        assert zeno["gates"] <= base["gates"]
        assert zeno["critical_path"] <= 2
        assert zeno["computation"] < base["computation"]

    benchmark.pedantic(
        lambda: [baseline_gate_counts("conv", 32, 288, 100) for _ in range(100)],
        rounds=1,
        iterations=1,
    )


def _fc_program(n, m=8, seed=0):
    gen = np.random.default_rng(seed)
    builder = ProgramBuilder("fc", gen.integers(0, 256, n).astype(np.int64))
    builder.fully_connected(
        gen.integers(-127, 128, (m, n)).astype(np.int64), requant=10
    )
    return builder.build()


def test_table3_generated_counts_match_formulas(benchmark):
    n, m = 256, 8
    program = _fc_program(n, m)

    base_computer = CircuitComputer(program, CompilerOptions(zeno_circuit=False))
    base_gen = benchmark.pedantic(
        base_computer.generate, rounds=1, iterations=1
    )
    zeno_gen = CircuitComputer(
        program, CompilerOptions(zeno_circuit=True)
    ).generate()

    expected_base = baseline_gate_counts("fc", m, n)
    expected_zeno = zeno_gate_counts("fc", m, n)
    assert base_gen.num_gates == expected_base["gates"]
    assert zeno_gen.num_gates == expected_zeno["gates"]
    assert base_gen.critical_path == expected_base["critical_path"]
    assert zeno_gen.critical_path == expected_zeno["critical_path"]


def test_table3_computation_scaling(benchmark):
    """Measured LC work scales ~n^2 for the baseline, ~n for ZENO."""

    def work(n, zeno):
        gc.collect()
        program = _fc_program(n)
        computer = CircuitComputer(
            program, CompilerOptions(zeno_circuit=zeno, knit=False)
        )
        result = computer.compute()
        return sum(w.work_units for w in result.layer_work)

    base_ratio = work(512, zeno=False) / work(128, zeno=False)
    zeno_ratio = work(512, zeno=True) / benchmark.pedantic(
        lambda: work(128, zeno=True), rounds=1, iterations=1
    )
    print_table(
        "Table 3 check: measured work scaling for 4x larger dot length",
        ["IR", "work(512)/work(128)", "expected"],
        [
            ["arithmetic", fmt(base_ratio, 1), "~16 (O(n^2))"],
            ["ZENO", fmt(zeno_ratio, 1), "~4 (O(n))"],
        ],
    )
    assert 10.0 < base_ratio < 22.0
    assert 3.0 < zeno_ratio < 5.5
