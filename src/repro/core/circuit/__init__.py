"""Circuit IRs and the circuit-computation phase (§5.1).

Two interchangeable intermediate representations sit between the typed
:class:`~repro.core.lang.program.ZkProgram` and the R1CS:

* the **baseline arithmetic circuit** (:mod:`repro.core.circuit.arithmetic`)
  — per-scalar binary gates with recursive LC expansion, O(n^2) per dot
  product (how Arkworks-style frameworks behave);
* the **ZENO circuit** (:mod:`repro.core.circuit.zeno`) — n binary
  multiplication gates plus one multi-child addition gate per dot product,
  O(n) circuit computation and critical path 2 (Table 3).

Both produce semantically identical constraint systems, so the ZENO circuit
is an in-place replacement — a property the test suite checks directly.
"""

from repro.core.circuit.gates import (
    BaselineLayerCircuit,
    ZenoLayerCircuit,
    baseline_gate_counts,
    zeno_gate_counts,
)
from repro.core.circuit.compute import (
    CircuitComputer,
    CompilerOptions,
    ComputeResult,
    GenerateResult,
)

__all__ = [
    "BaselineLayerCircuit",
    "ZenoLayerCircuit",
    "baseline_gate_counts",
    "zeno_gate_counts",
    "CircuitComputer",
    "CompilerOptions",
    "ComputeResult",
    "GenerateResult",
]
