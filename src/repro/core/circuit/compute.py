"""The circuit-computation phase: program -> gates -> constraint system.

This module implements both halves of §2.1's pipeline front end under one
driver:

* :meth:`CircuitComputer.generate` — the **Generate** phase (arithmetic
  function -> circuit), per IR;
* :meth:`CircuitComputer.compute`  — the **Circuit Computation** phase
  (circuit -> constraints), per IR, with the privacy-adaptive rules of
  §4.1, optional knit packing (§4.2), the frequency cache (§6.1), and
  per-layer work accounting consumed by the parallel scheduler (§5.2).

The baseline path deliberately reproduces the O(n^2) recursive LC
expansion of scalar-gate frameworks (left-deep merge of binary addition
gates), one term at a time; the ZENO path is O(n) per dot and lowers a
whole layer at a time into CSR row blocks (entry arrays, never per-term
Python).  Both emit *identical* constraint semantics — a property under
test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.circuit.gadgets import (
    GadgetEmitter,
    GadgetStats,
    Products,
    identity_bits,
    lc_entries,
)
from repro.core.circuit.gates import (
    BaselineLayerCircuit,
    ZenoLayerCircuit,
    generate_baseline,
    generate_zeno,
)
from repro.core.lang.program import (
    ActLUTOp,
    AddOp,
    DotLayerOp,
    EmbedOp,
    EwiseAffineOp,
    FlattenOp,
    GatherOp,
    LayerNormOp,
    MatMulOp,
    MaxPoolOp,
    ReluOp,
    RowScaleOp,
    ZkProgram,
)
from repro.core.lang.types import Privacy, PrivacySetting
from repro.core.lang.zktensor import ZkTensor
from repro.core.privacy.knit import KnitPacker, expression_bits
from repro.core.reuse.cache import CacheService
from repro.field.counters import global_counter
from repro.lookup import LookupEngine, LookupReport, LookupTable, get_table
from repro.nn.graph import INPUT
from repro.r1cs.lc import RowBlock, RowSide
from repro.r1cs.recipe import Inputs, product_step
from repro.r1cs.system import ConstraintSystem


# A dot layer is lowered in runs of dots holding at most this many
# (dot, tap) entries: the temporaries of one run stay cache-resident and
# the process's peak memory does not grow with the layer (measured on
# cnn_whole — see CHANGES.md, PR 17).
_CHUNK_ENTRIES = 1 << 16
_PAD = np.iinfo(np.int64).min  # variable slot of a padded (absent) tap
_NO_TERMS = np.zeros(0, dtype=np.int64)  # accumulators of product wires only


def _merge_repeated(dots, variables, coeffs):
    """Merge entries of one dot that name the same variable.

    Taps of one dot normally read distinct wires in ascending order, which
    one comparison pass confirms; a gather with a repeated source (or
    upstream gadget sharing) maps several taps onto one variable, whose
    coefficients must add — and vanish if they cancel.
    """
    if dots.size < 2:
        return dots, variables, coeffs
    lo = int(variables.min())
    span = int(variables.max()) - lo + 1
    key = dots * span + (variables - lo)
    if (key[1:] > key[:-1]).all():
        return dots, variables, coeffs
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    coeffs = np.add.reduceat(coeffs[order], starts)
    survives = coeffs != 0
    dots, variables = np.divmod(key[starts][survives], span)
    return dots, variables + lo, coeffs[survives]


def _first_occurrence(values):
    """``(distinct, rank)``: the distinct values in order of first
    occurrence, and each value's position among them."""
    distinct, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return distinct[order], rank[inverse.reshape(-1)]


# The allowed values of each string-valued compile setting.
_CHOICES = {
    "gadget_mode": ("lean", "strict"),
    "relu_mode": ("bits", "lookup"),
    "audit": ("off", "report", "enforce"),
}


@dataclass
class CompilerOptions:
    """Every setting of one compilation: each ZENO optimization as an
    independent toggle (Figs. 9–13 ablate them one at a time), the
    lowering, and the post-compile audit."""

    privacy: PrivacySetting = PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS
    zeno_circuit: bool = True  # §5.1 ZENO circuit vs baseline arithmetic circuit
    # §4.1 privacy-adaptive circuit generation.  When False (the Arkworks
    # baseline), the compiler "ignores privacy type of input data and
    # generates constraints for each multiplication": public weights are
    # still committed as private variables and every scalar product costs a
    # constraint (Eq. 2), exactly as the paper describes the naive path.
    privacy_adaptive: bool = True
    knit: bool = True  # §4.2 knit encoding
    knit_batch: Optional[int] = None  # force a batch size; None = auto (§4.2)
    cache: bool = True  # §6.1 frequency-based cache service
    fusion: bool = True  # §6.2 zkSNARK-aware NN fusion
    scheduler_workers: int = 16  # §5.2 parallel scheduler (1 = sequential)
    gadget_mode: str = "lean"  # "lean" (paper accounting) | "strict" (sound)
    # Nonlinearity lowering: "bits" keeps the per-activation
    # bit-decomposition gadgets (and one-hot selectors for table
    # functions); "lookup" routes ReLU/GELU/softmax/rsqrt/embedding
    # through the shared repro.lookup argument (ARCHITECTURE §13).
    relu_mode: str = "bits"
    record_recipe: bool = False  # record witness replay steps (§6.1)
    # Sparsity-aware compilation (TeleSparse direction).  Active only when
    # weights are public — zero weights are then compile-time knowledge, so
    # eliding their terms leaks nothing.  Zero-weight taps are masked out
    # of the layer's entry arrays (the dense lowering applies the same
    # mask, so this is constraint-system preserving: identical rows,
    # byte-identical proofs) and accounted in a SparsityReport; with
    # ``sparse_share`` structurally identical gadget emissions are
    # additionally value-numbered so pruned filter rows collapse to one
    # sub-circuit (changes the constraint system — strictly fewer
    # constraints).
    sparse: bool = False
    sparse_share: bool = True
    # Post-compile soundness audit (repro.analysis): "off", "report"
    # (attach an AuditReport to the artifact), or "enforce" (additionally
    # raise CircuitAuditError on ERROR-severity findings).  Auditing
    # records the witness recipe: the determinism check seeds from it.
    audit: str = "off"
    security_profile: str = "zeno"  # backend profile for modeled security cost
    name: str = "zeno"

    def __post_init__(self) -> None:
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(
                    f"{name}={getattr(self, name)!r}: expected one of {allowed}"
                )
        if not isinstance(self.privacy, PrivacySetting):
            raise ValueError(
                f"privacy={self.privacy!r}: expected a PrivacySetting, "
                f"one of {tuple(PrivacySetting.names())} by name"
            )


# The name benchmarks/e2e imports; one class, two names.
ComputeOptions = CompilerOptions


@dataclass
class SparsityReport:
    """What sparsity-aware compilation elided and shared (`--sparse`)."""

    enabled: bool = False
    weight_terms_total: int = 0  # dense tap count across all dots
    zero_terms_elided: int = 0  # zero-weight taps skipped
    total_rows: int = 0  # filter rows across all dot layers
    zero_rows: int = 0  # all-zero (pruned) rows
    distinct_rows: int = 0  # distinct row contents
    row_plan_hits: int = 0  # rows whose content an earlier row had
    outputs_shared: int = 0  # committed output wires deduplicated
    relus_shared: int = 0  # ReLU sub-circuits deduplicated

    @property
    def terms_kept(self) -> int:
        return self.weight_terms_total - self.zero_terms_elided

    def to_json(self) -> dict:
        return {
            "enabled": self.enabled,
            "weight_terms_total": self.weight_terms_total,
            "zero_terms_elided": self.zero_terms_elided,
            "total_rows": self.total_rows,
            "zero_rows": self.zero_rows,
            "distinct_rows": self.distinct_rows,
            "row_plan_hits": self.row_plan_hits,
            "outputs_shared": self.outputs_shared,
            "relus_shared": self.relus_shared,
        }


@dataclass
class LayerWork:
    """Scheduler-facing record of one layer's circuit-computation work."""

    name: str
    kind: str  # "conv" | "fc" | "pool" | "relu" | "bn" | "add"
    num_units: int  # independent work items (dots or elements)
    work_units: int  # total LC-term operations
    wall_time: float
    constraints: int


@dataclass
class GenerateResult:
    """Output of the Generate phase."""

    circuits: Dict[str, object]
    num_mul_gates: int = 0
    num_add_gates: int = 0
    critical_path: int = 0
    wall_time: float = 0.0

    @property
    def num_gates(self) -> int:
        return self.num_mul_gates + self.num_add_gates


@dataclass
class ComputeResult:
    """Output of the Circuit Computation phase."""

    cs: ConstraintSystem
    layer_work: List[LayerWork] = field(default_factory=list)
    gadget_stats: GadgetStats = None
    knit_constraints: int = 0
    knit_expressions: int = 0
    lc_terms: int = 0
    wall_time: float = 0.0
    recipe: Optional[list] = None  # witness replay steps (repro.r1cs.recipe)
    sparsity: Optional[SparsityReport] = None
    lookup: Optional[LookupReport] = None

    @property
    def num_constraints(self) -> int:
        return self.cs.num_constraints


class CircuitComputer:
    """Drives one program through Generate and Circuit Computation."""

    def __init__(
        self, program: ZkProgram, options: Optional[CompilerOptions] = None
    ):
        self.program = program
        self.options = options or CompilerOptions()
        self.cache = CacheService() if self.options.cache else None
        self.generated: Optional[GenerateResult] = None
        self._recipe: Optional[list] = None
        self._weight_var_cache: Dict[str, np.ndarray] = {}
        self._distinct_rows: set = set()  # weight-row contents seen (report)
        self._sparsity: Optional[SparsityReport] = None
        self._engine: Optional[LookupEngine] = None

    # -- phase 1: Generate -------------------------------------------------------

    def generate(self) -> GenerateResult:
        opts = self.options
        start = time.perf_counter()
        result = GenerateResult(circuits={})
        for op in self.program.ops:
            if isinstance(op, DotLayerOp):
                circuit = (
                    generate_zeno(op) if opts.zeno_circuit else generate_baseline(op)
                )
                result.circuits[op.name] = circuit
                result.num_mul_gates += circuit.num_mul_gates
                result.num_add_gates += circuit.num_add_gates
                result.critical_path = max(result.critical_path, circuit.critical_path)
            elif isinstance(op, MaxPoolOp):
                # One comparison gate per non-first window element.
                result.num_add_gates += op.num_windows * (op.window_size - 1)
            elif isinstance(op, (ReluOp, AddOp, EwiseAffineOp, ActLUTOp)):
                size = int(op.out_values.size)
                result.num_add_gates += size  # one elementwise gate each
            elif isinstance(op, EmbedOp):
                result.num_add_gates += int(op.out_values.size)
            elif isinstance(op, MatMulOp):
                m, k, n = op.dims
                result.num_mul_gates += m * k * n
                result.num_add_gates += m * max(0, k - 1) * n
            elif isinstance(op, RowScaleOp):
                result.num_mul_gates += int(op.out_values.size)
            elif isinstance(op, LayerNormOp):
                rows, d = op.in_values.shape
                result.num_mul_gates += 2 * rows * d  # squares + products
                result.num_add_gates += rows * (3 * d + 2)
        result.wall_time = time.perf_counter() - start
        self.generated = result
        return result

    # -- phase 2: Circuit Computation ------------------------------------------------

    def compute(self) -> ComputeResult:
        if self.generated is None:
            self.generate()
        opts = self.options
        program = self.program
        start = time.perf_counter()
        terms_before = global_counter().lc_term

        cs = ConstraintSystem(name=program.name)
        one_private = (
            program.image_privacy.is_private
            and not program.weights_privacy.is_private
        )
        knit = (
            KnitPacker(
                cs,
                batch_size=opts.knit_batch,
                cache=self.cache,
                tag=program.name,
            )
            if (opts.knit and one_private)
            else None
        )
        record = opts.record_recipe or opts.audit != "off"
        recipe: Optional[list] = [] if record else None
        self._recipe = recipe
        self._weight_var_cache = {}
        self._distinct_rows = set()
        sparse_active = opts.sparse and not program.weights_privacy.is_private
        self._sparsity = (
            SparsityReport(enabled=sparse_active) if opts.sparse else None
        )
        emitter = GadgetEmitter(
            cs,
            mode=opts.gadget_mode,
            knit=knit,
            recipe=recipe,
            share=sparse_active and opts.sparse_share,
        )
        self._engine = LookupEngine(cs, mode=opts.gadget_mode, recipe=recipe)

        env: Dict[str, ZkTensor] = {INPUT: self._input_tensor(cs, program)}
        result = ComputeResult(
            cs=cs, gadget_stats=emitter.stats, recipe=recipe,
            sparsity=self._sparsity,
        )

        for op in program.ops:
            layer_start = time.perf_counter()
            constraints_before = cs.num_constraints
            if isinstance(op, DotLayerOp):
                work, units = self._compute_dot(cs, emitter, env, op)
                kind = op.layer_kind
            elif isinstance(op, ReluOp):
                work, units = self._compute_relu(cs, emitter, env, op)
                kind = "relu"
            elif isinstance(op, MaxPoolOp):
                work, units = self._compute_maxpool(cs, emitter, env, op)
                kind = "maxpool"
            elif isinstance(op, EwiseAffineOp):
                work, units = self._compute_affine(cs, emitter, env, op)
                kind = "bn"
            elif isinstance(op, AddOp):
                work, units = self._compute_add(cs, emitter, env, op)
                kind = "add"
            elif isinstance(op, EmbedOp):
                work, units = self._compute_embed(cs, emitter, env, op)
                kind = "embed"
            elif isinstance(op, MatMulOp):
                work, units = self._compute_matmul(cs, emitter, env, op)
                kind = "matmul"
            elif isinstance(op, RowScaleOp):
                work, units = self._compute_rowscale(cs, emitter, env, op)
                kind = "rowscale"
            elif isinstance(op, ActLUTOp):
                work, units = self._compute_lut(cs, emitter, env, op)
                kind = "lut"
            elif isinstance(op, LayerNormOp):
                work, units = self._compute_layernorm(cs, emitter, env, op)
                kind = "ln"
            elif isinstance(op, GatherOp):
                self._compute_gather(env, op)
                continue
            elif isinstance(op, FlattenOp):
                src = env[op.inputs[0]]
                env[op.output] = src.reshaped((src.values.size,))
                continue
            else:
                raise TypeError(f"no circuit computation for {type(op).__name__}")
            if knit is not None:
                knit.flush()  # never pack across layers (per-layer bounds)
            cs.mark_layer(op.name, constraints_before)
            result.layer_work.append(
                LayerWork(
                    name=op.name,
                    kind=kind,
                    num_units=units,
                    work_units=work,
                    wall_time=time.perf_counter() - layer_start,
                    constraints=cs.num_constraints - constraints_before,
                )
            )

        if self._engine.active:
            # The shared per-table columns (multiplicities, sponge, sum
            # checks) land after every layer, each in its own
            # ``lookup:<table>`` pseudo-layer.
            finalize_start = time.perf_counter()
            blocks = self._engine.finalize(mark=cs.mark_layer)
            finalize_time = time.perf_counter() - finalize_start
            for block in blocks:
                span = cs.layer_ranges[f"lookup:{block.table_name}"]
                result.layer_work.append(
                    LayerWork(
                        name=f"lookup:{block.table_name}",
                        kind="lookup",
                        num_units=block.num_lookups,
                        work_units=len(block.packed_entries),
                        wall_time=finalize_time / len(blocks),
                        constraints=len(span),
                    )
                )
            result.lookup = self._engine.report()

        if knit is not None:
            knit.flush()
            result.knit_constraints = knit.constraints_emitted
            result.knit_expressions = knit.expressions_packed
        if self._sparsity is not None:
            self._sparsity.distinct_rows = len(self._distinct_rows)
            self._sparsity.outputs_shared = emitter.stats.shared_outputs
            self._sparsity.relus_shared = emitter.stats.shared_relus
        result.lc_terms = global_counter().lc_term - terms_before
        result.wall_time = time.perf_counter() - start
        return result

    # -- inputs ------------------------------------------------------------------------

    def _input_tensor(self, cs: ConstraintSystem, program: ZkProgram) -> ZkTensor:
        values = program.input_values
        if program.image_privacy.is_private:
            flat = values.reshape(-1)
            first = cs.allocate(flat)
            if self._recipe is not None:
                self._recipe.append(Inputs(first, flat.size))
            indices = np.arange(first, first + flat.size).reshape(values.shape)
            return ZkTensor(
                values, Privacy.PRIVATE, stage="input", var_indices=indices,
                name="image",
            )
        return ZkTensor.public(values, name="image")

    # -- dot layers ---------------------------------------------------------------------

    def _compute_dot(self, cs, emitter, env, op: DotLayerOp):
        x_tensor = env[op.inputs[0]]
        is_final = op.name == self.program.output_name
        n = op.dot_length
        slot_bits = expression_bits(n)
        circuit = self.generated.circuits[op.name]

        # Without privacy-adaptive generation (§4.1), every multiplication
        # involving a private value is charged a constraint — except pool
        # layers, whose ones-vector taps are additions even in the baseline
        # (Table 3's pool row has zero wires).
        naive_products = (
            not self.options.privacy_adaptive
            and op.layer_kind != "pool"
            and x_tensor.is_private
        )
        if (op.weights_private or naive_products) and x_tensor.is_private:
            out_vars, work = self._dot_both_private(cs, emitter, op, x_tensor, is_final)
        elif op.weights_private or isinstance(circuit, ZenoLayerCircuit):
            out_vars, work = self._dot_linear(
                cs, emitter, op, x_tensor, slot_bits, is_final
            )
        else:
            out_vars, work = self._dot_baseline(
                cs, emitter, circuit, op, x_tensor, slot_bits, is_final
            )

        env[op.output] = ZkTensor(
            op.out_values,
            Privacy.PRIVATE,
            stage="constraint",
            var_indices=np.asarray(out_vars, dtype=np.int64).reshape(
                op.out_values.shape
            ),
            name=op.name,
        )
        return work, op.num_dots

    def _dot_linear(self, cs, emitter, op, x_tensor, slot_bits, is_final):
        """ZENO circuit computation, a whole layer at a time (§5.1, Eq. 3).

        One private operand: every dot is the linear combination
        ``sum_i coeff_i * var_i + bias`` with the public operand as the
        coefficients — public weights over feature wires, or (roles
        swapped) public feature values over weight variables, allocated
        once per layer and shared by all dots reusing a weight row.  The
        layer's ``(dot, tap) -> (variable, coefficient)`` entries are built
        by broadcasting ``input_cols[:, col_of_dot]`` against
        ``weight_rows[row_of_dot]``; padded taps and zero coefficients are
        masked out (sparsity-aware compilation is this same mask — the
        dense lowering never emitted a zero term either — plus its
        report), taps of one dot that read the same wire merge, and
        :meth:`GadgetEmitter.commit_outputs` commits the outputs and packs
        the rows.  O(n) per dot (Table 3); nothing here runs per term.
        """
        n = op.dot_length
        if op.weights_private:
            var_of = self._weight_vars(cs, op)  # (rows, n)
            coeff_of = np.where(  # (n, cols); a padded tap reads zero
                op.input_cols > 0, x_tensor.flat_values()[op.input_cols - 1], 0
            )
        else:
            var_of = np.where(  # (n, cols)
                op.input_cols > 0, x_tensor.flat_vars()[op.input_cols - 1], _PAD
            )
            coeff_of = op.weight_rows  # (rows, n)
        dtype = np.result_type(coeff_of, op.bias)
        magnitude = max(
            max(abs(int(a.min())), abs(int(a.max())))
            for a in (coeff_of, op.bias)
        )
        if dtype != object and magnitude * (n + 1) >= 1 << 62:
            dtype = object  # merged duplicates could leave int64: go exact
        work = op.num_dots * n
        report = self._sparsity
        if report is not None and report.enabled:
            nonzeros = np.count_nonzero(op.weight_rows, axis=1)
            work = int(nonzeros[op.row_of_dot].sum())
            report.weight_terms_total += op.num_dots * n
            report.zero_terms_elided += op.num_dots * n - work
            report.total_rows += nonzeros.size
            report.zero_rows += int(np.count_nonzero(nonzeros == 0))
            for row in op.weight_rows:
                content = row.tobytes()
                report.row_plan_hits += content in self._distinct_rows
                self._distinct_rows.add(content)

        # Runs of whole knit rows, so no row is split between two runs.
        per_row = (
            emitter.knit.capacity(identity_bits(slot_bits, op.requant))
            if emitter.knit is not None and not is_final else 1
        )
        step = max(1, _CHUNK_ENTRIES // ((n + 1) * per_row)) * per_row
        out_vars = []
        for d0 in range(0, op.num_dots, step):
            rows_d = op.row_of_dot[d0:d0 + step]
            cols_d = op.col_of_dot[d0:d0 + step]
            variables = np.zeros((rows_d.size, n + 1), dtype=np.int64)
            coeffs = np.empty((rows_d.size, n + 1), dtype=dtype)
            coeffs[:, 0] = op.bias[rows_d]  # column 0: the constant ONE
            if op.weights_private:
                variables[:, 1:] = var_of[rows_d]
                coeffs[:, 1:] = coeff_of[:, cols_d].T
            else:
                variables[:, 1:] = var_of[:, cols_d].T
                coeffs[:, 1:] = coeff_of[rows_d]
            live = (coeffs != 0) & (variables != _PAD)
            dots = np.nonzero(live)[0]
            variables, coeffs = variables[live], coeffs[live]
            dots, variables, coeffs = _merge_repeated(dots, variables, coeffs)
            global_counter().lc_term += int(dots.size)
            out_vars.append(emitter.commit_outputs(
                dots, variables, coeffs, op.acc_values[d0:d0 + step],
                op.requant, slot_bits, public=is_final, tag=op.name,
                first_index=d0,
            ))
        return np.concatenate(out_vars), work

    def _dot_baseline(self, cs, emitter, circuit, op, x_tensor, slot_bits, is_final):
        """Baseline circuit computation: left-deep binary-add expansion.

        Each addition gate merges its children's expanded term lists — the
        O(n^2) recursive expansion of §5.1.  Term lists stay plain Python
        lists so the copying cost is the real, measured cost.  The merged
        terms (a wire read twice adds up, and vanishes if it cancels) are
        committed by one :meth:`GadgetEmitter.commit_outputs` call.
        """
        x_vars = x_tensor.flat_vars()
        bias = op.bias
        counter = global_counter()
        exprs, cols, coeffs = [], [], []
        work = 0
        x_pos = circuit.x_pos
        coeff = circuit.coeff
        for d in range(op.num_dots):
            positions = x_pos[d].tolist()
            weights = coeff[d].tolist()
            expanded: list = []
            for pos, w in zip(positions, weights):
                if pos and w:
                    term = (int(x_vars[pos - 1]), w)
                    # Binary addition gate: merge (copy) the expanded LCs.
                    expanded = expanded + [term]
                    work += len(expanded)
                else:
                    expanded = list(expanded)  # zero operand still merges
                    work += len(expanded) + 1
            counter.lc_term += len(expanded)
            terms: dict = {}
            for var, w in expanded:
                prev = terms.get(var)
                terms[var] = w if prev is None else prev + w
            b = int(bias[op.row_of_dot[d]])
            if b:
                terms[0] = terms.get(0, 0) + b
            exprs += [d] * len(terms)
            cols += terms
            coeffs += terms.values()
        # np.array([]) is float64 (all-zero dots): keep the coefficients int
        coeffs = np.array(coeffs) if coeffs else np.zeros(0, dtype=np.int64)
        live = coeffs != 0
        out_vars = emitter.commit_outputs(
            np.array(exprs, dtype=np.int64)[live],
            np.array(cols, dtype=np.int64)[live], coeffs[live],
            op.acc_values, op.requant, slot_bits, public=is_final, tag=op.name,
        )
        return out_vars, work

    def _dot_both_private(self, cs, emitter, op, x_tensor, is_final):
        """Both private: Eq. 2 — one constraint per scalar product.

        Every live tap (a real input, a nonzero weight) is a product wire
        ``w * x``; each dot sums its wires plus its bias, one
        :meth:`GadgetEmitter.commit_outputs` call for the layer.
        """
        taps = op.input_cols[:, op.col_of_dot].T  # (dot, tap) input positions
        weights = op.weight_rows[op.row_of_dot]  # (dot, tap)
        dots, tap = np.nonzero((taps != 0) & (weights != 0))
        at = taps[dots, tap] - 1
        w_vars = self._weight_vars(cs, op)[op.row_of_dot[dots], tap]
        x_vars = x_tensor.flat_vars()[at]
        bias = op.bias[op.row_of_dot]
        biased = np.flatnonzero(bias)
        counter = global_counter()
        counter.field_mul += dots.size  # each wire's value
        counter.lc_term += dots.size + biased.size
        # Knit is inapplicable here (Table 2): plain equality check.
        out_vars = emitter.commit_outputs(
            biased, np.zeros_like(biased), bias[biased], op.acc_values,
            op.requant, expression_bits(op.dot_length), public=is_final,
            tag=op.name,
            products=Products(
                dots, (w_vars[:, None], (1,)), (x_vars[:, None], (1,)),
                x_tensor.flat_values()[at].astype(np.int64)
                * weights[dots, tap],
                f"{op.name}/mul",
            ),
        )
        return out_vars, int(dots.size)

    def _weight_vars(self, cs, op: DotLayerOp) -> np.ndarray:
        """Allocate (once per compilation) the layer's weight variables.

        Cached per-compute (never on the shared op object — a program may
        be compiled into several constraint systems).
        """
        cached = self._weight_var_cache.get(op.name)
        if cached is not None:
            return cached
        flat = op.weight_rows.reshape(-1)
        first = cs.allocate(flat)
        if self._recipe is not None:
            self._recipe.append(Inputs(first, flat.size, flat))
        w_vars = np.arange(first, first + flat.size).reshape(
            op.weight_rows.shape
        )
        self._weight_var_cache[op.name] = w_vars
        return w_vars

    # -- elementwise layers -----------------------------------------------------------------

    def _compute_relu(self, cs, emitter, env, op: ReluOp):
        """One :meth:`GadgetEmitter.relu_rows` call for the whole layer."""
        x = env[op.inputs[0]]
        if not x.is_private:
            raise ValueError(f"relu input {op.inputs[0]!r} must be private")
        x_vars = x.flat_vars()
        is_final = op.name == self.program.output_name
        # Lookup mode: membership in the relu8 table replaces the sign
        # proof + select gadget.  A final-layer ReLU keeps the bits path:
        # its outputs are committed as public instance variables.
        if self.options.relu_mode == "lookup" and not is_final:
            out_vars = self._engine.lookup(
                get_table("relu"), x_vars, op.in_values, op.name
            )
        else:
            out_vars = emitter.relu_rows(
                np.arange(x_vars.size), x_vars,
                np.ones(x_vars.size, dtype=np.int64), op.in_values, op.bits,
                op.name, 0, public=is_final,
            )
        self._tensor_out(env, op, out_vars)
        return len(out_vars), len(out_vars)

    def _compute_maxpool(self, cs, emitter, env, op: MaxPoolOp):
        """Window maxima via chained ``max(a,b) = a + relu(b - a)`` gadgets.

        Each window costs ``k - 1`` comparison selects plus one equality
        binding the final maximum LC to a committed output wire (one
        :meth:`GadgetEmitter.commit_outputs` call) — the "higher cost"
        pooling the paper contrasts with average pooling.
        Each select is one :meth:`GadgetEmitter.relu_rows` call whose input
        is ``tap - best``, the running-maximum LC ``tap_0 + r_0 + ...``
        over the selects already emitted.
        """
        x = env[op.inputs[0]]
        if not x.is_private:
            raise ValueError(f"maxpool input {op.inputs[0]!r} must be private")
        is_final = op.name == self.program.output_name
        taps = op.window_positions.T - 1  # (window, tap)
        window_vars = x.flat_vars()[taps].tolist()
        tap_values = op.in_values[taps]
        best = np.maximum.accumulate(tap_values, axis=1)  # running maximum
        diffs = tap_values[:, 1:] - best[:, :-1]
        out_vars = []
        for w, (first, *rest) in enumerate(window_vars):
            best_lc = cs.lc_variable(first)
            for j, var in enumerate(rest):
                (r_var,) = emitter.relu_rows(
                    *lc_entries(cs.lc_variable(var) - best_lc),
                    diffs[w, j:j + 1], op.bits, op.name, -1,
                ).tolist()
                best_lc.add_term(r_var, 1)
            out_vars += emitter.commit_outputs(
                *lc_entries(best_lc), best[w, -1:], 0, 10, public=is_final,
                tag=op.name, first_index=w,
            ).tolist()
        self._tensor_out(env, op, out_vars)
        return (op.window_size - 1) * op.num_windows, op.num_windows

    def _compute_affine(self, cs, emitter, env, op: EwiseAffineOp):
        """``gamma * x + beta`` a layer at a time, one
        :meth:`GadgetEmitter.commit_outputs` call.

        Public parameters fold into each output's LC (``gamma`` on the
        wire, ``beta`` on ONE).  Private ones (or no privacy-adaptive
        folding) are committed once per distinct value and each product
        ``gamma * x`` gets a wire: one bulk allocation, one ``RowBlock`` of
        multiplications, then ``wire + beta`` is committed.
        """
        x = env[op.inputs[0]]
        is_final = op.name == self.program.output_name
        x_vars = x.flat_vars()
        size = op.acc_values.size
        slot = 8 + int(op.gamma.max()).bit_length() + 1
        counter = global_counter()
        if op.weights_private or not self.options.privacy_adaptive:
            gammas, gamma_of = _first_occurrence(op.gamma)
            betas, beta_of = _first_occurrence(op.beta)
            consts = np.concatenate([gammas, betas])
            first = cs.allocate(
                consts.tolist() + (op.gamma * x.flat_values()).tolist()
            )
            wires = first + consts.size + np.arange(size)
            if self._recipe is not None:
                self._recipe += [
                    Inputs(first, consts.size, consts),
                    product_step(
                        wires, ((first + gamma_of)[:, None], (1,)),
                        (x_vars[:, None], (1,)),
                    ),
                ]
            ranks = np.arange(size + 1)
            ones = np.ones(size, dtype=np.int64)
            p = cs.field.modulus
            cs.enforce_rows(RowBlock(
                RowSide.of(ranks, first + gamma_of, ones, p),
                RowSide.of(ranks, x_vars, ones, p),
                RowSide.of(ranks, wires, ones, p),
            ), f"{op.name}/mul")
            counter.field_mul += size
            counter.lc_term += size
            exprs = np.repeat(np.arange(size), 2)
            cols = np.stack(
                [first + gammas.size + beta_of, wires], axis=1
            ).reshape(-1)
            coeffs = np.ones(2 * size, dtype=np.int64)
            work = 2 * size
        else:
            terms = np.stack([op.beta, op.gamma], axis=1)  # ONE, then the wire
            live = terms != 0
            exprs = np.nonzero(live)[0]
            cols = np.stack([np.zeros_like(x_vars), x_vars], axis=1)[live]
            coeffs = terms[live]
            counter.lc_term += int(np.count_nonzero(op.beta))
            work = size
        out_vars = emitter.commit_outputs(
            exprs, cols, coeffs, op.acc_values, op.requant, slot,
            public=is_final, tag=op.name,
        )
        self._tensor_out(env, op, out_vars)
        return work, size

    # -- transformer layers ------------------------------------------------------------

    def _tensor_out(self, env, op, out_vars) -> None:
        env[op.output] = ZkTensor(
            op.out_values,
            Privacy.PRIVATE,
            stage="constraint",
            var_indices=np.asarray(out_vars, dtype=np.int64).reshape(
                op.out_values.shape
            ),
            name=op.name,
        )

    def _select(self, emitter, table, x_vars, x_values, tag, first_index=0):
        """The bits path's table lowering: one
        :meth:`GadgetEmitter.select_rows` call over the table's single
        output column; returns the output wires."""
        out_vars = emitter.select_rows(
            x_vars, x_values, table.domain_lo,
            np.asarray(table.entries)[:, None], tag, first_index,
        )
        # lc_terms counts the recomposition's term at x = 0 although the
        # row leaves out its zero coefficient: the frozen circuits pin it.
        if table.domain_lo <= 0 <= table.domain_hi:
            global_counter().lc_term += len(out_vars)
        return out_vars.reshape(-1)

    def _compute_lut(self, cs, emitter, env, op: ActLUTOp):
        """One :meth:`LookupEngine.lookup` (or one-hot selection) call for
        the whole layer."""
        x = env[op.inputs[0]]
        if not x.is_private:
            raise ValueError(f"lut input {op.inputs[0]!r} must be private")
        table = get_table(op.table_name)
        if self.options.relu_mode == "lookup":
            # LUT inputs are committed outputs, already range-proven in
            # strict mode — the pair packing is injective without a
            # per-lookup range proof.
            out_vars = self._engine.lookup(
                table, x.flat_vars(), op.in_values, op.name
            )
        else:
            out_vars = self._select(
                emitter, table, x.flat_vars(), op.in_values, op.name
            )
        self._tensor_out(env, op, out_vars)
        return len(out_vars), len(out_vars)

    def _compute_embed(self, cs, emitter, env, op: EmbedOp):
        """One :meth:`LookupEngine.lookup` call per output dimension, or
        one one-hot selection over the whole table."""
        ids_tensor = env[op.inputs[0]]
        if not ids_tensor.is_private:
            raise ValueError(f"embedding ids {op.inputs[0]!r} must be private")
        if self.program.weights_privacy.is_private:
            raise NotImplementedError(
                "private embedding tables are not supported — the table is "
                "folded into public lookup rows / selector coefficients"
            )
        id_vars = ids_tensor.flat_vars()
        vocab, d = op.table.shape
        if self.options.relu_mode == "lookup":
            # One table per output dimension; the id is a raw input wire,
            # so the engine range-proves it once (shared across all d
            # tables) to keep the packing injective.
            out_vars = np.stack([
                self._engine.lookup(
                    LookupTable(
                        name=f"{op.name}.d{j}",
                        domain_lo=0,
                        entries=tuple(op.table[:, j].tolist()),
                        y_bias=128,
                    ),
                    id_vars, op.ids, tag=op.name, input_ranged=False,
                    bits_cost=(vocab + 2) // d + 1,
                )
                for j in range(d)
            ], axis=1)
            work = id_vars.size * d
        else:
            # One-hot token selector shared across all d dimensions: the
            # output columns are linear in the indicators.
            out_vars = emitter.select_rows(id_vars, op.ids, 0, op.table, op.name)
            work = id_vars.size * (vocab + d)
        self._tensor_out(env, op, out_vars)
        return work, int(op.out_values.size)

    def _compute_matmul(self, cs, emitter, env, op: MatMulOp):
        """``a @ b`` of two private operands: a product wire per scalar
        product, each output summing its ``k`` wires — one
        :meth:`GadgetEmitter.commit_outputs` call for the layer."""
        a = env[op.inputs[0]]
        b = env[op.inputs[1]]
        if not (a.is_private and b.is_private):
            raise ValueError(f"matmul operands of {op.name!r} must be private")
        m, k, n = op.dims
        a_vars = a.flat_vars().reshape(op.a_shape)
        b_vars = b.flat_vars().reshape(op.b_shape)
        a_vals = a.flat_values().reshape(op.a_shape).astype(np.int64)
        b_vals = b.flat_values().reshape(op.b_shape).astype(np.int64)
        if not op.transpose_b:
            b_vars, b_vals = b_vars.T, b_vals.T  # (n, k)
        shape = (m, n, k)  # product (i, j, kk) = a[i, kk] * b[j, kk]
        size = m * n * k
        counter = global_counter()
        counter.field_mul += size  # each wire's value
        counter.lc_term += size  # each wire into its output
        # Operands are requantized activations (|.| < 2^9), so each
        # product fits 18 bits and the k-term sum 18 + log2(k).
        slot_bits = 18 + max(1, k - 1).bit_length()
        out_vars = emitter.commit_outputs(
            _NO_TERMS, _NO_TERMS, _NO_TERMS, op.acc_values, op.requant,
            slot_bits, public=op.name == self.program.output_name,
            tag=op.name,
            products=Products(
                np.repeat(np.arange(m * n), k),
                (np.broadcast_to(b_vars[None], shape).reshape(-1, 1), (1,)),
                (np.broadcast_to(a_vars[:, None], shape).reshape(-1, 1), (1,)),
                (a_vals[:, None] * b_vals[None]).reshape(-1),
                f"{op.name}/mul",
            ),
        )
        self._tensor_out(env, op, out_vars)
        return size, m * n

    def _compute_rowscale(self, cs, emitter, env, op: RowScaleOp):
        """``e * r[row]``: one product wire per element, each its own
        output's accumulator — one :meth:`GadgetEmitter.commit_outputs`
        call for the layer."""
        e = env[op.inputs[0]]
        r = env[op.inputs[1]]
        if not (e.is_private and r.is_private):
            raise ValueError(f"rowscale operands of {op.name!r} must be private")
        size = op.acc_values.size
        row = np.arange(size) // op.width
        global_counter().field_mul += size  # each wire's value
        # e is uint8, r a 15-bit fixed-point reciprocal: 23-bit product.
        out_vars = emitter.commit_outputs(
            _NO_TERMS, _NO_TERMS, _NO_TERMS, op.acc_values, op.requant, 23,
            public=op.name == self.program.output_name, tag=op.name,
            products=Products(
                np.arange(size), (r.flat_vars()[row, None], (1,)),
                (e.flat_vars()[:, None], (1,)),
                e.flat_values().astype(np.int64)
                * r.flat_values().astype(np.int64)[row],
                f"{op.name}/mul",
            ),
        )
        self._tensor_out(env, op, out_vars)
        return size, size

    def _compute_layernorm(self, cs, emitter, env, op: LayerNormOp):
        """Per row, three :meth:`GadgetEmitter.commit_outputs` calls: the
        mean, the variance over the ``d`` squares ``c * c`` of the centered
        values ``c = x - mean`` (LCs, never wires), and the ``d`` outputs,
        each over its product ``c * y`` with ``y = rsqrt(var)`` — looked up
        (or one-hot selected) between the last two."""
        x = env[op.inputs[0]]
        if not x.is_private:
            raise ValueError(f"layernorm input {op.inputs[0]!r} must be private")
        rows, d = op.in_values.shape
        x_vars = x.flat_vars().reshape(rows, d)
        x_vals = op.in_values.astype(np.int64)
        rsqrt = get_table("rsqrt")
        is_final = op.name == self.program.output_name
        counter = global_counter()
        mean_slot = 8 + max(1, d - 1).bit_length() + 1
        var_slot = 20 + max(1, d - 1).bit_length()
        out_vars = np.empty((rows, d), dtype=np.int64)
        for i in range(rows):
            counter.lc_term += 3 * d  # x into the mean; c's mean; c * c
            row_sum = int(x_vals[i].sum())
            (mean_var,) = emitter.commit_outputs(
                np.zeros(d, dtype=np.int64), x_vars[i],
                np.ones(d, dtype=np.int64), [row_sum], op.mean_shift,
                mean_slot, tag=f"{op.name}#mean", first_index=i,
            ).tolist()
            c = x_vals[i] - (row_sum >> op.mean_shift)
            centered = (
                np.stack([x_vars[i], np.full(d, mean_var)], axis=1), (1, -1)
            )
            var_sum = int((c * c).sum())
            (var_var,) = emitter.commit_outputs(
                _NO_TERMS, _NO_TERMS, _NO_TERMS, [var_sum],
                op.var_shift, var_slot, tag=f"{op.name}#var", first_index=i,
                products=Products(
                    np.zeros(d, dtype=np.int64), centered, centered, c * c,
                    f"{op.name}/sq",
                ),
            ).tolist()
            var_q = var_sum >> op.var_shift
            if self.options.relu_mode == "lookup":
                (y_var,) = self._engine.lookup(
                    rsqrt, [var_var], [var_q], tag=op.name, first_index=i,
                ).tolist()
            else:
                (y_var,) = self._select(
                    emitter, rsqrt, [var_var], [var_q], f"{op.name}#y", i,
                ).tolist()
            y = rsqrt.lookup(var_q)
            out_vars[i] = emitter.commit_outputs(
                _NO_TERMS, _NO_TERMS, _NO_TERMS, c * y, op.out_shift, 21,
                public=is_final, tag=f"{op.name}#out", first_index=i * d,
                products=Products(
                    np.arange(d), centered,
                    (np.full((d, 1), y_var), (1,)), c * y, f"{op.name}/prod",
                ),
            )
        self._tensor_out(env, op, out_vars.reshape(-1).tolist())
        return 2 * rows * d, rows * d

    def _compute_gather(self, env, op: GatherOp) -> None:
        srcs = [env[name] for name in op.inputs]
        if not any(t.is_private for t in srcs):
            env[op.output] = ZkTensor.public(op.out_values, name=op.name)
            return
        flats = [t.flat_vars() for t in srcs]
        out_vars = np.array(
            [int(flats[src][pos]) for src, pos in op.sources], dtype=np.int64
        )
        self._tensor_out(env, op, out_vars.tolist())

    def _compute_add(self, cs, emitter, env, op: AddOp):
        """``a + b`` a layer at a time, one
        :meth:`GadgetEmitter.commit_outputs` call."""
        pair = np.sort(np.stack(
            [env[op.inputs[0]].flat_vars(), env[op.inputs[1]].flat_vars()],
            axis=1,
        ), axis=1)
        once = pair[:, 0] != pair[:, 1]  # else one wire read twice: 2 * a
        live = np.stack([np.ones_like(once), once], axis=1)
        coeffs = np.stack(
            [np.where(once, 1, 2), np.ones(once.size, dtype=np.int64)], axis=1
        )
        counter = global_counter()
        counter.lc_term += once.size
        counter.field_add += once.size - int(np.count_nonzero(once))
        out_vars = emitter.commit_outputs(
            np.nonzero(live)[0], pair[live], coeffs[live], op.acc_values,
            op.requant, 10, public=op.name == self.program.output_name,
            tag=op.name,
        )
        self._tensor_out(env, op, out_vars)
        return once.size, once.size
