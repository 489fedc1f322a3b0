"""The ZENO compiler driver: model + privacy -> circuit -> proof.

Bundles every optimization behind :class:`CompilerOptions` toggles so the
benchmark harness can ablate each contribution exactly as the paper's
figures do:

* ``arkworks_options()`` — the baseline profile: scalar arithmetic circuit,
  no knit, no cache, no fusion, single-threaded circuit computation;
* ``zeno_options()``     — everything on (ZENO circuit, knit, cache,
  fusion, 16-worker scheduler).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.circuit.compute import (
    CircuitComputer,
    ComputeOptions,
    ComputeResult,
    GenerateResult,
    SparsityReport,
)
from repro.core.fusion.fuse import fuse_model
from repro.core.lang.program import ZkProgram, program_from_model
from repro.core.lang.types import Privacy
from repro.core.metrics import CostModel, PhaseTimer
from repro.core.pipeline import PhaseReport, ProveReport
from repro.core.reuse.cache import CacheService
from repro.core.schedule.scheduler import ParallelSchedule, WorkloadScheduler
from repro.core.schedule.simclock import simulate_parallel_time
from repro.ec.backend import GroupBackend, SimulatedBackend
from repro.field import signed
from repro.nn.graph import Model
from repro.snark import groth16
from repro.snark.backends import SECURITY_BACKENDS


class PrivacySetting(enum.Enum):
    """The privacy configurations of the paper's evaluation (§7.1)."""

    PRIVATE_IMAGE_PUBLIC_WEIGHTS = "private_image_public_weights"
    PRIVATE_IMAGE_PRIVATE_WEIGHTS = "private_image_private_weights"
    PUBLIC_IMAGE_PRIVATE_WEIGHTS = "public_image_private_weights"

    @classmethod
    def names(cls) -> Dict[str, "PrivacySetting"]:
        """The ``--privacy`` / job-spec spelling of each servable setting."""
        return {
            "one-private": cls.PRIVATE_IMAGE_PUBLIC_WEIGHTS,
            "both-private": cls.PRIVATE_IMAGE_PRIVATE_WEIGHTS,
        }

    @property
    def image_privacy(self) -> Privacy:
        if self is PrivacySetting.PUBLIC_IMAGE_PRIVATE_WEIGHTS:
            return Privacy.PUBLIC
        return Privacy.PRIVATE

    @property
    def weights_privacy(self) -> Privacy:
        if self is PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS:
            return Privacy.PUBLIC
        return Privacy.PRIVATE

    @property
    def one_private(self) -> bool:
        return self is not PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS


@dataclass
class CompilerOptions:
    """Every ZENO optimization as an independent toggle."""

    privacy: PrivacySetting = PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS
    zeno_circuit: bool = True  # §5.1 ZENO circuit vs baseline arithmetic circuit
    privacy_adaptive: bool = True  # §4.1 Eq. 3 folding (off = naive Eq. 2)
    knit: bool = True  # §4.2 knit encoding (auto batch size)
    knit_batch: Optional[int] = None  # force a batch size (ablation)
    cache: bool = True  # §6.1 frequency-based cache service
    cache_capacity: int = 4096
    fusion: bool = True  # §6.2 zkSNARK-aware NN fusion
    scheduler_workers: int = 16  # §5.2 parallel scheduler (1 = sequential)
    gadget_mode: str = "lean"  # "lean" (paper accounting) | "strict" (sound)
    relu_bits: int = 16
    # Nonlinearity lowering: "bits" (sign/bit gadgets + one-hot selectors)
    # or "lookup" (repro.lookup LogUp argument, ARCHITECTURE §13).
    # Transformer LUT/LayerNorm/embedding layers honor the same knob.
    relu_mode: str = "bits"
    record_recipe: bool = False
    # Sparsity-aware compilation (public weights only): account the
    # zero-weight terms the lowering masks out and — with sparse_share —
    # deduplicate structurally identical gadget emissions (pruned filter
    # rows collapse to one sub-circuit).  See ComputeOptions.sparse.
    sparse: bool = False
    sparse_share: bool = True
    # Post-compile soundness audit (repro.analysis): "off", "report"
    # (attach an AuditReport to the artifact), or "enforce" (additionally
    # raise CircuitAuditError on ERROR-severity findings).
    audit: str = "off"
    security_profile: str = "zeno"  # backend profile for modeled security cost
    name: str = "zeno"

    def compute_options(self) -> ComputeOptions:
        return ComputeOptions(
            zeno_circuit=self.zeno_circuit,
            privacy_adaptive=self.privacy_adaptive,
            knit=self.knit,
            knit_batch=self.knit_batch,
            cache=CacheService(self.cache_capacity) if self.cache else None,
            gadget_mode=self.gadget_mode,
            relu_bits=self.relu_bits,
            relu_mode=self.relu_mode,
            # The auditor seeds its determinism check from the witness
            # recipe (free inputs), so auditing implies recording one.
            record_recipe=self.record_recipe or self.audit != "off",
            sparse=self.sparse,
            sparse_share=self.sparse_share,
        )


def zeno_options(
    privacy: PrivacySetting = PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS,
    **overrides,
) -> CompilerOptions:
    """All ZENO optimizations enabled."""
    return replace(CompilerOptions(privacy=privacy, name="zeno"), **overrides)


def arkworks_options(
    privacy: PrivacySetting = PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS,
    **overrides,
) -> CompilerOptions:
    """The Arkworks-style baseline: scalar circuit, no ZENO optimizations."""
    base = CompilerOptions(
        privacy=privacy,
        zeno_circuit=False,
        knit=False,
        cache=False,
        fusion=False,
        scheduler_workers=1,
        security_profile="arkworks",
        name="arkworks",
    )
    return replace(base, **overrides)


def naive_options(
    privacy: PrivacySetting = PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS,
    **overrides,
) -> CompilerOptions:
    """§4.1's strawman: ignore privacy types entirely.

    Generates one constraint for every multiplication even when one operand
    is public — the "naive implementation" the paper motivates
    privacy-adaptive generation against.  Used by the ablation benchmarks;
    the measured Arkworks baseline (``arkworks_options``) keeps coefficient
    folding, which Arkworks' LC mechanics perform natively.
    """
    base = arkworks_options(privacy, **overrides)
    return replace(base, privacy_adaptive=False, name="naive")


@dataclass
class CompileArtifact:
    """Everything produced by one compilation."""

    model: Model
    program: ZkProgram
    options: CompilerOptions
    generate: GenerateResult
    compute: ComputeResult
    schedule: Optional[ParallelSchedule]
    parallel_circuit_time: float
    cache: Optional[CacheService] = None  # live frequency cache, if enabled
    audit: Optional[object] = None  # AuditReport when options.audit != "off"

    @property
    def cs(self):
        return self.compute.cs

    @property
    def num_constraints(self) -> int:
        return self.compute.cs.num_constraints

    @property
    def num_variables(self) -> int:
        return self.compute.cs.num_variables

    @property
    def sparsity(self):
        """The compilation's :class:`SparsityReport`, or None when dense."""
        return self.compute.sparsity

    @property
    def lookup(self):
        """The compilation's :class:`~repro.lookup.LookupReport`, or None."""
        return self.compute.lookup

    @property
    def circuit_time(self) -> float:
        """Circuit-computation latency after the parallel scheduler."""
        return self.parallel_circuit_time

    def public_inputs(self):
        return self.cs.public_values()

    def public_outputs_signed(self):
        """Public values decoded back to signed NN space (logits)."""
        p = self.cs.field.modulus
        return [signed(v, p) for v in self.cs.public_values()]

    def split(self, mode: str = "public", num_segments: Optional[int] = None):
        """Split this compilation into per-layer Groth16 instances.

        Returns a :class:`repro.aggregate.SplitModel` (see ARCHITECTURE
        §11); ``num_segments`` caps the instance count by merging
        consecutive layer slices into balanced contiguous groups.
        """
        from repro.aggregate import split_model

        return split_model(self.cs, mode=mode, num_segments=num_segments)


def lower_program(
    program: ZkProgram, options: ComputeOptions
) -> Tuple[GenerateResult, ComputeResult]:
    """Generate + Circuit Computation: a typed program -> constraint system."""
    computer = CircuitComputer(program, options)
    return computer.generate(), computer.compute()


def compile_circuit(
    model: Model,
    image: np.ndarray,
    image_privacy: Privacy,
    weights_privacy: Privacy,
    options: ComputeOptions,
    fusion: bool = True,
) -> Tuple[Model, ZkProgram, GenerateResult, ComputeResult]:
    """The one path from a model to its constraint system: §6.2 fusion,
    typed program, :func:`lower_program`.  :class:`ZenoCompiler` and
    :class:`~repro.core.reuse.batch.BatchProver` both compile through
    here, so a circuit is the same circuit whichever door it came in by.
    Returns the (fused) model actually lowered alongside its program.
    """
    if fusion:
        model = fuse_model(model)
    program = program_from_model(
        model, image, image_privacy, weights_privacy,
        relu_bits=options.relu_bits,
    )
    return (model, program, *lower_program(program, options))


class ZenoCompiler:
    """Compiles models (or raw programs) and generates proofs."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions()

    # -- compilation ----------------------------------------------------------------

    def compile_model(self, model: Model, image: np.ndarray) -> CompileArtifact:
        opts = self.options
        compute_opts = opts.compute_options()
        return self._artifact(
            compute_opts,
            *compile_circuit(
                model, image, opts.privacy.image_privacy,
                opts.privacy.weights_privacy, compute_opts, opts.fusion,
            ),
        )

    def compile_program(
        self, program: ZkProgram, model: Optional[Model] = None
    ) -> CompileArtifact:
        compute_opts = self.options.compute_options()
        return self._artifact(
            compute_opts, model, program, *lower_program(program, compute_opts)
        )

    def _artifact(
        self, compute_opts, model, program, generated, computed
    ) -> CompileArtifact:
        opts = self.options
        schedule = None
        parallel_time = computed.wall_time
        if opts.scheduler_workers > 1:
            scheduler = WorkloadScheduler(opts.scheduler_workers)
            schedule = scheduler.schedule(computed.layer_work)
            parallel_time = simulate_parallel_time(schedule, computed.layer_work)

        artifact = CompileArtifact(
            model=model,
            program=program,
            options=opts,
            generate=generated,
            compute=computed,
            schedule=schedule,
            parallel_circuit_time=parallel_time,
            cache=compute_opts.cache,
        )
        if opts.audit != "off":
            artifact.audit = self._audit(artifact, enforce=opts.audit == "enforce")
        return artifact

    def _audit(self, artifact: CompileArtifact, enforce: bool):
        from repro.analysis import (
            CircuitAuditError,
            assume_from_recipe,
            audit_system,
        )

        report = audit_system(
            artifact.cs, assume=assume_from_recipe(artifact.compute.recipe)
        )
        if enforce and not report.ok:
            raise CircuitAuditError(report)
        return report

    # -- proving ---------------------------------------------------------------------

    def prove(
        self,
        artifact: CompileArtifact,
        backend: Optional[GroupBackend] = None,
        rng: Optional[random.Random] = None,
        verify: bool = True,
    ) -> ProveReport:
        """Run actual Groth16 setup/prove/verify and report measured times."""
        backend = backend or SimulatedBackend()
        rng = rng or random.Random(0xC0FFEE)
        report = self._base_report(artifact)

        with PhaseTimer("setup") as setup_timer:
            setup_result = groth16.setup(artifact.cs, backend, rng)

        with PhaseTimer("security_computation") as prove_timer:
            proof = groth16.prove(
                setup_result.proving_key, artifact.cs, backend, rng
            )

        report.phases["security_computation"] = PhaseReport(
            name="security_computation",
            wall_time=prove_timer.elapsed,
            counts={"setup_time": setup_timer.elapsed},
        )
        if verify:
            report.verified = groth16.verify(
                setup_result.verifying_key,
                artifact.public_inputs(),
                proof,
                backend,
            )
        return report

    def report(
        self, artifact: CompileArtifact, cost_model: Optional[CostModel] = None
    ) -> ProveReport:
        """Measured front-end phases + cost-modeled security phase."""
        cost_model = cost_model or CostModel()
        report = self._base_report(artifact)
        profile = SECURITY_BACKENDS[self.options.security_profile]
        report.phases["security_computation"] = PhaseReport(
            name="security_computation",
            modeled_time=cost_model.security_seconds(
                artifact.num_variables, artifact.num_constraints, profile
            ),
            counts={
                "num_constraints": artifact.num_constraints,
                "num_variables": artifact.num_variables,
            },
        )
        return report

    # -- internals -----------------------------------------------------------------------

    def _base_report(self, artifact: CompileArtifact) -> ProveReport:
        opts = self.options
        report = ProveReport(
            model_name=artifact.program.name,
            privacy=opts.privacy.value,
            optimization_profile=opts.name,
            num_constraints=artifact.num_constraints,
            num_variables=artifact.num_variables,
            num_gates=artifact.generate.num_gates,
        )
        report.phases["generate"] = PhaseReport(
            name="generate",
            wall_time=artifact.generate.wall_time,
            counts={
                "mul_gates": artifact.generate.num_mul_gates,
                "add_gates": artifact.generate.num_add_gates,
                "critical_path": artifact.generate.critical_path,
            },
        )
        counts = {
            "lc_terms": artifact.compute.lc_terms,
            "sequential_time": artifact.compute.wall_time,
        }
        if artifact.schedule is not None:
            counts["scheduler_speedup"] = artifact.schedule.speedup()
        report.phases["circuit_computation"] = PhaseReport(
            name="circuit_computation",
            wall_time=artifact.parallel_circuit_time,
            counts=counts,
        )
        if artifact.audit is not None:
            audit_counts = {
                severity: float(count)
                for severity, count in artifact.audit.counts().items()
            }
            report.phases["audit"] = PhaseReport(
                name="audit",
                wall_time=sum(artifact.audit.sections.values()),
                counts=audit_counts,
            )
        return report
