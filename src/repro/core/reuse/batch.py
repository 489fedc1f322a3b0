"""Batch-specialized constraint-system sharing (§6.1).

"The constraint system is a description of the zkSNARK NN computation ...
the same computation applies to each image such that the constraint system
can be shared."  ZENO's batch mode runs Generate and Circuit Computation
**once**, then for each image only re-assigns witness values before
security computation — exactly the paper's design (ZEN's n=100 accuracy
scheme is the canonical workload, Fig. 14).

Re-assignment is driven by the *witness recipe* recorded during circuit
computation (:mod:`repro.r1cs.recipe`): one step per emitter call, holding
the call's input LCs and the emitter's own value function.  Re-proving a
new image writes the image and replays the steps in order over a signed
mirror of the witness, then the LogUp columns — no plaintext forward pass,
no gates, no constraint emission.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.lookup import reassign_lookup_columns
from repro.nn.graph import Model
from repro.r1cs import recipe

if TYPE_CHECKING:
    from repro.core.compiler import CompilerOptions


@dataclass
class BatchStats:
    """Timing ledger comparing shared vs per-image compilation."""

    generate_time: float = 0.0
    circuit_time: float = 0.0
    setup_time: float = 0.0  # one-time Groth16 setup (warm_setup)
    assign_times: List[float] = field(default_factory=list)

    def shared_total(self) -> float:
        """Compilation cost with sharing: compile once + assign per image."""
        return self.generate_time + self.circuit_time + sum(self.assign_times)

    def unshared_total(self) -> float:
        """Compilation cost without sharing: compile every image."""
        n = max(len(self.assign_times), 1)
        return (self.generate_time + self.circuit_time) * n


class BatchProver:
    """Compile once, re-assign witnesses per image."""

    def __init__(
        self,
        model: Model,
        base_image: np.ndarray,
        options: Optional[CompilerOptions] = None,
    ) -> None:
        # Deferred: repro.core.circuit.compute imports this package for the
        # cache.
        from repro.core.compiler import CompilerOptions, ZenoCompiler

        options = options or CompilerOptions()
        if not options.privacy.image_privacy.is_private:
            raise ValueError(
                "batch witness replay needs a private image: a public one is "
                "folded into the rows as coefficients, so each image needs "
                "its own constraint system"
            )
        self.options = replace(options, record_recipe=True)
        # The artifact's model is the fused one: the recipe names its layers.
        self.artifact = ZenoCompiler(self.options).compile_model(
            model, base_image
        )
        self.model = self.artifact.model
        self.stats = BatchStats(
            generate_time=self.artifact.generate.wall_time,
            circuit_time=self.result.wall_time,
        )
        self._setup = None
        self._mirror = recipe.mirror(self.cs)

    @property
    def result(self):
        """The shared compile's ``ComputeResult`` (rows and recipe)."""
        return self.artifact.compute

    @property
    def cs(self):
        return self.result.cs

    # -- serving-path hooks -----------------------------------------------------------

    def warm_setup(self, backend=None, rng=None, precompute=True):
        """Run Groth16 setup once for the shared constraint system.

        The serving worker pool (:mod:`repro.serve.workers`) keeps one
        ``BatchProver`` warm per circuit; the setup — by far the
        most expensive per-key cost — is cached here so every subsequent
        job pays only assign + prove.

        With ``precompute`` (the default), the key's fixed-base tables
        (:class:`repro.snark.keys.ProvingKeyTables`: the h query and the
        two delta points — the parts of a proof whose scalars are uniform
        field elements) are built alongside the setup and attached to the
        proving key, so every proof of the session reuses them.
        """
        if self._setup is None:
            from repro.ec.backend import SimulatedBackend
            from repro.snark import groth16
            from repro.snark.keys import precompute_proving_tables

            backend = backend or SimulatedBackend()
            start = time.perf_counter()
            self._setup = groth16.setup(self.cs, backend, rng)
            if precompute:
                precompute_proving_tables(self._setup.proving_key, backend)
            self.stats.setup_time = time.perf_counter() - start
        return self._setup

    @property
    def tables(self):
        """Fixed-base CRS tables built by :meth:`warm_setup` (or ``None``)."""
        return self._setup.proving_key.tables if self._setup else None

    def prove(
        self,
        image: Optional[np.ndarray] = None,
        backend=None,
        rng=None,
        phase_sink: Optional[Dict[str, float]] = None,
    ):
        """Prove the current witness (re-assigning ``image`` first if given).

        Bundles the whole warm path: cached setup + fixed-base tables from
        :meth:`warm_setup`, witness re-assignment via the recipe, and
        :func:`repro.snark.groth16.prove` — the shared CSR structure is
        reused across images automatically (``to_csr`` only refreshes the
        dense ``z``).  ``phase_sink`` accumulates per-phase prover seconds
        across calls.
        """
        from repro.ec.backend import SimulatedBackend
        from repro.snark import groth16

        backend = backend or SimulatedBackend()
        setup = self.warm_setup(backend)
        if image is not None:
            self.assign_image(image)
        return groth16.prove(
            setup.proving_key, self.cs, backend, rng, phase_sink=phase_sink
        )

    # -- per-image witness assignment -------------------------------------------------

    def assign_image(self, image: np.ndarray) -> None:
        """Re-assign every variable for ``image``: write the image's run,
        replay the recipe's steps in order over the witness replayed so
        far, then the LogUp columns.  A value outside a strict range or a
        table raises, naming its gadget's ``tag[index]``, and leaves the
        system as it was."""
        start = time.perf_counter()
        image = np.asarray(image)
        if image.shape != tuple(self.model.input_shape):
            raise ValueError(
                f"{self.model.name} expects input {self.model.input_shape}, "
                f"got {image.shape}"
            )
        z, head = self._mirror, self.result.recipe[0]  # the image, first
        z[head.first:head.first + head.count] = image.reshape(-1)
        recipe.replay(self.cs, self.result.recipe, z)
        reassign_lookup_columns(self.cs)
        self.stats.assign_times.append(time.perf_counter() - start)
