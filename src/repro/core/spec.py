"""Circuit identity: the eight fields that decide which constraint system
a job proves, and the only code that turns them into a model, a privacy
setting, compiler options and a compile.

Every door into the prover — ``zeno compile|audit|prove|verify``, a claim
file, a :class:`~repro.serve.jobs.ProofJob`, the worker ``spec`` dict, a
cluster ``SUBMIT``/``JOB`` frame — carries these fields as the same flat
keys; :meth:`CircuitSpec.from_mapping` reads them and :meth:`to_json`
writes them, so none of those formats has a field list of its own.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping, Optional, Tuple

import numpy as np

from repro.core.compiler import (
    CompileArtifact,
    CompilerOptions,
    PrivacySetting,
    ZenoCompiler,
    zeno_options,
)
from repro.core.reuse.batch import BatchProver
from repro.nn.data import synthetic_images
from repro.nn.graph import Model
from repro.nn.models import build_model


@dataclass(frozen=True)
class CircuitSpec:
    """Hashable: equal specs compile to the same constraint system, so it
    is the batch key, the warm-cache key and the claim's circuit half."""

    model: str  # Table-4 abbreviation, e.g. "SHAL"
    scale: str = "mini"
    seed: int = 0  # weight seed (fixes the network)
    prune: Optional[str] = None  # "S[,U]" magnitude-pruning fractions
    privacy: str = "one-private"  # a key of PrivacySetting.names()
    gadgets: str = "lean"  # "lean" (paper accounting) | "strict" (sound)
    relu_mode: str = "bits"  # "bits" | "lookup"
    sparse: bool = False

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "CircuitSpec":
        """From flat keys; an absent or ``None`` field takes its default
        (older claims lack ``relu_mode``/``sparse``; unset CLI flags are
        ``None``).  Other keys in ``mapping`` are ignored."""
        return cls(**{
            f.name: mapping[f.name]
            for f in fields(cls)
            if mapping.get(f.name) is not None
        })

    def to_json(self) -> dict:
        return asdict(self)

    def build_model(self) -> Model:
        return build_model(
            self.model, scale=self.scale, seed=self.seed, prune=self.prune
        )

    def image(self, image_seed: int) -> np.ndarray:
        """The deterministic synthetic input ``image_seed`` names."""
        shape = _input_shape(self.model, self.scale, self.seed)
        return synthetic_images(shape, n=1, seed=image_seed)[0]

    def options(self, **overrides) -> CompilerOptions:
        return zeno_options(
            PrivacySetting.names()[self.privacy],
            gadget_mode=self.gadgets,
            relu_mode=self.relu_mode,
            sparse=self.sparse,
            **overrides,
        )

    def compile(self, image: np.ndarray, **overrides) -> CompileArtifact:
        """One-shot compile (``overrides`` are :class:`CompilerOptions`
        fields that do not change the constraint system, e.g. ``audit``)."""
        return ZenoCompiler(self.options(**overrides)).compile_model(
            self.build_model(), image
        )

    def batch_prover(self, base_image: np.ndarray) -> BatchProver:
        """The same constraint system, compiled for §6.1 witness replay."""
        options = self.options()
        return BatchProver(
            self.build_model(),
            base_image,
            image_privacy=options.privacy.image_privacy,
            weights_privacy=options.privacy.weights_privacy,
            options=options.compute_options(),
        )


@functools.lru_cache(maxsize=64)
def _input_shape(model: str, scale: str, seed: int) -> Tuple[int, ...]:
    return build_model(model, scale=scale, seed=seed).input_shape
