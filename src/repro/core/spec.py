"""Circuit identity: the eight fields that decide which constraint system
a job proves, and the only code that checks them and turns them into a
model, a privacy setting, compiler options and a compile.

Every door into the prover — ``zeno compile|audit|prove|verify|serve|
submit``, a claim file, every serving ``submit`` (``JobEngine``,
``DurableCoordinator``, the gateway's ``/submit``), the worker ``spec``
dict, a cluster ``JOB`` frame, a journal submit record — carries these
fields as the same flat keys;
:meth:`CircuitSpec.from_mapping` reads them and :meth:`to_json` writes
them, so none of those formats has a field list of its own.  A spec is
checked when it is built, so a bad value is refused at the door, before
anything is journaled, queued or compiled.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping, Optional, Tuple

import numpy as np

from repro.core.circuit.compute import _CHOICES
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
from repro.nn.models import _SCALES, ALL_MODELS, build_model
from repro.nn.prune import PruneSpec


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

    def __post_init__(self) -> None:
        """Raises ``ValueError`` naming the field and the values it takes."""
        _check_choice("model", self.model, tuple(ALL_MODELS))
        _check_choice("scale", self.scale, tuple(_SCALES[self.model]))
        _check_choice("privacy", self.privacy, tuple(PrivacySetting.names()))
        _check_choice("gadgets", self.gadgets, _CHOICES["gadget_mode"])
        _check_choice("relu_mode", self.relu_mode, _CHOICES["relu_mode"])
        _check_choice("sparse", self.sparse, (False, True))
        _check_int("seed", self.seed)
        try:
            PruneSpec.parse(self.prune)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"prune={self.prune!r}: {exc}") from None

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
        _check_int("image_seed", image_seed)
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
        return BatchProver(self.build_model(), base_image, self.options())


@functools.lru_cache(maxsize=64)
def _input_shape(model: str, scale: str, seed: int) -> Tuple[int, ...]:
    return build_model(model, scale=scale, seed=seed).input_shape


def _check_choice(name: str, value: Any, allowed: Tuple) -> None:
    if value not in allowed:
        raise ValueError(f"{name}={value!r}: expected one of {allowed}")


def _check_int(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name}={value!r}: expected an integer")
