"""ZENO reproduction: type-based optimization for zkSNARK NN inference.

Python reproduction of "ZENO: A Type-based Optimization Framework for Zero
Knowledge Neural Network Inference" (ASPLOS 2024).  See DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro import build_model, ZenoCompiler, zeno_options, synthetic_mnist

    model = build_model("SHAL", scale="mini")
    image = synthetic_mnist(1).images[0][:, ::2, ::2]  # 14x14 mini input
    compiler = ZenoCompiler(zeno_options())
    artifact = compiler.compile_model(model, image)
    report = compiler.prove(artifact)       # real Groth16 on the fast backend
    assert report.verified
"""

from repro.core.compiler import (
    CompilerOptions,
    PrivacySetting,
    ZenoCompiler,
    arkworks_options,
    zeno_options,
)
from repro.core.accuracy import AccuracyProver, AccuracyVerifier
from repro.core.lang.primitives import ProgramBuilder
from repro.core.lang.types import Privacy
from repro.core.metrics import CostModel
from repro.core.reuse.batch import BatchProver
from repro.ec.backend import RealBN254Backend, SimulatedBackend
from repro.nn.data import synthetic_cifar10, synthetic_mnist
from repro.nn.models import MODEL_INFO, build_model, model_table
from repro.r1cs.export import export_system, import_system
from repro.snark.groth16 import batch_verify
from repro.snark.serialize import deserialize_proof, serialize_proof

__version__ = "1.0.0"

__all__ = [
    "AccuracyProver",
    "AccuracyVerifier",
    "CompilerOptions",
    "PrivacySetting",
    "ZenoCompiler",
    "arkworks_options",
    "zeno_options",
    "ProgramBuilder",
    "Privacy",
    "CostModel",
    "BatchProver",
    "RealBN254Backend",
    "SimulatedBackend",
    "synthetic_mnist",
    "synthetic_cifar10",
    "MODEL_INFO",
    "build_model",
    "model_table",
    "batch_verify",
    "export_system",
    "import_system",
    "serialize_proof",
    "deserialize_proof",
]
