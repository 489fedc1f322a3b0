#!/usr/bin/env python
"""Quickstart: prove one zkSNARK NN inference with ZENO.

Compiles a small LeNet on a synthetic CIFAR-like image, generates a real
Groth16 proof (on the fast exponent-simulated group by default), verifies
it, and prints where the ZENO optimizations saved work compared with the
Arkworks-style baseline.

Run:
    python examples/quickstart.py           # fast simulated group
    python examples/quickstart.py --real    # genuine BN254 pairing (~3 s)
"""

import argparse
import sys

try:
    import repro  # noqa: F401  (installed, or PYTHONPATH already set)
except ModuleNotFoundError:  # fresh checkout: fall back to <repo>/src
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import (
    RealBN254Backend,
    SimulatedBackend,
    ZenoCompiler,
    arkworks_options,
    build_model,
    zeno_options,
)
from repro.nn.data import synthetic_images


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--real",
        action="store_true",
        help="prove on the genuine BN254 curve (slower, real pairings)",
    )
    parser.add_argument("--model", default="LCS", help="model abbreviation")
    args = parser.parse_args(argv)

    # 1. A quantized NN and an input image (synthetic stand-in for CIFAR-10).
    model = build_model(args.model, scale="mini")
    image = synthetic_images(model.input_shape, n=1, seed=42)[0]
    print(f"model: {model}")
    print(f"plaintext prediction: class {model.predict(image)}")

    # 2. Compile with all ZENO optimizations (private image, public weights).
    compiler = ZenoCompiler(zeno_options())
    artifact = compiler.compile_model(model, image)
    print(
        f"\nZENO circuit: {artifact.generate.num_gates} gates, "
        f"{artifact.num_constraints} constraints, "
        f"{artifact.num_variables} variables"
    )

    # 3. Prove and verify with Groth16.
    backend = RealBN254Backend() if args.real else SimulatedBackend()
    report = compiler.prove(artifact, backend=backend)
    setup_s = report.phases["security_computation"].counts["setup_time"]
    print(f"set-up (CRS): {setup_s:.3f} s")
    print(f"proof verified: {report.verified}  (backend: {backend.name})")
    assert report.verified

    # The verifier learns only the logits — never the image pixels.
    print(f"public logits: {artifact.public_outputs_signed()}")

    # 4. Compare against the Arkworks-style baseline compilation.
    baseline = ZenoCompiler(arkworks_options())
    base_artifact = baseline.compile_model(model, image)
    print(
        f"\nbaseline: {base_artifact.generate.num_gates} gates, "
        f"{base_artifact.num_constraints} constraints"
    )
    print(
        f"ZENO savings: {base_artifact.generate.num_gates / artifact.generate.num_gates:.2f}x gates, "
        f"{base_artifact.num_constraints / artifact.num_constraints:.2f}x constraints, "
        f"{base_artifact.compute.wall_time / artifact.circuit_time:.1f}x circuit-computation latency"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
