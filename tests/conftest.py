"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import random

import numpy as np
import pytest

from repro.core.circuit.gadgets import lc_entries
from repro.nn.data import synthetic_images
from repro.nn.graph import Model
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU
from repro.nn.models import calibrate
from repro.r1cs.lc import Digits


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA11CE)


@pytest.fixture
def nprng() -> np.random.Generator:
    return np.random.default_rng(7)


@contextlib.contextmanager
def no_derivation():
    """Inside the block, building a coefficient from its digits
    (:meth:`Digits.coefficients`) fails."""

    def refuse(digits):
        raise AssertionError("a coefficient was built from its digits")

    derive = Digits.coefficients
    Digits.coefficients = refuse
    try:
        yield
    finally:
        Digits.coefficients = derive


def tiny_image(shape=(1, 6, 6), seed: int = 1) -> np.ndarray:
    """A small deterministic uint8 image."""
    return synthetic_images(shape, n=1, seed=seed)[0]


def tiny_conv_model(seed: int = 0) -> Model:
    """Conv -> ReLU -> FC on a 6x6 grayscale input: exercises every gadget."""
    gen = np.random.default_rng(seed)
    model = Model("tiny", (1, 6, 6))
    weight = gen.integers(-7, 8, (2, 1, 3, 3)).astype(np.int64)
    model.add("conv", Conv2d(weight, gen.integers(-4, 5, 2).astype(np.int64)))
    model.add("relu", ReLU())
    model.add("flatten", Flatten())
    flat = model.shape_of("flatten")[0]
    fc_w = gen.integers(-7, 8, (3, flat)).astype(np.int64)
    model.add("fc", Linear(fc_w, gen.integers(-4, 5, 3).astype(np.int64)))
    return calibrate(model)


def relu_wire(em, in_var: int, value: int, bits: int = 16) -> int:
    """One wire through ``GadgetEmitter.relu_rows`` (tag ``relu``)."""
    return int(em.relu_rows(
        np.array([0]), np.array([in_var]), np.array([1]), [value], bits,
        "relu", -1,
    )[0])


def commit_lc(
    em, lc, acc: int, shift: int, slot_bits: int, public: bool = False,
    tag: str = "out", index: int = 0,
) -> int:
    """One accumulator LC through ``GadgetEmitter.commit_outputs``."""
    return int(em.commit_outputs(
        *lc_entries(lc), [acc], shift, slot_bits, public=public, tag=tag,
        first_index=index,
    )[0])


@pytest.fixture
def tiny_model() -> Model:
    return tiny_conv_model()


def tiny_proof_bytes() -> bytes:
    """Serialize one deterministic proof of the tiny conv model.

    Seeded setup and blinding make the bytes a stable function of the
    proving pipeline alone, so equality across runs asserts byte-identical
    proving (used by the cross-field-backend parity tests).
    """
    from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
    from repro.snark import groth16
    from repro.snark.serialize import serialize_proof

    compiler = ZenoCompiler(
        zeno_options(PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS)
    )
    artifact = compiler.compile_model(tiny_conv_model(), tiny_image())
    cs = artifact.cs
    setup = groth16.setup(cs, rng=random.Random(5))
    proof = groth16.prove(setup.proving_key, cs, rng=random.Random(6))
    assert groth16.verify(setup.verifying_key, cs.public_values(), proof)
    return serialize_proof(proof)
