"""Witness replay (§6.1) runs the emitters' own value functions.

``BatchProver.assign_image`` against the per-variable interpreter it
replaced (``tests/replay_oracle.py``) and against a fresh compile of the
same image: the replayed witness equals both, on three images each, for
the four frozen ``*-replayed`` circuits, a max-pool model (lean and
strict) and a model whose batch-norm fusion cannot fold (its affine
products under private weights).  Also: a replay re-checks the strict
ranges, a public image is refused, and the recipe's steps hold each
variable once.
"""

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, PrivacySetting, ZenoCompiler
from repro.core.lang.program import program_from_model
from repro.core.lang.types import Privacy
from repro.core.reuse.batch import BatchProver
from repro.core.spec import CircuitSpec
from repro.nn.graph import Model
from repro.nn.layers import BatchNorm, Conv2d, Flatten, Linear, ReLU
from repro.nn.models import calibrate
from repro.r1cs.recipe import group_sums
from tests import replay_oracle
from tests.conftest import tiny_conv_model, tiny_image
from tests.test_maxpool import maxpool_model

SPECS = {
    "SHAL-micro": CircuitSpec("SHAL", scale="micro"),
    "TINY-micro-strict-lookup": CircuitSpec(
        "TINY", scale="micro", gadgets="strict", relu_mode="lookup"
    ),
    "TINY-micro-strict-bits": CircuitSpec(
        "TINY", scale="micro", gadgets="strict", relu_mode="bits"
    ),
    "SHAL-micro-both-private-strict": CircuitSpec(
        "SHAL", scale="micro", privacy="both-private", gadgets="strict"
    ),
}


def unfused_bn_model(seed=0):
    """conv -> ReLU -> batch-norm -> fc: a batch-norm after a ReLU has no
    producer to fold into, so it stays an affine layer."""
    gen = np.random.default_rng(seed)
    model = Model("bnnet", (1, 6, 6))
    weight = gen.integers(-5, 6, (2, 1, 3, 3)).astype(np.int64)
    model.add("conv", Conv2d(weight))
    model.add("relu", ReLU())
    model.add("bn", BatchNorm(
        gen.integers(1, 4, 2).astype(np.int64),
        gen.integers(-6, 7, 2).astype(np.int64),
    ))
    model.add("flatten", Flatten())
    flat = model.shape_of("flatten")[0]
    model.add("fc", Linear(gen.integers(-5, 6, (3, flat)).astype(np.int64)))
    return calibrate(model)


def assert_replays(model, prover, images):
    """Each image's replayed witness is a fresh compile's and the old
    interpreter's."""
    for image in images:
        prover.assign_image(image)
        replayed = list(prover.cs.dense_assignment())
        fresh = ZenoCompiler(prover.options).compile_model(model, image)
        assert replayed == fresh.cs.dense_assignment()
        replay_oracle.assign_image(prover, image)
        assert prover.cs.dense_assignment() == replayed


@pytest.mark.parametrize("name", sorted(SPECS))
def test_replayed_circuits(name):
    spec = SPECS[name]
    prover = spec.batch_prover(spec.image(11))
    assert_replays(
        spec.build_model(), prover, [spec.image(s) for s in (12, 13, 14)]
    )


@pytest.mark.parametrize("mode", ["lean", "strict"])
def test_maxpool(mode):
    model = maxpool_model()
    prover = BatchProver(
        model, tiny_image(seed=1), options=CompilerOptions(gadget_mode=mode)
    )
    assert_replays(model, prover, [tiny_image(seed=s) for s in (2, 3, 4)])


def test_unfused_batch_norm_products():
    model = unfused_bn_model()
    prover = BatchProver(
        model, tiny_image(seed=1), options=CompilerOptions(
            privacy=PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS,
            gadget_mode="strict",
        ),
    )
    program = program_from_model(
        prover.model, tiny_image(seed=1), Privacy.PRIVATE, Privacy.PRIVATE
    )
    names = replay_oracle.named(prover.result.recipe, program).values()
    assert ("affine_wire", "bn", 0) in names  # not folded: its products
    assert_replays(model, prover, [tiny_image(seed=s) for s in (2, 3, 4)])


def test_replay_rechecks_strict_ranges():
    """An output below its range proof — which the model's own forward
    pass accepts, the ReLU clamping it to zero — raises at replay, naming
    it, and leaves the system at the last image."""
    model = tiny_conv_model()
    prover = BatchProver(
        model, tiny_image(seed=1), options=CompilerOptions(gadget_mode="strict")
    )
    before = list(prover.cs.dense_assignment())
    image = tiny_image(seed=2).copy()
    image[0, 2, 1] = 1000
    model.forward(image)
    with pytest.raises(ValueError, match=r"output conv\[0\] = -294 is outside"):
        prover.assign_image(image)
    assert prover.cs.dense_assignment() == before


def test_public_image_is_refused():
    """A public image is folded into the rows as coefficients: replaying a
    new one would prove the old image's rows."""
    spec = SPECS["SHAL-micro"]
    with pytest.raises(ValueError, match="private image"):
        BatchProver(
            spec.build_model(), spec.image(11), options=CompilerOptions(
                privacy=PrivacySetting.PUBLIC_IMAGE_PRIVATE_WEIGHTS
            ),
        )


def test_options_are_not_mutated():
    """The recipe is recorded on the prover's own copy of the options (the
    ``ComputeOptions`` spelling is the one benchmarks/e2e builds with)."""
    from repro.core.circuit.compute import ComputeOptions

    options = ComputeOptions()
    prover = BatchProver(tiny_conv_model(), tiny_image(seed=1), options=options)
    assert options.record_recipe is False
    assert prover.options.record_recipe is True


def test_wrong_image_shape_is_refused():
    prover = BatchProver(tiny_conv_model(), tiny_image(seed=1))
    with pytest.raises(ValueError, match="expects input"):
        prover.assign_image(np.zeros((1, 5, 5), dtype=np.int64))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_steps_hold_each_variable_once(name):
    spec = SPECS[name]
    prover = spec.batch_prover(spec.image(11))
    held = np.concatenate(
        [step.variables() for step in prover.result.recipe]
    )
    cs = prover.cs
    assert np.array_equal(
        np.sort(held),
        np.concatenate([-np.arange(cs.num_public, 0, -1),
                        np.arange(1, cs.num_private + 1)]),
    )


def test_group_sums_are_exact():
    """A wrapped int64 prefix sum still gives exact group sums; object
    terms (``_dot_linear``'s exact path) stay exact."""
    groups = np.array([0, 1, 1, 3])
    terms = np.array([1 << 62, 1 << 62, -5, 7], dtype=np.int64)
    assert group_sums(groups, terms, 4).tolist() == [
        1 << 62, (1 << 62) - 5, 0, 7,
    ]
    big = np.array([1 << 100, -1, 3, 1 << 90], dtype=object)
    assert group_sums(groups, big, 4).tolist() == [
        1 << 100, 2, 0, 1 << 90,
    ]
