"""The width-routed G1 MSM, and the prover that sits on it.

``repro.ec.batch_affine`` looks at its scalars before it sizes a bucket
pass: sign-fold, split at ``SHORT_BITS``, one pass per class.  The
property here feeds it the mixes a witness really holds (zeros, bits,
int8, small negatives as ``r - k``) next to full-width field elements and
the widths on either side of the class boundary, and requires the naive
double-and-add answer; the round trip proves a circuit whose witness has
both classes on the real curve; the structure guard keeps the paths this
replaced from growing back.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.commit import mimc_round_constants, mimc_rounds
from repro.ec.backend import RealBN254Backend
from repro.ec.batch_affine import SHORT_BITS, msm_batch_affine, msm_streamed
from repro.ec.bn254 import BN254_G1
from repro.ec.fixed_base import FixedBaseTableG1
from repro.ec.msm import msm_naive
from repro.r1cs.lc import ONE
from repro.r1cs.system import ConstraintSystem
from repro.snark import groth16
from repro.snark.keys import precompute_proving_tables
from repro.snark.serialize import deserialize_proof, serialize_proof

R = BN254_G1.order
G = BN254_G1.generator
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _pool():
    """``G, 2G, ... 12G``, their negations and the identity."""
    points = [G]
    for _ in range(11):
        points.append(points[-1] + G)
    return points + [-p for p in points] + [BN254_G1.infinity()]


POOL = _pool()
EDGE = 1 << SHORT_BITS  # the narrowest scalar of the full-width class

scalars_st = st.one_of(
    st.sampled_from([
        0, 1, R - 1, (R - 1) // 2, (R + 1) // 2,
        EDGE - 1, EDGE, R - (EDGE - 1), R - EDGE,  # at / one past, both signs
    ]),
    st.integers(0, 1),  # bits
    st.integers(-128, 127).map(lambda v: v % R),  # int8, negatives as r - k
    st.integers(0, 65535),  # uint16
    st.integers(1, 300).map(lambda k: R - k),
    st.integers(0, R - 1),  # uniform field elements
)
lanes_st = st.lists(
    st.tuples(st.integers(0, len(POOL) - 1), scalars_st),
    min_size=1, max_size=12,
)


def _split(lanes):
    return [POOL[i] for i, _ in lanes], [k for _, k in lanes]


class TestRoutedMSM:
    @given(lanes_st)
    @settings(max_examples=30, deadline=None)
    def test_property_matches_naive(self, lanes):
        points, scalars = _split(lanes)
        expected = msm_naive(points, scalars, group=BN254_G1)
        assert msm_batch_affine(points, scalars) == expected
        # Streamed: the same vector as 1, 2 and n chunks.
        n = len(points)
        for size in {n, -(-n // 2), 1}:
            chunks = [(lo, points[lo : lo + size]) for lo in range(0, n, size)]
            assert msm_streamed(iter(chunks), scalars) == expected
        # Through a table, with the scalar vector shorter than the points.
        short = scalars[: max(1, n // 2)]
        assert FixedBaseTableG1(points).msm(short) == msm_naive(
            points[: len(short)], short, group=BN254_G1
        )

    @pytest.mark.parametrize(
        "scalars",
        [
            [5],  # one element
            [0, 1, 1, 0, 127, R - 128, 65535, 3],  # all short
            [R // 3, R // 5, (R - 1) // 2, (R + 1) // 2, R - EDGE, EDGE, 7**80, R // 7],  # all wide
            [EDGE - 1, EDGE, R - (EDGE - 1), R - EDGE, 1, 0, R - 1, R // 2],
        ],
        ids=["one", "all-short", "all-wide", "boundary"],
    )
    def test_class_mixes(self, scalars):
        points = POOL[: len(scalars)]
        assert msm_batch_affine(points, scalars) == msm_naive(
            points, scalars, group=BN254_G1
        )

    def test_cancelling_lanes(self):
        """``P`` and ``-P`` under equal scalars meet in one bucket in both
        classes and vanish; what is left is the one lone lane."""
        p, q = POOL[4], POOL[7]
        points = [p, -p, q, -q, p, -p, POOL[2]]
        scalars = [9, 9, R // 3, R // 3, R - 2, R - 2, 6]
        assert msm_batch_affine(points, scalars) == 6 * POOL[2]
        assert msm_batch_affine(points[:6], scalars[:6]).is_infinity()

    def test_backend_routes_every_size_to_the_same_answer(self):
        """Below ``_BATCH_AFFINE_MIN`` the backend answers from the
        Jacobian pass, above it from the routed one: same element."""
        backend = RealBN254Backend()
        rng = random.Random(21)
        points = [POOL[rng.randrange(24)] for _ in range(40)]
        scalars = [
            rng.choice([0, 1, rng.randrange(256), R - rng.randrange(1, 99),
                        rng.randrange(R)])
            for _ in points
        ]
        for n in (8, 40):
            assert backend.msm(points[:n], scalars[:n]) == msm_naive(
                points[:n], scalars[:n], group=BN254_G1
            )


def _mixed_width_circuit() -> ConstraintSystem:
    """A few activations — zeros, bits, int8, negatives — each bit
    constrained boolean, and their MiMC digest as the one public input:
    the digest's round wires are uniform field elements, so the witness
    holds both width classes."""
    cs = ConstraintSystem(name="mixed-width")
    p = cs.field.modulus
    bits = [0, 1, 1, 0]
    activations = bits + [0, 0, 127, -128, -3, 77, 200, -1]
    wires = [cs.new_private(v) for v in activations]
    for w in wires[: len(bits)]:
        b = cs.lc_variable(w)
        cs.enforce(b, cs.lc_constant(1) - b, cs.lc(), tag="bit")
    values = [cs.value_of(w) for w in wires]
    state = None
    rounds = mimc_rounds(values, p)
    for i, rc in enumerate(mimc_round_constants(len(values) + 2, p)):
        t = cs.lc_variable(state) if state else cs.lc()
        if i < len(wires):
            t.add_term(wires[i], 1)
        t.add_term(ONE, rc)
        w2, w4, state = (cs.new_private(v) for v in next(rounds))
        cs.enforce(t, t, cs.lc_variable(w2), tag="mimc")
        cs.enforce(
            cs.lc_variable(w2), cs.lc_variable(w2), cs.lc_variable(w4),
            tag="mimc",
        )
        cs.enforce(cs.lc_variable(w4), t, cs.lc_variable(state), tag="mimc")
    digest = cs.new_public(cs.value_of(state))
    cs.enforce_equal(cs.lc_variable(state), cs.lc_variable(digest), tag="pin")
    return cs


class TestMixedWidthProof:
    def test_round_trip_on_bn254(self):
        cs = _mixed_width_circuit()
        assert cs.is_satisfied()
        widths = [min(v, R - v).bit_length() for v in cs.to_csr().z]
        assert 0 in widths and 1 in widths  # zeros, bits
        assert any(1 < w <= SHORT_BITS for w in widths)
        assert sum(w > 200 for w in widths) > len(widths) // 2

        backend = RealBN254Backend()
        keys = groth16.setup(cs, backend, random.Random(11))
        pk = keys.proving_key

        def prove():
            return serialize_proof(
                groth16.prove(pk, cs, backend, random.Random(12))
            )

        plain = prove()
        precompute_proving_tables(pk, backend)
        assert prove() == plain
        publics = cs.public_values()
        proof = deserialize_proof(plain)
        assert groth16.verify(keys.verifying_key, publics, proof, backend)
        flipped = [publics[0] ^ 1]
        assert not groth16.verify(keys.verifying_key, flipped, proof, backend)


# -- structure guard: the deleted paths cannot grow back ------------------------------


def _tree(relative: str) -> ast.Module:
    return ast.parse((SRC / relative).read_text())


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    """The module-level function ``name``."""
    (found,) = [
        n for n in tree.body
        if isinstance(n, ast.FunctionDef) and n.name == name
    ]
    return found


class TestStructure:
    def test_tables_only_where_scalars_are_uniform(self):
        (cls,) = [
            n for n in ast.walk(_tree("snark/keys.py"))
            if isinstance(n, ast.ClassDef) and n.name == "ProvingKeyTables"
        ]
        fields = {
            n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)
        }
        # No a_query_g1 / b_query_g1 / b_query_g2 / l_query_g1: those
        # meet the witness.
        assert fields == {"h_query_g1", "delta_g1", "delta_g2"}

    def test_no_forwarding_table(self):
        for path in SRC.rglob("*.py"):
            assert "_GenericMSMTable" not in path.read_text(), path

    def test_backend_msm_takes_no_window(self):
        for node in ast.walk(_tree("ec/backend.py")):
            if isinstance(node, ast.FunctionDef) and "msm" in node.name:
                names = [a.arg for a in node.args.args + node.args.kwonlyargs]
                assert "window" not in names, node.name

    def test_prove_takes_delta_multiples_from_tables(self):
        prove = _function(_tree("snark/groth16.py"), "prove")
        for call in ast.walk(prove):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "scalar_mul"
            ):
                continue
            for arg in call.args:
                assert not (
                    isinstance(arg, ast.Attribute)
                    and arg.attr in ("delta_g1", "delta_g2")
                ), ast.unparse(call)

    def test_one_bucket_routine_for_one_shot_and_streamed(self):
        tree = _tree("ec/batch_affine.py")
        callers = [
            fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and any(
                isinstance(c, ast.Call)
                and isinstance(c.func, ast.Name)
                and c.func.id == "_msm_raw"
                for c in ast.walk(fn)
            )
        ]
        assert callers == ["_msm_routed"]
        one_shot = _function(tree, "msm_batch_affine")
        assert any(
            isinstance(c, ast.Call)
            and isinstance(c.func, ast.Name)
            and c.func.id == "msm_streamed"
            for c in ast.walk(one_shot)
        )
