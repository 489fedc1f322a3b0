"""Element-wise layers a layer at a time.

``GadgetEmitter.relu_rows`` against the per-element oracle
(``tests/relu_oracle.py``) — rows in order, tags, variables and values,
recipe, stats, op tallies and both error messages; a program ending in a
ReLU commits its outputs publicly; and the per-element lowerings — ReLU,
output commitment and the table lowerings — cannot grow back under
``src/``.
"""

import ast
import inspect
import io
import random
import tokenize
from pathlib import Path

import numpy as np
import pytest

from repro.core.circuit import compute
from repro.core.circuit.gadgets import GadgetEmitter, lc_entries
from repro.core.compiler import ZenoCompiler, zeno_options
from repro.core.lang.primitives import ProgramBuilder
from repro.core.privacy.knit import KnitPacker
from repro.field.counters import count_ops
from repro.lookup.argument import LookupEngine
from repro.r1cs.lc import LinearCombination
from repro.r1cs.system import ConstraintSystem
from repro.snark import groth16
from tests.relu_oracle import relu_lc
from tests.replay_oracle import named

BITS = 12
HALF = 1 << (BITS - 1)
# Wire values: negative, zero, positive and both ends of the sign gadget.
WIRES = [-5, 0, 7, -HALF, HALF - 1, 0, 3]
# Inputs as (wire, coefficient) terms, two calls' worth each.
INPUTS = {
    "distinct": [[(i, 1)] for i in range(len(WIRES))],
    "repeated": [[(0, 1)], [(1, 1)], [(0, 1)], [(2, 1)], [(1, 1)], [(0, 1)]],
    "lcs": [
        [(0, 1), (1, -1)], [(2, 2)], [(0, 1), (1, -1)],
        [(3, 1), (4, 1), (5, -1)], [(2, 2)], [(1, 1), (0, -1)],
        [(0, 1), (2, 1), (4, -1), (6, 1), (5, 1)],  # too wide to share
    ],
}


def system(mode, share):
    cs = ConstraintSystem()
    em = GadgetEmitter(cs, mode=mode, recipe=[], share=share)
    first = cs.allocate(WIRES)
    return cs, em, list(range(first, first + len(WIRES)))


def value_of(terms):
    return sum(c * WIRES[w] for w, c in terms)


def run_oracle(em, wires, calls, public):
    p = em.cs.field.modulus
    outs = []
    for start, inputs, values in calls:
        for k, (terms, value) in enumerate(zip(inputs, values)):
            lc = LinearCombination(
                em.cs.field, {wires[w]: c % p for w, c in terms}
            )
            outs.append(relu_lc(
                em, lc, value, BITS, "relu", start + k, public
            ))
    return outs


def run_rows(em, wires, calls, public):
    outs = []
    for start, inputs, values in calls:
        exprs = [k for k, terms in enumerate(inputs) for _ in terms]
        cols = [wires[w] for terms in inputs for w, _ in terms]
        coeffs = [c for terms in inputs for _, c in terms]
        outs += em.relu_rows(
            np.array(exprs, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(coeffs, dtype=np.int64), values, BITS, "relu", start,
            public=public,
        ).tolist()
    return outs


def observe(cs, em, outs, ops):
    csr = cs.to_csr()
    return {
        "rows": [
            (m.indptr.tolist(), m.indices.tolist(), m.coeffs)
            for m in csr.matrices()
        ],
        "tags": cs.row_tags(),
        "z": list(csr.z),
        "sizes": (cs.num_public, cs.num_private),
        "outs": outs,
        "recipe": named(em.recipe),
        "stats": em.stats,
        "cache": em._relu_cache,
        "ops": ops,
    }


def both(mode, share, calls, public=False):
    seen = []
    for run in (run_oracle, run_rows):
        cs, em, wires = system(mode, share)
        with count_ops() as ops:
            outs = run(em, wires, calls, public)
        seen.append(observe(cs, em, outs, ops.snapshot()))
    return seen


def split(inputs, calls, values=None):
    """``(first_index, inputs, claimed values)`` per call."""
    if values is None:
        values = [value_of(terms) for terms in inputs]
    cut = len(inputs) // 2 if calls == 2 else len(inputs)
    return [(0, inputs[:cut], values[:cut]),
            (cut, inputs[cut:], values[cut:])][:calls]


def messages(mode, share, calls):
    """The error each emitter raises on ``calls``."""
    seen = []
    for run in (run_oracle, run_rows):
        cs, em, wires = system(mode, share)
        with pytest.raises(ValueError) as err:
            run(em, wires, calls, False)
        seen.append(str(err.value))
    return seen


class TestReluRowsParity:
    @pytest.mark.parametrize("mode", ["lean", "strict"])
    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("pattern", sorted(INPUTS))
    @pytest.mark.parametrize("calls", [1, 2])
    @pytest.mark.parametrize("public", [False, True])
    def test_matches_oracle(self, mode, share, pattern, calls, public):
        oracle, rows = both(
            mode, share, split(INPUTS[pattern], calls), public=public
        )
        assert rows == oracle

    def test_sharing_happens(self):
        oracle, rows = both("strict", True, split(INPUTS["repeated"], 2))
        assert rows["stats"].shared_relus == 3
        assert len(set(rows["outs"])) == 3
        # public outputs are each their own instance variable
        oracle, rows = both(
            "strict", True, split(INPUTS["repeated"], 2), public=True
        )
        assert rows["stats"].shared_relus == 0
        assert rows["sizes"][0] == 6

    @pytest.mark.parametrize("calls", [1, 2])
    def test_diverging_witness_message(self, calls):
        inputs = [[(0, 1)], [(2, 1)], [(1, 1)], [(2, 1)]]
        # wire 2 is read twice with two different claimed values
        calls = split(inputs, calls, [-5, 7, 0, 8])
        oracle, rows = messages("lean", True, calls)
        assert rows == oracle == (
            "shared relu relu[3]: identical LC with diverging witness "
            "values 7 != 8"
        )

    @pytest.mark.parametrize("mode", ["lean", "strict"])
    def test_range_message(self, mode):
        inputs = INPUTS["distinct"][:3]
        calls = split(inputs, 1, [-5, HALF, 7])  # one past the top
        if mode == "lean":  # lean proves no sign range: nothing to raise
            oracle, rows = both(mode, False, calls)
            assert rows == oracle
            return
        oracle, rows = messages(mode, False, calls)
        assert rows == oracle == (
            f"relu input relu[1] = {HALF} exceeds {BITS}-bit sign gadget range"
        )


# Max-pool windows over the wires (not the range ends, whose differences
# leave the gadget): each select reads the outputs of the selects before it.
WINDOWS = [[0, 1, 2, 5], [1, 1, 1, 1], [1, 1, 1, 1], [2, 0, 2, 0],
           [6, 5, 0, 2, 1, 6]]


def chain(em, wires, window, select):
    """A window's comparison chain, ``select(em, diff_lc, diff)`` per tap."""
    cs = em.cs
    best_lc, best = cs.lc_variable(wires[window[0]]), WIRES[window[0]]
    outs = []
    for w in window[1:]:
        diff = cs.lc_variable(wires[w]) - best_lc
        outs.append(select(em, diff, WIRES[w] - best))
        best_lc.add_term(outs[-1], 1)
        best = max(best, WIRES[w])
    return outs


def select_oracle(em, diff_lc, diff):
    return relu_lc(em, diff_lc, diff, BITS, "pool")


def select_rows(em, diff_lc, diff):
    (out,) = em.relu_rows(
        *lc_entries(diff_lc), [diff], BITS, "pool", -1
    ).tolist()
    return out


class TestChainParity:
    @pytest.mark.parametrize("mode", ["lean", "strict"])
    @pytest.mark.parametrize("share", [False, True])
    def test_chain_matches_oracle(self, mode, share):
        seen = []
        for select in (select_oracle, select_rows):
            cs, em, wires = system(mode, share)
            with count_ops() as ops:
                outs = [chain(em, wires, window, select) for window in WINDOWS]
            assert cs.is_satisfied()
            seen.append(observe(cs, em, outs, ops.snapshot()))
        assert seen[1] == seen[0]
        if share:
            assert seen[1]["stats"].shared_relus > 0


def final_relu_program():
    gen = np.random.default_rng(3)
    builder = ProgramBuilder("final-relu", gen.integers(-8, 9, 6))
    builder.fully_connected(gen.integers(-3, 4, (5, 6)))
    builder.relu()
    return builder.build(validate=True)


class TestFinalRelu:
    @pytest.mark.parametrize("mode", ["lean", "strict"])
    @pytest.mark.parametrize("relu_mode", ["bits", "lookup"])
    def test_outputs_are_public(self, mode, relu_mode):
        program = final_relu_program()
        artifact = ZenoCompiler(
            zeno_options(gadget_mode=mode, relu_mode=relu_mode)
        ).compile_program(program)
        expected = program.final_logits().reshape(-1).tolist()
        assert min(program.ops[0].out_values) < 0 < max(expected)
        assert artifact.cs.num_public == len(expected)
        assert artifact.public_outputs_signed() == expected
        assert artifact.cs.is_satisfied()

    def test_flipped_output_rejected(self):
        artifact = ZenoCompiler(zeno_options()).compile_program(
            final_relu_program()
        )
        cs = artifact.cs
        keys = groth16.setup(cs, rng=random.Random(5))
        proof = groth16.prove(keys.proving_key, cs, rng=random.Random(6))
        honest = cs.public_values()
        assert len(honest) == 5
        assert groth16.verify(keys.verifying_key, honest, proof)
        for i in range(len(honest)):
            flipped = list(honest)
            flipped[i] = (flipped[i] + 1) % cs.field.modulus
            assert not groth16.verify(keys.verifying_key, flipped, proof)


# The per-variable witness descriptors replay used to interpret.
DESCRIPTOR_KINDS = {
    "image", "const", "out", "rem", "rem_bit", "out_bit", "sign", "relu_bit",
    "relu_out", "dot_wire", "affine_wire", "lut", "mul_wire", "ln_sq",
    "ln_prod", "sel_bit", "sel_out",
}


def _names(source: str) -> list:
    return [
        (token.type, token.string)
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type in (tokenize.NAME, tokenize.OP)
    ]


def _method_calls(name: str, owner=compute.CircuitComputer):
    """``(tree, attribute names called)`` of a method of ``owner``."""
    tree = ast.parse(inspect.getsource(getattr(owner, name)).strip())
    return tree, {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


class TestStructure:
    def test_per_element_relu_is_gone(self):
        """No ``relu_lc`` and no ``.relu(`` call anywhere under ``src/``."""
        src = Path(inspect.getfile(compute)).parents[3]
        for path in src.rglob("*.py"):
            tokens = _names(path.read_text())
            strings = [s for _, s in tokens]
            assert "relu_lc" not in strings, path
            assert not any(
                tokens[i][1] == "." and tokens[i + 1][1] == "relu"
                and tokens[i + 2][1] == "("
                for i in range(len(tokens) - 2)
            ), path

    def test_per_element_commitment_is_gone(self):
        """No ``commit_output``, ``_enforce_boolean`` or ``_range_check``
        token and no ``.boolean(`` or ``.decompose(`` call under ``src/``;
        the knit packer takes whole runs only."""
        src = Path(inspect.getfile(compute)).parents[3]
        for path in src.rglob("*.py"):
            tokens = _names(path.read_text())
            strings = {s for _, s in tokens}
            assert not strings & {
                "commit_output", "_enforce_boolean", "_range_check"
            }, path
            assert not any(
                tokens[i][1] == "." and tokens[i + 1][1] in (
                    "boolean", "decompose"
                ) and tokens[i + 2][1] == "("
                for i in range(len(tokens) - 2)
            ), path
        assert not hasattr(KnitPacker, "push")

    def test_per_element_table_lowerings_are_gone(self):
        """No ``_lut_onehot``, ``_lookups`` or ``_range_proof`` token under
        ``src/``: the table lowerings take whole runs only."""
        src = Path(inspect.getfile(compute)).parents[3]
        for path in src.rglob("*.py"):
            strings = {s for _, s in _names(path.read_text())}
            assert not strings & {"_lut_onehot", "_lookups", "_range_proof"}, path

    def test_per_variable_recipe_is_gone(self):
        """No per-variable witness descriptor under ``src/``: no ``(var,
        (kind, …))`` pair; in a module that names a recipe, no tuple headed
        by one of the 17 descriptor kinds and no comparison with one; and
        no recipe takes a tuple, a comprehension or a generator — an
        emitter call appends one step."""
        def headed(node):
            return (
                isinstance(node, ast.Tuple) and bool(node.elts)
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in DESCRIPTOR_KINDS
            )

        src = Path(inspect.getfile(compute)).parents[3]
        for path in src.rglob("*.py"):
            text = path.read_text()
            for node in ast.walk(ast.parse(text)):
                where = (path, getattr(node, "lineno", None))
                if "recipe" in text:  # no descriptor built or dispatched on
                    assert not headed(node), where
                    assert not (isinstance(node, ast.Compare) and any(
                        isinstance(side, ast.Constant)
                        and side.value in DESCRIPTOR_KINDS
                        for side in [node.left, *node.comparators]
                    )), where
                if isinstance(node, ast.Tuple) and len(node.elts) == 2:
                    var, desc = node.elts
                    assert isinstance(var, ast.Tuple) or not headed(desc), where
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "extend")
                    and ast.unparse(node.func.value).endswith("recipe")
                ):
                    assert not any(isinstance(arg, (
                        ast.Tuple, ast.ListComp, ast.GeneratorExp
                    )) for arg in node.args), where

    @pytest.mark.parametrize("name", ["lookup", "_finalize_table"])
    def test_lookup_engine_emits_in_bulk(self, name):
        """The engine allocates and enforces a run at a time."""
        _, calls = _method_calls(name, LookupEngine)
        assert not calls & {"new_private", "enforce", "enforce_equal"}

    @pytest.mark.parametrize("name", [
        "_compute_relu", "_compute_add", "_compute_affine",
        "_compute_matmul", "_compute_rowscale", "_dot_both_private",
        "_compute_lut", "_compute_embed",
    ])
    def test_layer_lowerings_have_no_per_element_loop(self, name):
        """No ``for`` statement and no per-element gadget call; a
        comprehension builds entry arrays or recipe lists, and calls an
        emitter only in ``_compute_embed``, over its ``d`` tables."""
        tree, calls = _method_calls(name)
        assert not any(isinstance(node, ast.For) for node in ast.walk(tree))
        assert not calls & {"new_private", "new_public", "enforce",
                            "mul_private", "lc_variable"}
        for comp in ast.walk(tree):
            if isinstance(comp, (ast.ListComp, ast.GeneratorExp)):
                inside = {
                    node.func.attr for node in ast.walk(comp)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                }
                if inside & {"lookup", "select_rows", "relu_rows",
                             "commit_outputs"}:
                    assert name == "_compute_embed"
                    assert ast.unparse(comp.generators[0].iter) == "range(d)"

    @pytest.mark.parametrize("name", ["_compute_layernorm", "_compute_maxpool"])
    def test_row_loops_multiply_through_commit_outputs(self, name):
        """Layer-norm and max-pool keep a loop over rows or windows, but
        no product is a ``mul_private`` call."""
        _, calls = _method_calls(name)
        assert "mul_private" not in calls
        assert "commit_outputs" in calls
