"""`repro.r1cs.mimc` — the one sponge — against the per-LC sponges it
replaced (`tests/sponge_oracle.py`), the capacity flaw pinned for both of
its users, and a guard that no second sponge grows back under ``src/``.
"""

import ast
import inspect
import io
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import split_model
from repro.field import BN254_FR_MODULUS
from repro.field.counters import count_ops
from repro.lookup import get_table, reassign_lookup_columns
from repro.lookup.argument import LookupEngine, sponge_seed
from repro.lookup.table import PACK_BASE
from repro.r1cs import mimc
from repro.r1cs.lc import ONE, LinearCombination
from repro.r1cs.system import ConstraintSystem
from repro.r1cs.recipe import mirror, replay
from tests import sponge_oracle
from tests.replay_oracle import named
from tests.test_lookup_argument import emit_lookups

P = BN254_FR_MODULUS
SEED = b"tests.test_mimc"


# -- the capacity flaw, pinned where it lives ---------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="known issue: one x^5 round per value, added to the whole "
    "state, leaves the sponge no capacity (ROADMAP, Soundness closure)",
)
def test_sponge_has_capacity():
    """``TestCommit::test_sponge_has_capacity``'s collision under a LogUp
    table's seed: the flaw is the permutation's, not a domain's."""
    seed = sponge_seed("relu8")
    c0 = mimc.constants(seed, 1, P)[0]
    steered = 22 + pow(11 + c0, 5, P) - pow(12 + c0, 5, P)
    assert mimc.digest([11, 22, 33], seed, P) != mimc.digest(
        [12, steered, 33], seed, P
    )


@pytest.mark.xfail(
    strict=True,
    reason="known issue: without a capacity element the last absorbed "
    "multiplicity steers the LogUp challenge to any target (ROADMAP, "
    "Soundness closure)",
)
def test_lookup_challenge_cannot_be_steered():
    """Pick the challenge, invert the two finalization rounds and solve
    the last multiplicity for it.  Fails loudly (strict xfail) the day
    the round function keeps a capacity element."""
    target = 424242
    cs, block, _ = emit_lookups([-3, 0, 5, 5, 200], mode="strict")
    sponge, seed = block.sponge, sponge_seed(block.table_name)
    rc = mimc.constants(seed, sponge.num_rounds, P)
    fifth_root = pow(5, -1, P - 1)
    state = target
    for r in (-1, -2):
        state = (pow(state, fifth_root, P) - rc[r]) % P
    # the state entering the last payload round: the t⁵ before its wires
    before = cs.value_of(sponge.first_wire + 3 * (len(sponge.absorbed) - 1) - 1)
    cs.assign(
        block.m_vars[-1], pow(state, fifth_root, P) - before - rc[-3]
    )
    mimc.replay(cs, sponge, seed)
    assert cs.value_of(block.alpha_var) != target


# -- sponge_rows + replay against the per-LC loop -----------------------------


def _rows(cs: ConstraintSystem) -> list:
    return [
        (con.tag, *(sorted(lc.terms.items()) for lc in (con.a, con.b, con.c)))
        for con in cs.constraints
    ]


def _witness(cs: ConstraintSystem) -> list:
    return [cs.value_of(v) for v in range(-cs.num_public, cs.num_private + 1)]


def _value(cs: ConstraintSystem, absorb):
    terms = absorb if isinstance(absorb, dict) else {absorb: 1}
    values = [cs.value_of(v) for v in terms]
    if None in values:
        return None
    return sum(c * v for c, v in zip(terms.values(), values)) % P


def _system(values, specs) -> ConstraintSystem:
    """``values`` as privates 1.., then per spec the wires that exist
    before its sponge does: the ``out`` wire and the pinned public."""
    cs = ConstraintSystem(name="sponges")
    cs.allocate(values)
    for spec in specs:
        spec["out_var"] = cs.new_private() if spec["out"] else None
        spec["slot"] = -cs.new_public() - 1 if spec["pin"] else None
    return cs


def emit_arrays(values, specs):
    """The sponges of ``specs`` as one ``sponge_rows`` block, each valued
    by ``replay`` if everything it absorbs has a value."""
    cs = _system(values, specs)
    sponges, wire, row = [], cs.num_private + 1, 0
    for spec in specs:
        sponge = mimc.Sponge(
            spec["absorbs"], wire, spec["slot"], spec["out_var"], row
        )
        wire += len(sponge.wires)
        row += sponge.num_rows
        sponges.append(sponge)
    rows = mimc.sponge_rows(sponges, [s["tag"] for s in specs], SEED, P)
    assert rows.first_row.tolist() == [s.first_row for s in sponges] + [row]
    cs.allocate([None] * (wire - cs.num_private - 1))
    cs.enforce_rows(rows.block())
    for sponge in sponges:
        if None not in [_value(cs, a) for a in sponge.absorbed]:
            mimc.replay(cs, sponge, SEED)
    return cs, sponges


def emit_per_lc(values, specs) -> ConstraintSystem:
    cs = _system(values, specs)
    for spec in specs:
        absorbs = [
            (
                LinearCombination(
                    cs.field, dict(a) if isinstance(a, dict) else {a: 1}
                ),
                _value(cs, a),
            )
            for a in spec["absorbs"]
        ] + [(cs.lc(), 0)] * sponge_oracle.EXTRA_ROUNDS
        rounds, state = sponge_oracle.emit_rounds(
            cs, absorbs,
            sponge_oracle.seeded_constants(SEED, len(absorbs), P),
            spec["tag"], out=spec["out_var"],
        )
        if spec["out"] and state is not None:
            cs.assign(spec["out_var"], state)
        if spec["pin"]:
            public = -(spec["slot"] + 1)
            if state is not None:
                cs.assign(public, state)
            cs.enforce_equal(
                cs.lc_variable(rounds[-1][2]), cs.lc_variable(public),
                tag=f"{spec['tag']}/digest",
            )
    return cs


def assert_same_sponges(values, specs) -> None:
    with count_ops() as ops:
        got, sponges = emit_arrays(values, specs)
    with count_ops() as oracle_ops:
        want = emit_per_lc(values, specs)
    assert _rows(got) == _rows(want)
    assert (got.num_public, got.num_private) == (
        want.num_public, want.num_private
    )
    assert _witness(got) == _witness(want)
    assert None in values or got.is_satisfied()
    for sponge, spec in zip(sponges, specs):
        assert mimc.check_rows(got, sponge, SEED, spec["absorbs"]) is None
    # The oracle sums t with ``+``: an addition counted per folded term,
    # which sponge_rows leaves to the one user that built t that way.
    folded = sum(
        len(a) if isinstance(a, dict) else 1
        for spec in specs for a in spec["absorbs"]
    ) + sum(len(spec["absorbs"]) + mimc.FINAL_ROUNDS for spec in specs)
    tally, oracle = ops.snapshot(), oracle_ops.snapshot()
    assert tally.pop("field_add") + folded == oracle.pop("field_add")
    assert tally == oracle


def _spec(absorbs, out=False, pin=False, tag="s") -> dict:
    return {"absorbs": absorbs, "out": out, "pin": pin, "tag": tag}


VALUES = [3, P - 5, 0, 7, 11, 2**40, 1, 99]
CHUNK = {  # 14 terms and a constant, as seven packed pairs fold to
    **{v: pow(2, 32 * (v // 2), P) * (PACK_BASE if v % 2 else 1) % P
       for v in range(1, 9)},
    **{v: P - v for v in range(9, 15)},
    ONE: 12345,
}
RC = sponge_oracle.seeded_constants(SEED, 4, P)

CASES = {
    "no-payload": [_spec([])],
    "empty-absorb": [_spec([{}, 3, {}])],
    "one-variable": [_spec([4])],
    "chunk-with-constant": [_spec([CHUNK, 2])],
    "constant-cancels-rc": [_spec([{ONE: P - RC[0]}, {1: 2, ONE: P - RC[1]}])],
    "out": [_spec([1, 2], out=True)],
    "pin": [_spec([1, 2], pin=True)],
    "out-and-pin": [_spec([5], out=True, pin=True)],
    "several": [
        _spec([1, {2: 3, ONE: 4}], pin=True, tag="a"),
        _spec([], tag="b"),
        _spec([CHUNK, 6, 7], out=True, tag="c"),
        _spec([8], pin=True, tag="d"),
    ],
}


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("assigned", [True, False], ids=["valued", "unassigned"])
def test_named_schedules_match_the_per_lc_sponge(name, assigned):
    values = VALUES + [0] * 6 if assigned else [None] * 14
    assert_same_sponges(values, CASES[name])


def test_replay_fills_an_unassigned_system():
    specs = CASES["several"]
    blank, sponges = emit_arrays([None] * 14, specs)
    values = VALUES + [0] * 6
    blank.assign_run(1, values)
    for sponge in sponges:
        mimc.replay(blank, sponge, SEED)
    assert _witness(blank) == _witness(emit_per_lc(values, specs))
    assert blank.is_satisfied()


_variable = st.integers(1, 8)
_coefficient = st.one_of(st.integers(1, 4), st.integers(P - 3, P - 1))
_absorb = st.one_of(
    _variable,
    st.dictionaries(
        st.one_of(st.just(ONE), _variable), _coefficient, max_size=6
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(0, P - 1), min_size=8, max_size=8),
    drawn=st.lists(
        st.tuples(
            st.lists(_absorb, max_size=4), st.booleans(), st.booleans()
        ),
        min_size=1, max_size=3,
    ),
    assigned=st.booleans(),
)
def test_drawn_schedules_match_the_per_lc_sponge(values, drawn, assigned):
    specs = [
        _spec(absorbs, out, pin, tag=f"sponge-{k}")
        for k, (absorbs, out, pin) in enumerate(drawn)
    ]
    assert_same_sponges(values if assigned else [None] * 8, specs)


def test_check_rows_names_what_is_wrong():
    spec = _spec([1, {2: 3, ONE: 4}], pin=True)
    cs, (sponge,) = emit_arrays(VALUES, [spec])
    assert mimc.check_rows(cs, sponge, SEED, [1]) is not None
    assert "round 1" in mimc.check_rows(cs, sponge, SEED, [1, {2: 3}])
    assert mimc.check_rows(cs, sponge, b"other seed", spec["absorbs"])
    cs.constraints[sponge.first_row + 4].c.terms.clear()
    assert "round 1" in mimc.check_rows(cs, sponge, SEED, spec["absorbs"])
    cs, (sponge,) = emit_arrays(VALUES, [spec])
    cs.constraints[sponge.first_row + sponge.num_rows - 1].a.terms.clear()
    assert "pinned" in mimc.check_rows(cs, sponge, SEED, spec["absorbs"])


# -- the LogUp engine against the engine emitting its sponge per LC -----------

# (table, index of the input wire, raw input?) per lookup: one wire looked
# up twice inside a chunk and again in the next, two tables, more than one
# full chunk, raw inputs range-proven once per wire.
LOOKUPS = (
    [("relu", k, False) for k in (0, 1, 0, 2, 3, 4, 5, 0, 6, 7)]
    + [("gelu", k, True) for k in (1, 1, 3)]
)
INPUTS = [5, -3, 200, 0, 7, 9, 10, -128]
OTHER_INPUTS = [17, 90, -1, 3, 3, 0, 255, 64]


def _lookup_system(engine_class, inputs):
    cs = ConstraintSystem(name="lookups")
    recipe = []
    engine = engine_class(cs, mode="strict", recipe=recipe)
    wires = [cs.new_private(x % P) for x in inputs]
    for table, k, raw in LOOKUPS:
        engine.lookup(
            get_table(table), [wires[k]], [inputs[k]], tag=f"l{k}",
            input_ranged=not raw,
        )
    engine.finalize(cs.mark_layer)
    return cs, engine, recipe, wires


def test_engine_matches_the_per_lc_engine():
    with count_ops() as ops:
        got, _, recipe, _ = _lookup_system(LookupEngine, INPUTS)
    with count_ops() as oracle_ops:
        want, _, oracle_recipe, _ = _lookup_system(
            sponge_oracle.PerLCEngine, INPUTS
        )
    assert _rows(got) == _rows(want)
    assert _witness(got) == _witness(want)
    assert named(recipe, blocks=got.lookup_blocks) == named(oracle_recipe)
    assert got.layer_ranges == want.layer_ranges
    assert ops.snapshot() == oracle_ops.snapshot()
    assert got.is_satisfied()
    for block, theirs in zip(got.lookup_blocks, want.lookup_blocks):
        assert block.sponge.out == block.alpha_var == theirs.alpha_var
        assert block.sponge.num_rounds == len(
            range(0, block.num_lookups, 7)
        ) + len(block.m_vars) + mimc.FINAL_ROUNDS


def test_lookup_replay_matches_the_per_lc_replay():
    """Replay on new inputs — the calls' steps, then
    ``reassign_lookup_columns``: a fresh build's witness, and the sponge
    wires the parent's ``_replay_sponge`` writes."""
    cs, _, steps, wires = _lookup_system(LookupEngine, INPUTS)
    z = mirror(cs)
    z[wires] = OTHER_INPUTS
    replay(cs, steps, z)
    reassign_lookup_columns(cs)
    fresh, engine, _, _ = _lookup_system(sponge_oracle.PerLCEngine, OTHER_INPUTS)
    assert _witness(cs) == _witness(fresh)
    assert cs.is_satisfied()

    stale, engine, _, wires = _lookup_system(sponge_oracle.PerLCEngine, INPUTS)
    for block in stale.lookup_blocks:
        table = get_table(block.registry_name)
        for var in block.x_vars + block.y_vars + block.m_vars:
            stale.assign(var, cs.value_of(var))
        xs = [OTHER_INPUTS[wires.index(x)] for x in block.x_vars]
        alpha = sponge_oracle.replay_lookup_sponge(
            stale, engine.rounds[block.table_name], block.table_name,
            [table.pack(x, table.lookup(x)) for x in xs],
            [cs.value_of(m) for m in block.m_vars],
        )
        assert alpha == cs.value_of(block.alpha_var)
        for t2, t4, out, _ in engine.rounds[block.table_name]:
            assert [stale.value_of(v) for v in (t2, t4, out)] == [
                cs.value_of(v) for v in (t2, t4, out)
            ]


# -- one sponge under src/ ----------------------------------------------------

SRC = Path(inspect.getfile(mimc)).parents[1]
MIMC = Path(inspect.getfile(mimc))


def _names(path: Path) -> set:
    return {
        token.string
        for token in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline
        )
        if token.type == tokenize.NAME
    }


def _calls(node: ast.AST) -> set:
    return {
        getattr(call.func, "attr", getattr(call.func, "id", None))
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def test_the_sponge_lives_once_under_src():
    deleted = {
        "_emit_sponge", "_replay_sponge", "_sponge_rows", "_SpongeRows",
        "sponge_rounds", "EXTRA_ROUNDS", "MIMC_EXTRA_ROUNDS",
        "_round_constant",
    }
    for path in SRC.rglob("*.py"):
        assert not _names(path) & deleted, path
        if path == MIMC:
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            # x⁵: pow(_, 5, _), or the t² / t⁴ chain
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "pow":
                assert not (
                    len(node.args) == 3
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == 5
                ), (path, node.lineno)
            if isinstance(node, ast.Name):
                assert node.id not in {"t2", "t4", "t2_val", "t4_val"}, (
                    path, node.lineno
                )
            # rc_i = sha256(seed ‖ u32(i)) mod p, in the sponge's packages
            # (snark.groth16 draws its batching scalars the same way)
            if isinstance(node, ast.FunctionDef) and path.parent.name in (
                "lookup", "aggregate", "r1cs"
            ):
                assert not {"sha256", "to_bytes", "from_bytes"} <= _calls(
                    node
                ), (path, node.name)
    # lookup/argument.py hands the sponge over whole: nothing that talks
    # to mimc allocates or enforces one variable or row at a time.
    argument = ast.parse((SRC / "lookup" / "argument.py").read_text())
    for node in ast.walk(argument):
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(n, ast.Name) and n.id == "mimc" for n in ast.walk(node)
        ):
            assert not _calls(node) & {"new_private", "enforce"}, node.name
    # one path each: no parameter was added to select another
    for function, parameters in (
        (LookupEngine.__init__, "self cs mode recipe"),
        (LookupEngine.finalize, "self mark"),
        (split_model, "cs mode num_segments"),
        (ConstraintSystem.enforce_rows, "self block tag start stop"),
    ):
        assert list(inspect.signature(function).parameters) == (
            parameters.split()
        )
