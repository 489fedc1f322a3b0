"""Whole-layer dot lowering vs the per-term oracle, and its invariants.

* differential: random small dot layers compile to the same constraint
  system (rows in order, tags, variables, witness, recipe, accounting)
  through ``CircuitComputer._dot_linear`` and through
  :mod:`tests.dot_oracle`;
* the duplicate-tap completeness bug (two taps of one dot reading the
  same wire) and its cancel-to-zero corner;
* block rows read and mutate like dict rows;
* structure guard: one lowering, one slot-packing function.
"""

import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import compute
from repro.core.circuit.compute import CircuitComputer, CompilerOptions
from repro.core.lang.program import DotLayerOp, GatherOp, ZkProgram
from repro.core.lang.types import Privacy
from repro.core.privacy import knit
from repro.core.reuse.cache import CacheService
from repro.field.counters import count_ops
from repro.field.fp import BN254_FR_MODULUS
from repro.nn.graph import INPUT
from repro.r1cs import system as r1cs_system
from repro.r1cs.lc import LinearCombination
from repro.snark import groth16
from tests.conftest import no_derivation
from tests.dot_oracle import oracle_compute
from tests.replay_oracle import named


def dot_program(
    weights, cols, x, bias=None, requant=0, final=False, gather=None,
    public_image=False,
):
    """A hand-built program: ``x`` [-> gather] -> one dot layer."""
    weights = np.asarray(weights)
    if weights.ndim == 1:
        weights = weights[None, :]
    cols = np.asarray(cols, dtype=np.int64)
    if cols.ndim == 1:
        cols = cols[:, None]
    x = np.asarray(x, dtype=np.int64)
    rows = weights.shape[0]
    bias = np.zeros(rows, dtype=np.int64) if bias is None else np.asarray(bias)
    ops, source, feed = [], INPUT, x
    if gather is not None:
        feed = x[np.asarray(gather)]
        ops.append(GatherOp(
            name="pick", inputs=(INPUT,), output="pick", out_values=feed,
            sources=np.array([(0, pos) for pos in gather]),
        ))
        source = "pick"
    row_of_dot = np.tile(np.arange(rows), cols.shape[1])
    col_of_dot = np.repeat(np.arange(cols.shape[1]), rows)
    taps = np.where(cols > 0, feed[np.maximum(cols, 1) - 1], 0)  # (n, cols)
    acc = np.array([
        sum(int(w) * int(t) for w, t in zip(weights[r], taps[:, c]))
        + int(bias[r])
        for r, c in zip(row_of_dot, col_of_dot)
    ])
    ops.append(DotLayerOp(
        name="dot", inputs=(source,), output="dot", out_values=acc >> requant,
        weight_rows=weights, row_of_dot=row_of_dot, col_of_dot=col_of_dot,
        input_cols=cols, bias=bias, acc_values=acc, requant=requant,
        weights_private=public_image, layer_kind="fc",
    ))
    return ZkProgram(
        name="net", input_shape=x.shape, input_values=x,
        image_privacy=Privacy.PUBLIC if public_image else Privacy.PRIVATE,
        weights_privacy=Privacy.PRIVATE if public_image else Privacy.PUBLIC,
        ops=ops, output_name="dot" if final else "",
    )


def rows_of(cs):
    return [(c.tag, c.a.terms, c.b.terms, c.c.terms) for c in cs.constraints]


def assert_same_system(got, want):
    assert rows_of(got.cs) == rows_of(want.cs)
    assert got.cs.num_public == want.cs.num_public
    assert got.cs.num_private == want.cs.num_private
    assert got.cs.dense_assignment() == want.cs.dense_assignment()
    assert named(got.recipe) == named(want.recipe)
    assert got.cs.layer_ranges == want.cs.layer_ranges
    assert got.gadget_stats == want.gadget_stats
    assert [(w.name, w.work_units, w.constraints) for w in got.layer_work] == [
        (w.name, w.work_units, w.constraints) for w in want.layer_work
    ]
    for field in ("lc_terms", "knit_constraints", "knit_expressions"):
        assert getattr(got, field) == getattr(want, field), field


def outcome(compute_system):
    """The computed system, or the ``ValueError`` computing it raised."""
    try:
        return compute_system()
    except ValueError as error:
        return error


def both_ways(program, **options):
    """Both lowerings of ``program``: the same system, or (a strict output
    outside its range proof) the same error."""
    with count_ops() as got_ops:
        got = outcome(CircuitComputer(program, CompilerOptions(**options)).compute)
    with count_ops() as want_ops:
        want = outcome(lambda: oracle_compute(program, CompilerOptions(**options)))
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
        assert options.get("gadget_mode") == "strict"
        return got
    assert_same_system(got, want)
    for tally in ("lc_term", "field_add", "field_mul"):
        assert getattr(got_ops, tally) == getattr(want_ops, tally), tally
    return got


@st.composite
def dot_layers(draw):
    n = draw(st.integers(1, 30))
    num_cols = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 5))
    size = draw(st.integers(1, 40))
    x = draw(st.lists(st.integers(0, 255), min_size=size, max_size=size))
    # 0 = padded tap; positions repeat freely (repeated wires).
    cols = draw(st.lists(
        st.lists(st.integers(0, size), min_size=num_cols, max_size=num_cols),
        min_size=n, max_size=n,
    ))
    weights = draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=rows, max_size=rows,
    ))
    if draw(st.booleans()):  # leave the int64 / slot-digit fast lane
        sign = draw(st.sampled_from([1, -1]))
        weights[draw(st.integers(0, rows - 1))][draw(st.integers(0, n - 1))] = (
            sign << 40
        )
    bias = (
        draw(st.lists(st.integers(-500, 500), min_size=rows, max_size=rows))
        if draw(st.booleans()) else None
    )
    return dict(
        weights=weights, cols=cols, x=x, bias=bias,
        requant=draw(st.integers(0, 8)), final=draw(st.booleans()),
    )


class TestDifferential:
    @given(
        layer=dot_layers(),
        knit_on=st.booleans(),
        knit_batch=st.sampled_from([None, 1, 2]),
        gadget_mode=st.sampled_from(["lean", "strict"]),
        cached=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_array_lowering_equals_term_loop(
        self, layer, knit_on, knit_batch, gadget_mode, cached
    ):
        got = both_ways(
            dot_program(**layer), knit=knit_on, knit_batch=knit_batch,
            gadget_mode=gadget_mode, record_recipe=True,
            cache=cached,
        )
        if gadget_mode == "lean":
            assert got.cs.is_satisfied()

    @given(layer=dot_layers(), gadget_mode=st.sampled_from(["lean", "strict"]))
    @settings(max_examples=40, deadline=None)
    def test_public_image_private_weights(self, layer, gadget_mode):
        got = both_ways(
            dot_program(**layer, public_image=True), gadget_mode=gadget_mode,
            record_recipe=True,
        )
        if gadget_mode == "lean":
            assert got.cs.is_satisfied()

    def test_shared_dots_leave_rows_open_across_runs(self, monkeypatch):
        """Gadget sharing drops dots, so a run of dots no longer ends on a
        knit-row boundary: the open row carries into the next run."""
        program = dot_program(
            weights=[[1, 2], [1, 2], [3, 4], [1, 2], [6, 5]],
            cols=[[1, 1, 2, 1, 3, 2, 1], [2, 2, 3, 2, 1, 3, 2]],
            x=[7, 200, 31], requant=1,
        )
        monkeypatch.setattr(compute, "_CHUNK_ENTRIES", 12)
        got = both_ways(program, sparse=True, knit_batch=3, record_recipe=True)
        assert got.gadget_stats.shared_outputs > 0
        assert got.knit_constraints > 2
        assert got.cs.is_satisfied()


class TestRepeatedWire:
    """``dict(zip(vars, coeffs))`` used to keep the last coefficient only."""

    GATHER = dict(weights=[2, 7, 11], cols=[1, 2, 3], x=[5, 9], gather=[0, 1, 0])

    @pytest.mark.parametrize("gadget_mode", ["lean", "strict"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_gather_with_repeated_source(self, gadget_mode, sparse):
        result = CircuitComputer(
            dot_program(**self.GATHER),
            CompilerOptions(gadget_mode=gadget_mode, sparse=sparse,
                           sparse_share=False),
        ).compute()
        assert result.cs.is_satisfied()
        packed = next(
            c for c in result.cs.constraints if c.tag.endswith(("/knit", "/eq"))
        )
        x0, x1 = 1, 2
        assert packed.a.terms[x0] == 13 and packed.a.terms[x1] == 7

    @pytest.mark.parametrize("gadget_mode", ["lean", "strict"])
    def test_dense_and_sparse_rows_identical(self, gadget_mode):
        dense, sparse = (
            CircuitComputer(
                dot_program(**self.GATHER),
                CompilerOptions(gadget_mode=gadget_mode, sparse=flag,
                               sparse_share=False),
            ).compute()
            for flag in (False, True)
        )
        assert rows_of(dense.cs) == rows_of(sparse.cs)

    @pytest.mark.parametrize("gadget_mode", ["lean", "strict"])
    def test_public_image_private_weights(self, gadget_mode):
        """Roles swapped: the repeated *weight variable* case cannot occur
        (one variable per tap), but the repeated feature value must still
        give a satisfied system."""
        result = CircuitComputer(
            dot_program(**self.GATHER, public_image=True),
            CompilerOptions(gadget_mode=gadget_mode),
        ).compute()
        assert result.cs.is_satisfied()

    def test_merged_coefficient_cancelling_to_zero_vanishes(self):
        program = dot_program(
            weights=[4, 7, -4], cols=[1, 2, 3], x=[5, 9], gather=[0, 1, 0]
        )
        result = both_ways(program)
        assert result.cs.is_satisfied()
        packed = result.cs.constraints[-1].a.terms
        assert 1 not in packed and packed[2] == 7
        assert result.lc_terms == both_ways(dot_program(
            weights=[7], cols=[1], x=[9]
        )).lc_terms


class TestBlockRows:
    def compiled(self):
        rng = np.random.default_rng(2)
        return CircuitComputer(dot_program(
            rng.integers(-9, 10, (4, 6)), rng.integers(0, 11, (6, 12)),
            rng.integers(0, 256, 10), requant=3,
        )).compute()

    def test_each_read_builds_fresh_dict_rows(self):
        cs = self.compiled().cs
        first, again = cs.constraints[-1], cs.constraints[-1]
        assert type(first.a) is LinearCombination and first.a.terms
        assert first.a == again.a and first.a is not again.a
        assert [c.a.terms for c in cs.constraints[-3:]] == [
            c.a.terms for c in list(cs.constraints)[-3:]
        ]

    def test_setup_prove_verify_read_no_dict(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was read")

        cs = self.compiled().cs
        monkeypatch.setattr(r1cs_system, "_run_constraints", no_rows)
        keys = groth16.setup(cs, rng=random.Random(1))
        proof = groth16.prove(keys.proving_key, cs, rng=random.Random(2))
        assert groth16.verify(keys.verifying_key, cs.public_values(), proof)
        assert not cs.violations()

    def test_editing_a_read_row_reaches_no_prover(self):
        untouched = self.compiled().cs.to_csr(assignment=False)
        cs = self.compiled().cs
        row = cs.constraints[-1]
        assert row.a.terms
        row.a.terms.clear()
        with pytest.raises(TypeError):
            del cs.constraints[-1]
        with pytest.raises(TypeError):
            cs.constraints[-1] = row
        csr = cs.to_csr(assignment=False)
        assert csr.a.nnz == untouched.a.nnz
        assert csr.num_rows == untouched.num_rows == cs.num_constraints
        assert cs.is_satisfied()

    def test_copy_and_equality_go_through_the_dict(self):
        row = self.compiled().cs.constraints[-1]
        clone = row.a.copy()
        assert clone == row.a and clone.terms is not row.a.terms

    def test_bulk_allocation_matches_one_at_a_time(self):
        from repro.r1cs.system import ConstraintSystem

        bulk, single = ConstraintSystem(), ConstraintSystem()
        values = [3, -7, 0, 1 << 70]
        assert bulk.allocate(values) == single.new_private(values[0])
        assert bulk.allocate(values, public=True) == single.new_public(values[0])
        for v in values[1:]:
            single.new_private(v)
            single.new_public(v)
        assert bulk.assignment().private == single.assignment().private
        assert bulk.assignment().public == single.assignment().public
        assert bulk.allocate([5]) == single.new_private(5) == len(values) + 1
        assert bulk.allocate([5], public=True) == single.new_public(5)


def packed(side, width):
    """Each coefficient of ``side`` rebuilt from its slot digits, which
    sit ``width`` bits apart."""
    digits = side.digits
    values = digits.low.astype(object)
    for run in digits.knit:
        assert run.width == width
        for k, slot in enumerate(run.digits, 1):
            values[run.terms()] += slot.astype(object) * (1 << (width * k))
    return [int(v) % BN254_FR_MODULUS for v in values]


def assert_same_side(got, want):
    """Equal rows, variables and digits, field by field."""
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.variables.tolist() == want.variables.tolist()
    mine, theirs = got.digits, want.digits
    assert mine.low.tolist() == theirs.low.tolist()
    assert mine.wide.tolist() == theirs.wide.tolist()
    assert mine.wide_values == theirs.wide_values
    assert len(mine.knit) == len(theirs.knit)
    for run, other in zip(mine.knit, theirs.knit):
        for field, value in zip(run, other):
            assert np.array_equal(field, value)


class TestPackSlots:
    def test_lanes_agree(self):
        """Digit lane (arrays) and exact lane (lists) on the same entries;
        packing builds no coefficient, and the cache changes no digit."""
        rng = np.random.default_rng(9)
        size, p = 4000, BN254_FR_MODULUS
        rows = rng.integers(0, 40, size)
        cols = rng.integers(-3, 60, size)
        slots = rng.integers(0, 9, size)
        rows, cols, slots = np.unique(np.stack([rows, cols, slots]), axis=1)
        coeffs = rng.integers(-(1 << 20), 1 << 20, rows.size)
        coeffs[coeffs == 0] = 1
        with no_derivation():
            fast = knit.pack_slots(
                rows, cols, slots, coeffs, 40, 28, p, CacheService()
            )
            plain = knit.pack_slots(rows, cols, slots, coeffs, 40, 28, p)
            slow = knit.pack_slots(
                rows.tolist(), cols.tolist(), slots.tolist(),
                coeffs.tolist(), 40, 28, p,
            )
        assert_same_side(fast, plain)
        assert fast.indptr.tolist() == slow.indptr.tolist()
        for side in (fast, slow):  # the kept slot digits pack to the coeffs
            assert packed(side, 28) == list(side.coeffs)
        for row in range(40):
            lo, hi = fast.indptr[row], fast.indptr[row + 1]
            assert dict(
                zip(fast.variables[lo:hi].tolist(), fast.coeffs[lo:hi])
            ) == dict(zip(slow.variables[lo:hi].tolist(), slow.coeffs[lo:hi]))
            for col, value in zip(
                slow.variables[lo:hi].tolist(), slow.coeffs[lo:hi]
            ):
                mask = (rows == row) & (cols == col)
                assert value == sum(
                    int(c) << (28 * int(s))
                    for c, s in zip(coeffs[mask], slots[mask])
                ) % p

    def test_out_of_lane_coefficient_is_packed_exactly(self):
        p = BN254_FR_MODULUS
        big = 1 << 40
        side = knit.pack_slots(
            np.array([0, 0, 0]), np.array([7, 7, 8]), np.array([0, 1, 1]),
            np.array([big, -3, 5]), 1, 24, p,
        )
        assert dict(zip(side.variables.tolist(), side.coeffs)) == {
            7: (big - (3 << 24)) % p, 8: 5 << 24
        }
        # 2^40 is wider than its slot: the digits are cut afresh, balanced.
        assert packed(side, 24) == list(side.coeffs)
        (run,) = side.digits.knit
        assert max(
            np.abs(side.digits.low).max(), np.abs(run.digits).max()
        ) <= 1 << 23

    def test_cache_changes_no_row(self):
        """With the cache on, the compile builds no coefficient, and the
        rows are those of the compile without it."""
        rng = np.random.default_rng(4)
        program = dot_program(  # 40 dots, 10 to a row: four whole rows
            rng.integers(-9, 10, (5, 20)), rng.integers(0, 41, (20, 8)),
            rng.integers(0, 256, 40), requant=5,
        )
        with no_derivation():
            cached = CircuitComputer(
                program, CompilerOptions(cache=True)
            ).compute()
            plain = CircuitComputer(
                program, CompilerOptions(cache=False)
            ).compute()
        assert cached.knit_constraints == 4
        for mine, theirs in zip(cached.cs._runs_filed(),
                                plain.cs._runs_filed()):
            for name in ("a", "b", "c"):
                side = getattr(mine.block, name)
                if side is not None:
                    assert_same_side(side, getattr(theirs.block, name))
        assert rows_of(cached.cs) == rows_of(plain.cs)


def test_one_lowering_and_one_packer_under_src():
    """The superseded per-term paths cannot grow back: no second dot
    lowering, exactly one function shifts expressions into knit slots, and
    the circuit-computation module stays smaller than it was."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    sources = {
        str(path.relative_to(src)): path.read_text() for path in src.rglob("*.py")
    }
    for gone in ("_dot_zeno", "_dot_zeno_sparse", "_dot_private_weights",
                 "_row_plan_cache", "_delta_power"):
        assert not any(gone in text for text in sources.values()), gone
    # Slot packing = scaling a coefficient by 2^(slot_bits * slot).
    shifts = re.compile(r"slot_bits \* slot")
    owners = {name for name, text in sources.items() if shifts.search(text)}
    assert owners == {"core/privacy/knit.py"}
    packers = re.findall(
        r"^def (\w+)\(", sources["core/privacy/knit.py"], flags=re.M
    )
    assert [name for name in packers if "pack" in name] == ["pack_slots"]
    callers = {
        name for name, text in sources.items() if "pack_slots(" in text
    }
    assert callers == {"core/privacy/knit.py", "core/circuit/gadgets.py"}
    compute = sources["core/circuit/compute.py"]
    assert compute.count("\n") < 1247
    assert compute.count("def _dot_") == 3  # linear, baseline, both-private
