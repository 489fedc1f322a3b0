"""The row evaluator's two lanes (``repro.r1cs.csr``).

A row is summed slot by slot in int64 over the compiler's slot digits;
a term whose sum cannot be bounded into int64 — a coefficient without
digits, or a witness value past the row's limit — is one exact product on
the bigint lane.  Whatever the split, every row must equal the naive
``sum c * z mod p``, and the satisfaction check must agree with
``a * b - c mod p``.  The census tests pin where the lanes fall on real
circuits, so that a silent fall back to big integers fails a test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.fp import BN254_FR
from repro.r1cs.csr import (
    _WIDE,
    _Z_BOUND,
    SignedWitness,
    bigint_lane,
    evaluate_rows,
    unsatisfied_rows,
)
from repro.r1cs.lc import Digits, LinearCombination, RowBlock, RowSide
from repro.r1cs.system import ConstraintSystem

P = BN254_FR.modulus
VARIABLES = 12  # private variables 1..12; 0 is the constant one


def witness_value():
    """Small signed, near the int64 edge, or field-wide."""
    return st.one_of(
        st.integers(-(2**20), 2**20),
        st.integers(-(2**63), 2**63),
        st.integers(0, P - 1),
    ).map(lambda v: v % P)


@st.composite
def side(draw, rows: int):
    """``rows`` rows of a RowSide: knit digits of 1, 2 or 11 slots at a
    drawn width (the two-width concatenation of :meth:`RowSide.concat`
    included), or coefficients alone — small signed ones and field-wide
    constants; or the middle rows of a longer side, or a side gathered
    from a knit side's rows (in any row order) and loose terms; rows may
    be empty."""
    kind = draw(st.sampled_from(["plain", "sliced", "gathered"]))
    if kind == "sliced":
        return draw(plain_side(rows + 2)).slice(1, rows + 1)
    if kind == "plain":
        return draw(plain_side(rows))
    knit = draw(plain_side(rows))
    target = np.array(draw(st.lists(
        st.integers(0, rows - 1), min_size=rows, max_size=rows
    )), dtype=np.int64)
    loose = draw(st.lists(st.tuples(
        st.integers(0, rows - 1), st.integers(0, VARIABLES),
        st.one_of(st.integers(-(2**20), 2**20), st.integers(0, P - 1)),
    ), max_size=6))
    pieces = [(np.repeat(target, np.diff(knit.indptr)), knit)]
    if loose:
        at, variables, coeffs = (np.array(part) for part in zip(*loose))
        pieces.append((at, variables, coeffs.astype(object)))
    return RowSide.gather(rows, pieces, P)


@st.composite
def plain_side(draw, rows: int):
    lengths = [draw(st.integers(0, 5)) for _ in range(rows)]
    terms = sum(lengths)
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    variables = draw(st.lists(
        st.integers(0, VARIABLES), min_size=terms, max_size=terms
    ))
    kind = draw(st.sampled_from(["digits", "coeffs", "two widths"]))
    if kind == "coeffs":
        coeffs = draw(st.lists(
            st.one_of(st.integers(-(2**70), 2**70), st.integers(0, P - 1)),
            min_size=terms, max_size=terms,
        ))
        return RowSide.of(indptr, variables, [c % P for c in coeffs], P)
    if kind == "two widths" and rows >= 2:
        cut = draw(st.integers(1, rows - 1))
        head = _knit(draw, lengths[:cut], variables[:sum(lengths[:cut])])
        tail = _knit(draw, lengths[cut:], variables[sum(lengths[:cut]):])
        return RowSide.concat([head, tail])
    return _knit(draw, lengths, variables)


def _knit(draw, lengths, variables):
    slots = draw(st.sampled_from([1, 2, 11]))
    width = draw(st.integers(4, 254 // slots))
    half = 2 ** (min(width, 62) - 1) if slots > 1 else 2**61
    terms = len(variables)
    digits = np.array(
        draw(st.lists(
            st.integers(-half + 1, half - 1),
            min_size=slots * terms, max_size=slots * terms,
        )),
        dtype=np.int64,
    ).reshape(slots, terms)
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    return RowSide(indptr, variables, Digits.slots(digits, indptr, width, P))


@st.composite
def system(draw):
    """A constraint system of row runs (three drawn sides each, or an
    absent B and C) and dict-LC constraints, over a drawn witness."""
    cs = ConstraintSystem()
    cs.allocate(draw(st.lists(
        witness_value(), min_size=VARIABLES, max_size=VARIABLES
    )))
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            rows = draw(st.integers(1, 5))
            block = RowBlock(draw(side(rows)), draw(side(rows)),
                             draw(side(rows)))
            if draw(st.booleans()):
                block = RowBlock(draw(side(rows)))  # B = 1, C = 0
            cs.enforce_rows(block)
        else:
            cs.enforce(*(
                LinearCombination(cs.field, dict(draw(st.lists(
                    st.tuples(st.integers(0, VARIABLES),
                              st.integers(1, P - 1)),
                    max_size=4,
                ))))
                for _ in range(3)
            ))
    return cs


def naive_rows(csr):
    z = csr.z
    out = []
    for matrix in csr.matrices():
        ptr, idx = matrix.indptr.tolist(), matrix.indices.tolist()
        out.append([
            sum(c * z[i] for c, i in zip(matrix.coeffs[lo:hi], idx[lo:hi]))
            % P
            for lo, hi in zip(ptr, ptr[1:])
        ])
    return tuple(out)


class TestEvaluator:
    @given(system())
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_the_naive_bigint_sum(self, cs):
        csr = cs.to_csr()
        expected = naive_rows(csr)
        assert evaluate_rows(csr) == expected
        a, b, c = expected
        assert unsatisfied_rows(csr) == [
            j for j in range(csr.num_rows) if (a[j] * b[j] - c[j]) % P
        ]

    def test_empty_rows_sum_to_zero(self):
        """``np.add.reduceat`` at a repeated offset returns the term there,
        not 0: empty rows first, between and last."""
        cs = ConstraintSystem()
        cs.allocate([5, P - 7])
        row_side = RowSide.of([0, 0, 2, 2, 3, 3], [1, 2, 2], [3, 1, P - 1], P)
        cs.enforce_rows(RowBlock(row_side))
        assert evaluate_rows(cs.to_csr())[0] == [0, 8, 0, 7, 0]

    def test_every_slice_of_a_knit_side(self):
        """Slices that start, end or lie wholly between a knit run's rows
        keep exactly their own rows' digits."""
        digits = np.array([[1, -2, 3], [4, 5, -6]])
        indptr = np.array([0, 2, 2, 2, 3])
        knit = RowSide(indptr, [1, 2, 1], Digits.slots(digits, indptr, 8, P))
        for start in range(5):
            for stop in range(start, 5):
                cs = ConstraintSystem()
                cs.allocate([7, P - 11])
                cs.enforce_rows(RowBlock(knit.slice(start, stop)))
                csr = cs.to_csr()
                assert evaluate_rows(csr) == naive_rows(csr)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6).flatmap(
        lambda rows: st.tuples(*(side(n) for n in rows))
    ))
    @settings(max_examples=40, deadline=None)
    def test_slices_of_many_runs_cut_only_their_runs(self, sides):
        """A side of many knit runs: every slice keeps exactly the runs a
        run-by-run walk keeps, cut the same way, and their first and last
        rows as its span."""
        sides = [s for s in sides if s.digits is not None]
        if not sides:
            return
        joined = RowSide.concat(sides)
        digits = joined.digits
        assert digits.runs_span().tolist() == [
            [int(run.rows[0]) for run in digits.knit],
            [int(run.rows[-1]) for run in digits.knit],
        ]
        rows = len(joined)
        for start in range(rows + 1):
            for stop in range(start, rows + 1):
                got = digits.slice(joined.indptr, start, stop)
                want = [
                    run for run in digits.knit
                    if np.any((run.rows >= start) & (run.rows < stop))
                ]
                assert len(got.knit) == len(want)
                for cut, run in zip(got.knit, want):
                    keep = (run.rows >= start) & (run.rows < stop)
                    assert cut.rows.tolist() == (run.rows[keep] - start).tolist()
                    assert cut.width == run.width and cut.scale == run.scale
                assert got.runs_span().tolist() == [
                    [int(run.rows[0]) for run in got.knit],
                    [int(run.rows[-1]) for run in got.knit],
                ]

    def test_rows_just_under_and_over_the_int64_bound(self):
        """Two unit terms at the row's limit sum just under 2^63 on the
        int64 lane; one more and that term takes the bigint lane.  Both
        signs, and the values stay exact."""
        cs = ConstraintSystem()
        cs.allocate([0, 0])
        cs.enforce_rows(RowBlock(RowSide.of([0, 2], [1, 2], [1, 1], P)))
        limit = int(cs.to_csr().a.limit()[0])
        assert 2**62 < 2 * limit < 2**63
        for sign in (1, -1):
            for extra, lane in ((0, 0), (1, 1)):
                cs.assign_run(1, [sign * (limit + extra), sign * limit])
                csr = cs.to_csr()
                assert bigint_lane(csr)[0].size == lane
                assert evaluate_rows(csr)[0] == [
                    sign * (2 * limit + extra) % P
                ]

    def test_field_wide_witness_and_constants_take_the_bigint_lane(self):
        cs = ConstraintSystem()
        cs.allocate([P - 3, P // 3])  # -3, and a field-wide value
        cs.enforce_rows(RowBlock(RowSide.of(
            [0, 3], [1, 2, 0], [1, 1, P // 5], P,  # field-wide constant
        )))
        csr = cs.to_csr()
        assert bigint_lane(csr)[0].tolist() == [1, 2]
        assert evaluate_rows(csr)[0] == [(-3 + P // 3 + P // 5) % P]


class TestCentredWitness:
    """The centred int64 witness a system keeps from what ``allocate``,
    ``assign_run`` and ``assign`` are handed equals the one centred from
    the canonical values, at the edges of the int64 lane."""

    EDGES = [
        (P - 1) // 2, -((P - 1) // 2), _Z_BOUND, -_Z_BOUND, _Z_BOUND + 1,
        -(_Z_BOUND + 1), 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, P - 1,
        0, 1, -1,
    ]

    @staticmethod
    def assert_centred(cs):
        kept = cs.signed_assignment()
        assert kept.z == cs.dense_assignment()
        assert kept.signed.tolist() == (
            SignedWitness.of(kept.z, P).signed.tolist()
        )
        expected = [
            v if v <= _Z_BOUND else v - P if v >= P - _Z_BOUND else _WIDE
            for v in kept.z
        ]
        assert kept.signed.tolist() == expected

    def test_edges_handed_as_ints_and_arrays(self):
        cs = ConstraintSystem()
        cs.allocate(self.EDGES)
        cs.allocate(self.EDGES[:4], public=True)
        fits = [v for v in self.EDGES if -(2**63) <= v < 2**63]
        cs.allocate(np.array(fits, dtype=np.int64))
        cs.new_private(2**63 - 1)
        cs.new_public(-(2**63))
        self.assert_centred(cs)
        cs.enforce_rows(RowBlock(RowSide.of(
            [0, cs.num_private], list(range(1, cs.num_private + 1)),
            [1] * cs.num_private, P,
        )))
        csr = cs.to_csr()
        assert bigint_lane(csr)[0].size > 0  # the wide values
        assert evaluate_rows(csr) == naive_rows(csr)

    def test_unassigned_then_assigned(self):
        cs = ConstraintSystem()
        first = cs.allocate([None, 5, None])
        cs.new_private()
        with pytest.raises(ValueError):
            cs.signed_assignment()
        cs.assign(first, -7)
        cs.assign_run(first + 2, [2**63 - 1, P - 3])
        self.assert_centred(cs)

    def test_reassignment_replaces_the_centred_values(self):
        cs = ConstraintSystem()
        first = cs.allocate(np.array([1, -2, 3], dtype=np.int64))
        publics = cs.allocate([4, 5], public=True)
        before = cs.to_csr().witness()
        cs.assign_run(first, np.array([-(2**63), 2**62, -9], dtype=np.int64))
        cs.assign_run(publics, [P - 1, (P - 1) // 2])
        cs.assign(first + 1, -((P - 1) // 2))
        self.assert_centred(cs)
        after = cs.to_csr().witness()
        assert after is not before
        assert after.signed.tolist() == cs.signed_assignment().signed.tolist()
        # [1, publics, privates]: ±(p-1)/2 and -2^63 past the lane
        assert after.signed.tolist() == [1, -1, _WIDE, _WIDE, _WIDE, -9]
        with pytest.raises(IndexError):
            cs.assign_run(first + 1, [1, 2, 3])
        self.assert_centred(cs)


def compiled(name, scale, **options):
    from repro.core.compiler import CompilerOptions, ZenoCompiler
    from repro.nn.data import synthetic_images
    from repro.nn.models import build_model

    model = build_model(name, scale)
    image = synthetic_images(model.input_shape, 1, seed=3)[0]
    return ZenoCompiler(CompilerOptions(**options)).compile_model(
        model, image
    ).cs


def field_wide(value):
    return min(value, P - value) >= 2**62


def assert_bigint_terms_are_field_wide(cs):
    """Every bigint-lane term of ``cs`` touches a field-wide wire or has a
    coefficient without digits."""
    csr = cs.to_csr()
    for matrix, terms in zip(csr.matrices(), bigint_lane(csr)):
        wide = set(matrix.digits.wide.tolist())
        for term in terms.tolist():
            assert field_wide(csr.z[matrix.indices[term]]) or term in wide


class TestLaneCensus:
    """Where the lanes fall on real circuits, for their compiled witness."""

    def test_lean_lcs_full_takes_no_bigint_term(self):
        csr = compiled("LCS", "full", gadget_mode="lean").to_csr()
        assert [terms.size for terms in bigint_lane(csr)] == [0, 0, 0]
        assert len(csr.a.digits.knit) > 0  # knit rows on the int64 lane

    def test_lean_lcs_full_split_takes_no_bigint_term(self):
        """The split's instances keep their knit rows' slot digits."""
        from repro.aggregate.split import split_model

        split = split_model(compiled("LCS", "full", gadget_mode="lean"))
        assert split.num_instances > 1
        knit = 0
        for inst in split.instances:
            csr = inst.cs.to_csr()
            assert [terms.size for terms in bigint_lane(csr)] == [0, 0, 0]
            knit += len(csr.a.digits.knit)
        assert knit > 0

    @pytest.mark.parametrize("relu_mode", ["bits", "lookup"])
    def test_strict_tiny_bigint_terms_are_field_wide(self, relu_mode):
        """Every bigint-lane term of TINY:micro strict touches a
        field-wide wire (a sponge, LogUp or boundary wire) or has a
        field-wide constant — none is there for want of digits or of a
        bound."""
        assert_bigint_terms_are_field_wide(compiled(
            "TINY", "micro", gadget_mode="strict", relu_mode=relu_mode
        ))

    def test_strict_tiny_hashed_split_bigint_terms_are_field_wide(self):
        from repro.aggregate.split import split_model

        split = split_model(compiled(
            "TINY", "micro", gadget_mode="strict", relu_mode="lookup"
        ), "hashed")
        for inst in split.instances:
            assert_bigint_terms_are_field_wide(inst.cs)

    def test_audited_compile_keeps_its_rows(self):
        """An audit reads every row; the circuit it proves is the one an
        unaudited compile proves — the same matrices, knit digits and
        lanes (15,198 A terms took the bigint lane when a read unpacked
        the rows)."""
        plain = compiled("LCS", "micro", gadget_mode="strict")
        audited = compiled(
            "LCS", "micro", gadget_mode="strict", audit="report"
        )
        assert_same_matrices(audited.to_csr(), plain.to_csr())
        assert lane_census(audited) == lane_census(plain)
        assert len(audited.to_csr().a.digits.knit) > 0

    def test_a_full_read_leaves_the_rows_packed(self):
        read = compiled("LCS", "micro", gadget_mode="lean")
        never = compiled("LCS", "micro", gadget_mode="lean")
        rows = list(read.constraints)
        assert len(rows) == read.num_constraints
        assert sum(len(lc.terms) for row in rows
                   for lc in (row.a, row.b, row.c)) > 0
        more = RowBlock(RowSide.of([0, 1, 3], [1, 2, 1], [5, 7, P - 1], P))
        for cs in (read, never):
            cs.enforce_rows(more, tag="more")
        assert_same_matrices(read.to_csr(), never.to_csr())
        assert lane_census(read) == lane_census(never)

    def test_served_audit_keeps_its_digits(self, monkeypatch):
        """A worker's ``--audit`` gate reads the rows before the set-up
        builds the CSR; the proof still runs on the packed rows."""
        from repro.core.spec import CircuitSpec
        from repro.serve import workers

        circuit = CircuitSpec("LCS", scale="micro", gadgets="strict")
        spec = {**circuit.to_json(), "deterministic": True}
        payload = [{"job_id": "j", "image": circuit.image(5)}]
        served = []
        for audit in (False, True):
            monkeypatch.setattr(workers, "_WARM", {})
            out = workers.prove_batch(dict(spec, audit=audit), payload)
            assert out["results"][0]["verified"]
            (entry,) = workers._WARM.values()
            assert entry.audited == audit
            served.append(entry.prover.cs)
        plain, audited = served
        assert_same_matrices(audited.to_csr(), plain.to_csr())
        assert lane_census(audited) == lane_census(plain)

    def test_rows_cannot_be_edited(self):
        cs = ConstraintSystem()
        x = cs.new_private(3)
        cs.enforce(cs.lc_variable(x), cs.lc_constant(1), cs.lc_constant(3))
        with pytest.raises(TypeError):
            del cs.constraints[0]
        with pytest.raises(AttributeError):
            cs.constraints.append(cs.constraints[0])
        assert cs.num_constraints == 1 and cs.is_satisfied()


def lane_census(cs):
    return [terms.size for terms in bigint_lane(cs.to_csr())]


def assert_same_matrices(mine, theirs):
    """Equal ``indptr`` / ``indices`` / ``coeffs`` and slot digits."""
    for ours, other in zip(mine.matrices(), theirs.matrices()):
        assert ours.indptr.tolist() == other.indptr.tolist()
        assert ours.indices.tolist() == other.indices.tolist()
        assert tuple(ours.coeffs) == tuple(other.coeffs)
        got, want = ours.digits, other.digits
        assert got.low.tolist() == want.low.tolist()
        assert got.wide.tolist() == want.wide.tolist()
        assert len(got.knit) == len(want.knit)
        for run, expected in zip(got.knit, want.knit):
            for field, value in zip(run, expected):
                assert np.array_equal(field, value)
