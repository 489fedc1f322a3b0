"""A knit coefficient is its digits (``repro.r1cs.lc.Digits``).

The compiler stores every row coefficient as small signed slot digits
only; :meth:`Digits.coefficients` is the one place a canonical field
coefficient is built from them.  The property tests hold it to the plain
``sum_k d_k 2^(w k) mod p`` over sides cut and joined every way the
compiler and the split cut and join them; the path tests patch it to
raise and run a whole-model and a per-layer proof end to end, which must
not need it.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import fold, prove_split, setup_split, verify_aggregate
from repro.core.compiler import CompilerOptions, ZenoCompiler
from repro.core.privacy import knit
from repro.ec.backend import SimulatedBackend
from repro.field.fp import BN254_FR
from repro.nn.data import synthetic_images
from repro.nn.models import build_model
from repro.r1cs.lc import Digits, RowSide
from repro.snark import groth16
from tests.conftest import no_derivation

P = BN254_FR.modulus


def expected_value(digits, width):
    """The plain oracle: ``sum_k d_k 2^(width k) mod p``."""
    return sum(int(d) << (width * k) for k, d in enumerate(digits)) % P


@st.composite
def lengths(draw, rows):
    return [draw(st.integers(0, 4)) for _ in range(rows)]


@st.composite
def knit_side(draw):
    """``(side, coefficients)``: a side of knit digits at a drawn width —
    widths whose slots spill across 64-bit words, one wider than a word,
    digits at both ends of their range."""
    rows = draw(st.integers(1, 5))
    sizes = draw(lengths(rows))
    terms = sum(sizes)
    slots = draw(st.sampled_from([2, 3, 8, 11]))
    width = draw(st.sampled_from(
        [w for w in (5, 17, 23, 28, 30, 31, 100) if slots * w <= 254]
    ))
    half = 1 << (min(width, 62) - 1)
    digit = st.one_of(
        st.integers(-half, half - 1), st.sampled_from([-half, half - 1, 0])
    )
    digits = np.array(
        draw(st.lists(digit, min_size=slots * terms, max_size=slots * terms)),
        dtype=np.int64,
    ).reshape(slots, terms)
    indptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    side = RowSide(
        indptr, np.arange(terms), Digits.slots(digits, indptr, width, P)
    )
    return side, [expected_value(digits[:, t], width) for t in range(terms)]


@st.composite
def exact_side(draw):
    """``(side, coefficients)``: entries packed by the exact lane, whose
    digits are cut afresh, balanced, at most 32 bits apart — from
    coefficients of any size."""
    rows = draw(st.integers(1, 4))
    slot_bits = draw(st.sampled_from([20, 26, 40]))
    entries = draw(st.lists(st.tuples(
        st.integers(0, rows - 1), st.integers(0, 5), st.integers(0, 5),
        st.one_of(
            st.integers(-(2**20), 2**20), st.integers(-(2**200), 2**200),
            st.integers(0, P - 1),
        ),
    ), max_size=12, unique_by=lambda e: (e[0], e[1], e[2])))
    if not entries:
        entries = [(0, 0, 0, 1)]
    at, cols, slots, coeffs = (list(part) for part in zip(*entries))
    side = knit.pack_slots(at, cols, slots, coeffs, rows, slot_bits, P)
    merged = {}
    for row, col, slot, coeff in entries:
        merged[row, col] = merged.get((row, col), 0) + (
            coeff << (slot_bits * slot)
        )
    values = []
    for row in range(rows):
        lo, hi = side.indptr[row], side.indptr[row + 1]
        values += [merged[row, col] % P for col in side.variables[lo:hi]]
    return side, values


@st.composite
def plain_side(draw):
    """``(side, coefficients)``: one slot — small signed coefficients and
    field-wide ones, which keep their value and have no digits."""
    rows = draw(st.integers(1, 5))
    sizes = draw(lengths(rows))
    coeffs = draw(st.lists(
        st.one_of(
            st.integers(-(2**40), 2**40), st.integers(0, P - 1),
            st.sampled_from([P - 1, (P - 1) // 2, (P + 1) // 2, 1 << 62]),
        ),
        min_size=sum(sizes), max_size=sum(sizes),
    ))
    indptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    side = RowSide.of(
        indptr, np.arange(len(coeffs)), [c % P for c in coeffs], P
    )
    return side, [c % P for c in coeffs]


def any_side():
    return st.one_of(knit_side(), exact_side(), plain_side())


@st.composite
def cut_and_joined(draw):
    """A side and its coefficients after slices, concatenations and a
    gather, drawn on top of each other."""
    side, values = draw(any_side())
    for _ in range(draw(st.integers(0, 3))):
        step = draw(st.sampled_from(["slice", "concat", "gather"]))
        rows = len(side)
        if step == "slice":
            start = draw(st.integers(0, rows))
            stop = draw(st.integers(start, rows))
            lo, hi = int(side.indptr[start]), int(side.indptr[stop])
            side, values = side.slice(start, stop), values[lo:hi]
        elif step == "concat":
            other, more = draw(any_side())
            first = draw(st.booleans())
            pair = [(side, values), (other, more)][:: 1 if first else -1]
            side = RowSide.concat([s for s, _ in pair])
            values = [v for _, part in pair for v in part]
        elif rows:
            target = np.array(draw(st.lists(
                st.integers(0, rows - 1), min_size=rows, max_size=rows
            )), dtype=np.int64)
            loose = draw(st.lists(st.tuples(
                st.integers(0, rows - 1),
                st.one_of(
                    st.integers(-(2**20), 2**20), st.integers(0, P - 1)
                ),
            ), max_size=4))
            term_rows = np.repeat(target, np.diff(side.indptr))
            pieces = [(term_rows, side)]
            flat = list(values)
            if loose:
                at = np.array([row for row, _ in loose], dtype=np.int64)
                coeffs = np.array([c for _, c in loose], dtype=object)
                pieces.append((at, 0, coeffs))
                term_rows = np.concatenate((term_rows, at))
                flat += [c % P for _, c in loose]
            side = RowSide.gather(rows, pieces, P)
            # within a row, terms keep piece order
            values = [flat[k] for k in np.argsort(term_rows, kind="stable")]
    return side, values


class TestDerivation:
    @given(cut_and_joined())
    @settings(max_examples=200, deadline=None)
    def test_coefficients_are_the_digits_summed(self, drawn):
        side, values = drawn
        assert list(side.coeffs) == values
        assert all(0 <= v < P for v in side.coeffs)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_limb_join_agrees_with_python_join(self, data):
        """Every width the limb join takes, at the ends of its bound."""
        slots = data.draw(st.integers(2, 16))
        width = data.draw(st.integers(2, min(63, 254 // slots)))
        half = 1 << (width - 1)
        count = data.draw(st.integers(1, 8))
        digits = np.array(data.draw(st.lists(
            st.one_of(st.integers(-half, half - 1),
                      st.sampled_from([-half, half - 1])),
            min_size=count * slots, max_size=count * slots,
        )), dtype=np.int64).reshape(slots, count)
        indptr = np.array([0, count])
        side = RowSide(
            indptr, np.arange(count), Digits.slots(digits, indptr, width, P)
        )
        assert list(side.coeffs) == [
            expected_value(digits[:, t], width) for t in range(count)
        ]

    def test_coefficients_are_built_once(self):
        digits = np.array([[3, -4, 5], [-1, 2, 7]])
        indptr = np.array([0, 2, 3])
        side = RowSide(indptr, [1, 2, 1], Digits.slots(digits, indptr, 9, P))
        first = side.coeffs
        assert list(first) == [
            expected_value(digits[:, t], 9) for t in range(3)
        ]
        with no_derivation():
            assert side.coeffs is first


class TestProvingPathDerivesNothing:
    def test_full_compile(self):
        """LCS:full lean, the ``cnn_whole`` benchmark's compile, and its
        CSR snapshot."""
        model = build_model("LCS", "full")
        (image,) = synthetic_images(model.input_shape, 1, seed=5)
        with no_derivation():
            compiler = ZenoCompiler(CompilerOptions(gadget_mode="lean"))
            cs = compiler.compile_model(model, image).cs
            assert cs.to_csr().a.digits.knit
            assert cs.is_satisfied()

    def test_whole_model(self):
        """LCS:micro lean: a fresh compile, its proof and its verification
        — with keys set up beforehand, as a server holds them."""
        model = build_model("LCS", "micro")
        compiler = ZenoCompiler(CompilerOptions(gadget_mode="lean"))
        first, second = synthetic_images(model.input_shape, 2, seed=5)
        backend = SimulatedBackend()
        keys = groth16.setup(
            compiler.compile_model(model, first).cs, backend,
            random.Random(1),
        )
        with no_derivation():
            cs = compiler.compile_model(model, second).cs
            proof = groth16.prove(
                keys.proving_key, cs, backend, random.Random(2)
            )
            assert groth16.verify(
                keys.verifying_key, cs.public_values(), proof, backend
            )

    def test_hashed_split(self):
        """TINY:micro strict+lookup, ``hashed``: split, ``prove_split``,
        ``verify_aggregate``."""
        model = build_model("TINY", "micro", seed=3)
        compiler = ZenoCompiler(CompilerOptions(
            gadget_mode="strict", relu_mode="lookup"
        ))
        first, second = synthetic_images(model.input_shape, 2, seed=5)
        setups = setup_split(
            compiler.compile_model(model, first).split(mode="hashed"),
            crs_seed=7,
        )
        with no_derivation():
            split = compiler.compile_model(model, second).split(
                mode="hashed"
            )
            proofs = prove_split(split, setups, crs_seed=7)
            aggregate = fold(split, setups, [proofs], crs_seed=7)
            assert verify_aggregate(aggregate).ok
