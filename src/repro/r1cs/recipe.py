"""Witness recipes: one replay step per emitter call (§6.1 batch sharing).

A compilation with ``record_recipe`` appends a step for every emitter call
that allocates variables: the variables it allocated (``at``), the input
LCs it read — entry arrays ``(exprs, cols, coeffs)``, entry ``k`` the term
``coeffs[k] * var(cols[k])`` of input ``exprs[k]``, ``count`` inputs,
entries sorted by input — and ``values``, the value function the emitter
itself ran on those inputs' values.  Replaying the steps in order over a
signed mirror of the witness (:func:`mirror`) re-derives every value from
the free inputs (:class:`Inputs`: the image and the constants), so a
system compiled once is re-assigned for a new image by the emitters' own
arithmetic, never a second copy of it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

_EMPTY = np.zeros(0, dtype=np.int64)


class Inputs(NamedTuple):
    """A run of free inputs from variable ``first``: the image (``values``
    None — whoever replays writes it) or constants (weights, affine
    parameters)."""

    first: int
    count: int
    values: Optional[np.ndarray] = None

    def variables(self) -> np.ndarray:
        return np.arange(self.first, self.first + self.count)

    def replay(self, z: np.ndarray) -> None:
        if self.values is not None:
            z[self.first:self.first + self.count] = self.values


class Step(NamedTuple):
    """One emitter call: ``z[at] = values(input LCs over z)``.  With
    ``values`` None the variables are written after the last step (the
    LogUp columns, by :func:`repro.lookup.assign_lookup_columns`)."""

    at: np.ndarray
    values: Optional[Callable]
    exprs: np.ndarray = _EMPTY
    cols: np.ndarray = _EMPTY
    coeffs: np.ndarray = _EMPTY
    count: int = 0

    def variables(self) -> np.ndarray:
        return np.ravel(self.at)

    def replay(self, z: np.ndarray) -> None:
        if self.values is not None:
            z[self.at] = self.values(
                group_sums(self.exprs, self.coeffs * z[self.cols], self.count)
            )


def wire_step(at, values: Callable, x_vars: np.ndarray) -> Step:
    """A step whose inputs are the single wires ``x_vars``."""
    n = x_vars.size
    return Step(at, values, np.arange(n), x_vars, np.ones(n, np.int64), n)


def group_sums(groups: np.ndarray, terms: np.ndarray, count: int):
    """Per-group sums of ``terms`` (``groups`` ascending, ``count``
    groups), exact: an int64 prefix sum may wrap, its differences do not;
    object terms stay object."""
    per = np.bincount(groups, minlength=count)
    ends = np.cumsum(per)
    total = np.concatenate([np.zeros(1, terms.dtype), np.cumsum(terms)])
    return total[ends] - total[ends - per]


def pair_products(values: np.ndarray) -> np.ndarray:
    """``<a_j, z> * <b_j, z>`` from the a-sides' values, then the b-sides'."""
    half = values.size // 2
    return values[:half] * values[half:]


def product_step(wires: np.ndarray, a, b) -> Step:
    """The step of product wires over a side pair: each side ``(variables,
    coeffs)``, a ``(P, w)`` array of variables and ``w`` coefficients
    every product shares (:class:`repro.core.circuit.gadgets.Products`)."""
    count = wires.size
    exprs, cols, coeffs = [], [], []
    for s, (variables, side_coeffs) in enumerate((a, b)):
        width = variables.shape[1]
        exprs.append(np.repeat(np.arange(count) + s * count, width))
        cols.append(variables.reshape(-1))
        coeffs.append(np.tile(np.asarray(side_coeffs, dtype=np.int64), count))
    return Step(
        wires, pair_products,
        *(np.concatenate(x) for x in (exprs, cols, coeffs)), 2 * count,
    )


def mirror(cs) -> np.ndarray:
    """A signed int64 mirror of ``cs``'s witness for replay: entry ``v``
    holds variable ``v`` (a negative index: a public one), entry 0 the
    constant one; every other entry starts at zero."""
    z = np.zeros(cs.num_variables, dtype=np.int64)
    z[0] = 1
    return z


def replay(cs, recipe, z: np.ndarray) -> None:
    """Run ``recipe``'s steps in order over the mirror ``z`` — whose free
    inputs are already written — and assign every variable of ``cs`` from
    it.  A step that raises leaves ``cs`` untouched."""
    for step in recipe:
        step.replay(z)
    cs.assign_run(1, z[1:cs.num_private + 1])
    if cs.num_public:
        cs.assign_run(-1, z[:-cs.num_public - 1:-1])
