"""Group backends: one API over the real BN254 curve and the simulated group.

The SNARK layer (:mod:`repro.snark`) programs exclusively against
:class:`GroupBackend`; swapping ``RealBN254Backend`` for
``SimulatedBackend`` changes only the per-operation constant factor (and
cryptographic hardness — see :mod:`repro.ec.simulated`), never the algebra.

``msm`` routes through the engine hierarchy (see :mod:`repro.ec.msm` for
the map): the width-routed batch-affine pass for real G1 vectors — it
sizes its windows by the scalars it is handed, so there is no window for
a caller to pick — and the Jacobian Pippenger for small G1 inputs and for
G2.  The empty MSM returns the group identity (``zero=`` overrides which
one).  ``precompute_msm`` returns a fixed-base table over a G1 vector
that meets uniform scalars (the h query) and ``precompute_base`` one over
a single point (delta_1, delta_2) — the serving layer builds them once per
proving key and queries them on every proof.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence, Tuple

from repro.field.fp import BN254_FR, Field
from repro.ec import bn254, jacobian
from repro.ec.simulated import (
    G1_TAG,
    G2_TAG,
    GT_TAG,
    SimBaseTable,
    SimFixedBaseTable,
    SimPoint,
    sim_generator,
    sim_msm,
    sim_multiples,
    sim_pairing,
)

GroupElement = Any  # Point | SimPoint

# Below this size the sparse bucket lists of the batch-affine engine cannot
# amortize their inversions; the Jacobian path wins.
_BATCH_AFFINE_MIN = 32


class GroupBackend(ABC):
    """Bilinear group operations required by Groth16."""

    name: str = "abstract"
    scalar_field: Field = BN254_FR

    @abstractmethod
    def g1_generator(self) -> GroupElement: ...

    @abstractmethod
    def g2_generator(self) -> GroupElement: ...

    @abstractmethod
    def g1_zero(self) -> GroupElement: ...

    @abstractmethod
    def g2_zero(self) -> GroupElement: ...

    @abstractmethod
    def add(self, a: GroupElement, b: GroupElement) -> GroupElement: ...

    @abstractmethod
    def neg(self, a: GroupElement) -> GroupElement: ...

    @abstractmethod
    def scalar_mul(self, a: GroupElement, k: int) -> GroupElement: ...

    @abstractmethod
    def base_multiples(
        self, base: GroupElement, scalars: Sequence[int]
    ) -> list:
        """``[k * base for k in scalars]`` — set-up's vectors of generator
        multiples and a key without tables' blinding multiples, handed
        over whole so a backend can work on the vector."""

    @abstractmethod
    def msm(
        self,
        points: Sequence[GroupElement],
        scalars: Sequence[int],
        *,
        zero: Optional[GroupElement] = None,
    ) -> GroupElement:
        """``sum scalars[i] * points[i]``; the identity on empty input.

        ``zero`` names the identity returned for an empty vector (default
        G1 — the only group Groth16 issues possibly-empty MSMs in).
        """

    @abstractmethod
    def pairing_product_is_one(
        self,
        pairs: Sequence[Tuple[GroupElement, GroupElement]],
        fixed: Sequence[Tuple[GroupElement, GroupElement]] = (),
    ) -> bool:
        """Check ``prod e(P_i, Q_i) == 1`` over ``pairs`` and ``fixed`` —
        the Groth16 verify primitive.

        ``fixed`` holds pairs whose two points are both constants of a
        verifying key (Groth16's ``(alpha, beta)``): a backend may reuse
        work on them across calls, never change the verdict.
        """

    def _msm_chunked(
        self,
        points,
        scalars: Sequence[int],
        *,
        zero: Optional[GroupElement] = None,
    ) -> GroupElement:
        """MSM over a chunked query: one decoded chunk in memory at a time.

        Partial sums per chunk combine with plain group additions (MSM is
        linear in the points), so the result — and therefore proof bytes —
        match the one-shot path exactly.
        """
        if len(points) != len(scalars):
            raise ValueError(
                f"points/scalars length mismatch: "
                f"{len(points)} vs {len(scalars)}"
            )
        acc: Optional[GroupElement] = None
        for offset, chunk in points.iter_chunks():
            part = self.msm(
                chunk, scalars[offset : offset + len(chunk)], zero=zero
            )
            acc = part if acc is None else self.add(acc, part)
        if acc is None:
            return zero if zero is not None else self.g1_zero()
        return acc

    @abstractmethod
    def precompute_msm(
        self,
        points: Sequence[GroupElement],
        zero: Optional[GroupElement] = None,
    ):
        """Build a reusable fixed-base MSM table over ``points``.

        The returned object exposes ``msm(scalars)`` (accepting *up to*
        ``len(points)`` scalars; missing ones count as zero) and a ``uses``
        counter.  Worth its build only where the scalars are uniform field
        elements: a witness-like vector is faster through :meth:`msm`.
        """

    @abstractmethod
    def precompute_base(self, base: GroupElement):
        """Build a reusable table of multiples of the single point ``base``
        (G1 or G2): ``multiples(scalars)`` returns ``[k * base for k in
        scalars]`` and ``uses`` counts the calls."""

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.add(a, self.neg(b))


class RealBN254Backend(GroupBackend):
    """Operations on the genuine BN254 curve with the optimal-ate pairing."""

    name = "bn254"

    def g1_generator(self) -> GroupElement:
        return bn254.BN254_G1.generator

    def g2_generator(self) -> GroupElement:
        return bn254.BN254_G2.generator

    def g1_zero(self) -> GroupElement:
        return bn254.BN254_G1.infinity()

    def g2_zero(self) -> GroupElement:
        return bn254.BN254_G2.infinity()

    def add(self, a, b):
        return a.group.add(a, b)

    def neg(self, a):
        return a.group.neg(a)

    def scalar_mul(self, a, k: int):
        return jacobian.scalar_mul(a, k)

    def base_multiples(self, base, scalars):
        return jacobian.base_multiples(base, scalars)

    def msm(self, points, scalars, *, zero=None):
        if len(points) != len(scalars):
            raise ValueError(
                f"points/scalars length mismatch: "
                f"{len(points)} vs {len(scalars)}"
            )
        if hasattr(points, "iter_chunks"):
            if getattr(points, "kind", None) == "g1":
                from repro.ec.batch_affine import msm_streamed

                return msm_streamed(points.iter_chunks(), scalars)
            return self._msm_chunked(points, scalars, zero=zero)
        if not points:
            return zero if zero is not None else self.g1_zero()
        # The batch-affine pass is G1-only; G2 (whose coordinates live in
        # Fq2) always takes the Jacobian Pippenger.
        if (
            points[0].group is bn254.BN254_G1
            and len(points) >= _BATCH_AFFINE_MIN
        ):
            from repro.ec.batch_affine import msm_batch_affine

            return msm_batch_affine(points, scalars)
        return jacobian.msm_jacobian(points, scalars)

    def precompute_msm(self, points, zero=None):
        if points and points[0].group is not bn254.BN254_G1:
            raise ValueError("fixed-base MSM tables exist over G1 only")
        from repro.ec.fixed_base import FixedBaseTableG1

        return FixedBaseTableG1(points)

    def precompute_base(self, base):
        return jacobian.BaseTable(base, jacobian.KEPT_BASE_WINDOW)

    def pairing_product_is_one(self, pairs, fixed=()) -> bool:
        return bn254.pairing_product_is_one(pairs, fixed)


class SimulatedBackend(GroupBackend):
    """Exponent-tracking group; identical algebra, cheap operations."""

    name = "simulated"

    def g1_generator(self) -> GroupElement:
        return sim_generator(G1_TAG)

    def g2_generator(self) -> GroupElement:
        return sim_generator(G2_TAG)

    def g1_zero(self) -> GroupElement:
        return SimPoint(G1_TAG, 0)

    def g2_zero(self) -> GroupElement:
        return SimPoint(G2_TAG, 0)

    def add(self, a: SimPoint, b: SimPoint) -> SimPoint:
        return a + b

    def neg(self, a: SimPoint) -> SimPoint:
        return -a

    def scalar_mul(self, a: SimPoint, k: int) -> SimPoint:
        return a * k

    def base_multiples(self, base: SimPoint, scalars) -> list:
        return sim_multiples(base, scalars)

    def msm(self, points, scalars, *, zero=None):
        if hasattr(points, "iter_chunks"):
            return self._msm_chunked(points, scalars, zero=zero)
        if not points:
            return zero if zero is not None else self.g1_zero()
        return sim_msm(points, scalars)

    def precompute_msm(self, points, zero=None):
        tag = zero.tag if zero is not None else G1_TAG
        return SimFixedBaseTable(points, tag=tag)

    def precompute_base(self, base):
        return SimBaseTable(base)

    def pairing_product_is_one(self, pairs, fixed=()) -> bool:
        acc = 0
        for group in (pairs, fixed):
            for p, q in group:
                acc += sim_pairing(p, q).log
        return acc % BN254_FR.modulus == 0


def backend_by_name(name: str) -> GroupBackend:
    """The group backend called ``name`` (a ``GroupBackend.name``, as
    carried in job specs and ``VerifyingKey.backend_name``).

    Unknown names raise: falling back to the simulated group would hand a
    typo'd spec a "verified" proof with no cryptographic hardness.
    """
    for backend in (SimulatedBackend, RealBN254Backend):
        if name == backend.name:
            return backend()
    raise ValueError(f"unknown group backend {name!r}")
