"""Proving and verifying key containers for Groth16."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

GroupElement = Any


@dataclass
class ProvingKey:
    """CRS elements the prover consumes.

    Element lists are in QAP variable order ``[ONE, publics..., privates...]``
    (see :func:`repro.snark.qap.variable_order`).
    """

    alpha_g1: GroupElement
    beta_g1: GroupElement
    beta_g2: GroupElement
    delta_g1: GroupElement
    delta_g2: GroupElement
    a_query_g1: List[GroupElement]  # [A_i(tau)]_1 for every variable
    b_query_g1: List[GroupElement]  # [B_i(tau)]_1 for every variable
    b_query_g2: List[GroupElement]  # [B_i(tau)]_2 for every variable
    l_query_g1: List[GroupElement]  # [(beta A_i + alpha B_i + C_i)/delta]_1, private vars
    h_query_g1: List[GroupElement]  # [tau^k Z(tau)/delta]_1, k in 0..d-2
    domain_size: int
    num_public: int = 0
    # Fixed-base tables over this key's own query vectors, attached by
    # :func:`precompute_proving_tables`; ``prove`` uses them when present.
    # Derived data: not compared, not serialized.
    tables: Optional["ProvingKeyTables"] = field(
        default=None, compare=False, repr=False
    )

    def num_variables(self) -> int:
        return len(self.a_query_g1)


@dataclass
class VerifyingKey:
    """CRS elements the verifier consumes."""

    alpha_g1: GroupElement
    beta_g2: GroupElement
    gamma_g2: GroupElement
    delta_g2: GroupElement
    ic_g1: List[GroupElement]  # [(beta A_i + alpha B_i + C_i)/gamma]_1, ONE + publics
    backend_name: str = ""

    @property
    def num_public(self) -> int:
        return len(self.ic_g1) - 1


@dataclass
class SetupResult:
    proving_key: ProvingKey
    verifying_key: VerifyingKey
    # Sizes recorded for the cost model / EXPERIMENTS.md bookkeeping.
    stats: dict = field(default_factory=dict)


@dataclass
class ProvingKeyTables:
    """Fixed-base MSM tables over every CRS query vector of a proving key.

    Built once per key via :func:`precompute_proving_tables`, which hangs
    them on ``pk.tables`` so they cannot be paired with another key, and
    reused across every proof in a serving session — each entry exposes
    ``msm(scalars)`` plus a ``uses`` counter (see
    :meth:`repro.ec.backend.GroupBackend.precompute_msm`).
    """

    a_query_g1: Any
    b_query_g1: Any
    b_query_g2: Any
    l_query_g1: Any
    h_query_g1: Any

    def uses(self) -> int:
        """Total table queries served (telemetry: proof = 5 table MSMs)."""
        return (
            self.a_query_g1.uses
            + self.b_query_g1.uses
            + self.b_query_g2.uses
            + self.l_query_g1.uses
            + self.h_query_g1.uses
        )


def precompute_proving_tables(pk: ProvingKey, backend) -> ProvingKeyTables:
    """Precompute fixed-base tables for all five CRS query vectors and
    attach them to the key (``pk.tables``); returns them for telemetry."""
    g1_zero = backend.g1_zero()
    g2_zero = backend.g2_zero()
    pk.tables = ProvingKeyTables(
        a_query_g1=backend.precompute_msm(pk.a_query_g1, zero=g1_zero),
        b_query_g1=backend.precompute_msm(pk.b_query_g1, zero=g1_zero),
        b_query_g2=backend.precompute_msm(pk.b_query_g2, zero=g2_zero),
        l_query_g1=backend.precompute_msm(pk.l_query_g1, zero=g1_zero),
        h_query_g1=backend.precompute_msm(pk.h_query_g1, zero=g1_zero),
    )
    return pk.tables
