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
    # Fixed-base tables over this key's own h query and delta points,
    # attached by :func:`precompute_proving_tables`; ``prove`` uses them
    # when present.  Derived data: not compared, not serialized.
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
    """Fixed-base tables over the parts of a proving key whose scalars are
    uniform field elements, whatever the circuit: the h query (quotient
    coefficients) and the two delta points (the blinding factors r, s).

    The a / b / l queries have none: they meet the witness, which is
    low-bit (ZENO §4), and the width-routed MSM serves short scalars
    faster than a table sized for 254-bit ones — with nothing to build.
    Built once per key via :func:`precompute_proving_tables`, which hangs
    them on ``pk.tables`` so they cannot be paired with another key, and
    reused across every proof in a serving session.
    """

    h_query_g1: Any  # GroupBackend.precompute_msm: .msm(scalars), .uses
    delta_g1: Any  # GroupBackend.precompute_base: .multiples(scalars), .uses
    delta_g2: Any

    def uses(self) -> int:
        """Table queries served — the ``msm_tables.uses`` of the worker
        reply, ``ServiceTelemetry`` and ``/metrics``.  A proof makes
        :data:`TABLE_QUERIES_PER_PROOF` of them."""
        return self.h_query_g1.uses + self.delta_g1.uses + self.delta_g2.uses


# One h-query MSM, one delta_1 query (r * delta_1 and s * delta_1 together)
# and one delta_2 query (s * delta_2).
TABLE_QUERIES_PER_PROOF = 3


def precompute_proving_tables(pk: ProvingKey, backend) -> ProvingKeyTables:
    """Precompute the h-query and delta tables and attach them to the key
    (``pk.tables``); returns them for telemetry."""
    pk.tables = ProvingKeyTables(
        h_query_g1=backend.precompute_msm(pk.h_query_g1),
        delta_g1=backend.precompute_base(pk.delta_g1),
        delta_g2=backend.precompute_base(pk.delta_g2),
    )
    return pk.tables
