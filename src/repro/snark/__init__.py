"""Groth16-style zkSNARK — the "security computation" phase (§2.1).

Implements the full pipeline on top of :mod:`repro.r1cs` and a pluggable
:class:`~repro.ec.backend.GroupBackend`:

* :mod:`repro.snark.qap` — radix-2 NTT over BN254 Fr, evaluation domains,
  QAP instantiation and quotient-polynomial computation;
* :mod:`repro.snark.groth16` — trusted setup, prove, verify;
* :mod:`repro.snark.backends` — named security-computation profiles
  (``arkworks``/``zeno``/``bellman``/``ginger``) used by Fig. 15.
"""

from repro.snark.groth16 import batch_verify, setup, prove, verify
from repro.snark.keys import ProvingKey, VerifyingKey
from repro.snark.proof import Proof
from repro.snark.qap import Domain
from repro.snark.backends import SECURITY_BACKENDS, SecurityBackendProfile

__all__ = [
    "batch_verify",
    "setup",
    "prove",
    "verify",
    "ProvingKey",
    "VerifyingKey",
    "Proof",
    "Domain",
    "SECURITY_BACKENDS",
    "SecurityBackendProfile",
]
