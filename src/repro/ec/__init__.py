"""Elliptic-curve substrate for the Groth16 security-computation phase.

The paper's artifact proves over BN254 ("BN254 for the rest of us" [53] in
the paper's bibliography).  This package implements, from scratch:

* the Fq2 / Fq6 / Fq12 extension tower (:mod:`repro.ec.tower`);
* affine short-Weierstrass point arithmetic (:mod:`repro.ec.curve`)
  instantiated for G1 (over Fq) and G2 (over Fq2) — the public surface and
  the reference — and the inversion-free Jacobian arithmetic every hot
  path runs on (:mod:`repro.ec.jacobian`);
* the optimal-ate pairing (:mod:`repro.ec.bn254`) — one multi-Miller loop
  over prepared G2 lines plus the short final exponentiation;
* Pippenger bucketed multi-scalar multiplication (:mod:`repro.ec.msm`,
  :mod:`repro.ec.jacobian`, :mod:`repro.ec.batch_affine`), the dominant
  cost of security computation;
* an exponent-tracking *simulated* bilinear group
  (:mod:`repro.ec.simulated`) with the identical API, used by the benchmark
  sweeps (see DESIGN.md "Substitutions");
* the :class:`~repro.ec.backend.GroupBackend` interface the SNARK layer
  programs against.
"""

from repro.ec.tower import FQ2, FQ12, fq2, fq12
from repro.ec.curve import CurveGroup, Point
from repro.ec.bn254 import BN254_G1, BN254_G2, bn254_pairing
from repro.ec.msm import msm
from repro.ec.backend import GroupBackend, RealBN254Backend, SimulatedBackend

__all__ = [
    "FQ2",
    "FQ12",
    "fq2",
    "fq12",
    "CurveGroup",
    "Point",
    "BN254_G1",
    "BN254_G2",
    "bn254_pairing",
    "msm",
    "GroupBackend",
    "RealBN254Backend",
    "SimulatedBackend",
]
