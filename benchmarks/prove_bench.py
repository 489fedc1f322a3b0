"""Prover-engine benchmark: legacy sequential path vs the parallel engine.

Standalone harness (NOT collected by pytest) timing the two prover phases
this engine rewrote — Circuit Computation (witness-row evaluation) and the
QAP quotient — on compiled models::

    PYTHONPATH=src python benchmarks/prove_bench.py \
        --models SHAL:full,LCS:full --parallelism 1,2,4 --out BENCH_prove.json

Variants:

* ``legacy``         — the pre-engine sequential path, replicated here as
                       the reference: per-constraint ``LinearCombination``
                       dict evaluation plus the uncached NTT pipeline
                       (per-call bit-reversal scan, per-butterfly twiddle
                       update, per-call coset power chains)
* ``parallelism_1``  — the engine, sequential: CSR row evaluation + cached
                       twiddle/power-table NTT with fused coset scaling
* ``parallelism_N``  — the engine with N workers: witness rows through the
                       §5.2 schedule executor — in worker processes only
                       once the CSR snapshot reaches the executor's
                       ``PARALLEL_MIN_TERMS`` (smaller systems, e.g. the
                       SHAL:micro CI smoke, evaluate in-process at every
                       level, so their ``witness_s`` should not move with
                       N) — and QAP chains dispatched to worker processes

Each timing is the best of ``--repeat`` runs.  Before timings are
reported, every variant's ``(A_w, B_w, C_w)`` and quotient are checked
equal to the legacy reference, and a full Groth16 prove (same proof rng)
is checked byte-identical between the sequential and max-parallelism
paths.  The JSON written to ``--out`` records per-phase wall times plus
``speedup_vs_legacy`` per parallelism level.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
from repro.nn.data import synthetic_images
from repro.nn.models import build_model
from repro.snark import groth16
from repro.snark.qap import (
    Domain,
    quotient_coefficients,
    witness_polynomial_evals,
    witness_polynomial_evals_lc,
)
from repro.snark.serialize import serialize_proof


class LegacyDomain:
    """The pre-engine NTT pipeline, preserved as the benchmark reference.

    No cached tables: every call rebuilds the bit-reversal permutation,
    updates the stage twiddle with a multiply per butterfly, and walks a
    fresh coset power chain — exactly what ``snark/qap.py`` did before the
    parallel prover engine landed.
    """

    def __init__(self, domain: Domain) -> None:
        self.field = domain.field
        self.size = domain.size
        self.omega = domain.omega
        self.omega_inv = domain.omega_inv
        self.size_inv = domain.size_inv
        self.coset_shift = domain.coset_shift
        self.coset_shift_inv = domain.coset_shift_inv

    def _ntt(self, values, omega):
        p = self.field.modulus
        d = self.size
        out = list(values)
        j = 0
        for i in range(1, d):
            bit = d >> 1
            while j & bit:
                j ^= bit
                bit >>= 1
            j |= bit
            if i < j:
                out[i], out[j] = out[j], out[i]
        length = 2
        while length <= d:
            step = pow(omega, d // length, p)
            for start in range(0, d, length):
                w = 1
                half = length >> 1
                for k in range(start, start + half):
                    u = out[k]
                    v = (out[k + half] * w) % p
                    out[k] = (u + v) % p
                    out[k + half] = (u - v) % p
                    w = (w * step) % p
            length <<= 1
        return out

    def intt(self, evals):
        p = self.field.modulus
        out = self._ntt(list(evals), self.omega_inv)
        return [(v * self.size_inv) % p for v in out]

    def coset_ntt(self, coeffs):
        p = self.field.modulus
        shifted = []
        power = 1
        for c in list(coeffs) + [0] * (self.size - len(coeffs)):
            shifted.append((c * power) % p)
            power = (power * self.coset_shift) % p
        return self._ntt(shifted, self.omega)

    def coset_intt(self, evals):
        p = self.field.modulus
        coeffs = self.intt(evals)
        out = []
        power = 1
        for c in coeffs:
            out.append((c * power) % p)
            power = (power * self.coset_shift_inv) % p
        return out

    def quotient(self, evals):
        """h(x) coefficients from witness evals, pre-engine style."""
        p = self.field.modulus
        a_evals, b_evals, c_evals = evals
        a_coset = self.coset_ntt(self.intt(a_evals))
        b_coset = self.coset_ntt(self.intt(b_evals))
        c_coset = self.coset_ntt(self.intt(c_evals))
        z_const = (pow(self.coset_shift, self.size, p) - 1) % p
        z_inv = pow(z_const, -1, p)
        h_coset = [
            ((a * b - c) % p) * z_inv % p
            for a, b, c in zip(a_coset, b_coset, c_coset)
        ]
        h_coeffs = self.coset_intt(h_coset)
        return h_coeffs[:-1]


def compile_cs(abbr: str, scale: str):
    model = build_model(abbr, scale=scale)
    image = synthetic_images(model.input_shape, n=1, seed=1234)[0]
    options = zeno_options(PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS)
    return ZenoCompiler(options).compile_model(model, image).cs


def best_of(fn, repeat: int):
    best, result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench_model(abbr: str, scale: str, levels, repeat: int, seed: int) -> dict:
    cs = compile_cs(abbr, scale)
    domain = Domain.for_size(max(cs.num_constraints, 2))
    legacy = LegacyDomain(domain)
    row: dict = {
        "model": abbr,
        "scale": scale,
        "num_constraints": cs.num_constraints,
        "num_variables": cs.num_variables,
        "lc_terms": cs.total_lc_terms(),
        "domain_size": domain.size,
        "phases": {},
    }

    wit_s, ref_evals = best_of(
        lambda: witness_polynomial_evals_lc(cs, domain), repeat
    )
    quo_s, ref_h = best_of(lambda: legacy.quotient(ref_evals), repeat)
    row["phases"]["legacy"] = {
        "witness_s": wit_s, "quotient_s": quo_s, "total_s": wit_s + quo_s
    }

    csr = cs.to_csr()
    for level in levels:
        wit_s, evals = best_of(
            lambda: witness_polynomial_evals(
                cs, domain, csr=csr, parallelism=level
            ),
            repeat,
        )
        quo_s, h = best_of(
            lambda: quotient_coefficients(
                cs, domain, csr=csr, parallelism=level, evals=evals
            ),
            repeat,
        )
        if evals != ref_evals:
            raise AssertionError(
                f"witness evals diverge from legacy at parallelism={level}"
            )
        if h != ref_h:
            raise AssertionError(
                f"quotient diverges from legacy at parallelism={level}"
            )
        row["phases"][f"parallelism_{level}"] = {
            "witness_s": wit_s, "quotient_s": quo_s, "total_s": wit_s + quo_s
        }

    # Forced scalar field backend (parallelism 1): isolates what the
    # vectorized limb backend buys on the same witness+quotient path.
    from repro.field.backend import backend_name, set_backend

    default_backend = backend_name()
    try:
        set_backend("scalar")
        wit_s, evals = best_of(
            lambda: witness_polynomial_evals(cs, domain, csr=csr,
                                             parallelism=1),
            repeat,
        )
        quo_s, h = best_of(
            lambda: quotient_coefficients(cs, domain, csr=csr,
                                          parallelism=1, evals=evals),
            repeat,
        )
    finally:
        set_backend(default_backend)
    if evals != ref_evals or h != ref_h:
        raise AssertionError(
            f"{abbr}:{scale} scalar-backend results diverge from legacy"
        )
    row["phases"]["scalar_backend"] = {
        "witness_s": wit_s, "quotient_s": quo_s, "total_s": wit_s + quo_s
    }
    row["field_backend"] = default_backend

    base = row["phases"]["legacy"]["total_s"]
    row["speedup_vs_legacy"] = {
        name: round(base / phases["total_s"], 3)
        for name, phases in row["phases"].items()
        if name != "legacy"
    }

    # End-to-end proof identity: same proof rng, sequential vs widest
    # parallel engine, byte-compared after serialization.
    setup = groth16.setup(cs, rng=random.Random(seed))
    seq = groth16.prove(setup.proving_key, cs, rng=random.Random(seed + 1))
    par = groth16.prove(
        setup.proving_key, cs, rng=random.Random(seed + 1),
        parallelism=max(levels),
    )
    row["proofs_byte_identical"] = (
        serialize_proof(seq) == serialize_proof(par)
    )
    if not row["proofs_byte_identical"]:
        raise AssertionError(f"{abbr}:{scale} proofs differ seq vs parallel")
    if not groth16.verify(setup.verifying_key, cs.public_values(), par):
        raise AssertionError(f"{abbr}:{scale} proof failed verification")

    # Cross-field-backend identity: the scalar reference backend and the
    # vectorized backend must produce the same bytes for the same rng.
    try:
        set_backend("scalar")
        scalar_proof = serialize_proof(
            groth16.prove(setup.proving_key, cs, rng=random.Random(seed + 1))
        )
    finally:
        set_backend(default_backend)
    row["proofs_byte_identical_backends"] = (
        scalar_proof == serialize_proof(seq)
    )
    if not row["proofs_byte_identical_backends"]:
        raise AssertionError(
            f"{abbr}:{scale} proofs differ between field backends"
        )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--models", default="SHAL:full,LCS:full",
        help="comma-separated ABBR:scale entries (largest last)",
    )
    parser.add_argument(
        "--parallelism", default="1,2,4",
        help="comma-separated engine worker counts",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of runs")
    parser.add_argument("--seed", type=int, default=0x9807E)
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args(argv)

    specs = [
        tuple(entry.split(":", 1))
        for entry in args.models.split(",") if entry
    ]
    levels = [int(s) for s in args.parallelism.split(",") if s]
    report = {
        "bench": "prove",
        "repeat": args.repeat,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "models": [],
    }
    for abbr, scale in specs:
        row = bench_model(abbr, scale, levels, args.repeat, args.seed)
        report["models"].append(row)
        speed = ", ".join(
            f"@{name.rsplit('_', 1)[1]} {v:.2f}x"
            for name, v in row["speedup_vs_legacy"].items()
        )
        print(
            f"{abbr}:{scale:<5s} m={row['num_constraints']:>6d} "
            f"legacy {row['phases']['legacy']['total_s']:.3f}s  [{speed}]  "
            f"proofs identical: {row['proofs_byte_identical']}",
            flush=True,
        )

    largest = report["models"][-1]
    headline = largest["speedup_vs_legacy"].get(f"parallelism_{max(levels)}")
    report["headline"] = {
        "model": f"{largest['model']}:{largest['scale']}",
        "parallelism": max(levels),
        "witness_plus_quotient_speedup_vs_legacy": headline,
    }
    from repro.core.metrics import peak_rss_bytes

    report["peak_rss_bytes"] = peak_rss_bytes()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
