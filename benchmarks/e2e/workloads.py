"""The three in-process workloads and the loop that drives them.

Each workload is one process, ``parallelism=1``.  A workload object owns
``setup`` (model build + first compile + CRS, timed as ``setup_s``),
``request`` (image in, verified proof out, with a span around every call
into a layer's public function) and ``negative_control`` (a tampered claim
that must be rejected).  :func:`drive` runs requests for the asked number
of seconds, checks every claimed logit vector against ``Model.forward``
— the reference that shares no code with the compiler — and returns the
per-request phase times.

Span names are the per-layer metric names without their ``_s`` suffix, so
the traced pass needs no mapping table.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Dict, List, Optional, Tuple

from harness import (
    Tracer,
    median,
    residual_share,
    speed_factor,
    timed,
    use_repo,
)

use_repo()

from repro.aggregate import (  # noqa: E402
    AggregateProof,
    fold,
    prove_split,
    setup_split,
    verify_aggregate,
)
from repro.core.circuit.compute import ComputeOptions  # noqa: E402
from repro.core.compiler import CompilerOptions, ZenoCompiler  # noqa: E402
from repro.core.reuse.batch import BatchProver  # noqa: E402
from repro.ec.backend import RealBN254Backend, SimulatedBackend  # noqa: E402
from repro.field.counters import count_ops  # noqa: E402
from repro.nn.data import synthetic_images  # noqa: E402
from repro.nn.models import build_model  # noqa: E402
from repro.snark import groth16  # noqa: E402
from repro.snark.serialize import (  # noqa: E402
    SerializationError,
    deserialize_proof,
    serialize_proof,
)

# The phases of a request that make up the three per-phase end-to-end
# timings (ZENO Fig. 4: phases 1-2, phase 3, and the verifier's side).
COMPILE_SPANS = ("core.compile", "core.assign")
PROVE_SPANS = (
    "r1cs.csr", "snark.prove",
    "aggregate.split", "aggregate.prove", "aggregate.fold", "aggregate.save",
)
VERIFY_SPANS = ("snark.verify", "aggregate.verify")

# Fewer requests than this and a median says little; the loop runs past
# --seconds if it must.
MIN_REQUESTS = 4
# A step quicker than this (verification on the simulated group, 20-70 us;
# witness replay on the 28-constraint circuit, 0.5 ms; the aggregate's 5 ms
# verification, of which a run has only a dozen) reads mostly cache state
# and the clock when timed once inside a request, so it is timed again
# right after the request: one reading of about RETIME_FOR seconds' worth
# of calls.
RETIME_BELOW = 0.01
RETIME_FOR = 0.05
# tiny_perlayer folds this many inferences into its closing artifact.
FOLD_ALL = MIN_REQUESTS


def image_seed(seed: int, index: int) -> int:
    """The data seed of request ``index``: the same ``--seed`` gives the
    same images, and two seeds share none."""
    return seed * 1_000_003 + index


def make_image(model, seed: int, index: int):
    return synthetic_images(
        model.input_shape, n=1, seed=image_seed(seed, index)
    )[0]


def signed(values, modulus: int) -> List[int]:
    """Field elements decoded back to signed logits."""
    half = modulus // 2
    return [int(v) - modulus if v > half else int(v) for v in values]


class Workload:
    """What :func:`drive` needs from a workload."""

    model = None

    def setup(self, seed: int, tr: Tracer) -> None:
        raise NotImplementedError

    def request(self, image, tr: Tracer) -> Dict[str, object]:
        """Returns ``{"accepted", "logits", "proof_bytes", "constraints"}``,
        and ``"assign"`` / ``"verify"`` where that step can be called again
        with the same effect (see ``RETIME_BELOW``)."""
        raise NotImplementedError

    def negative_control(self) -> bool:
        """True when the tampered claim was rejected."""
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """Layer counts of the request just made (exact; repeat per seed)."""
        return {}

    def finish(self, tr: Tracer) -> Optional[Tuple[bool, Dict[str, float]]]:
        """After the last request: ``(ok, counts)``, or None when the
        workload has no epilogue."""
        return None


class CnnWhole(Workload):
    """The paper's own pipeline: fresh compile per image, one whole-model
    Groth16 proof on the simulated group, so ``repro.core`` and the
    field/QAP code do nearly all the work and the group does almost none."""

    def __init__(self, model: str = "LCS", scale: str = "full") -> None:
        self.spec = (model, scale)
        self.backend = SimulatedBackend()

    def setup(self, seed: int, tr: Tracer) -> None:
        self.model = build_model(*self.spec)
        self.compiler = ZenoCompiler(CompilerOptions(gadget_mode="lean"))
        self.rng = random.Random(seed)
        with tr.span("core.compile"):
            artifact = self.compiler.compile_model(
                self.model, make_image(self.model, seed, -1)
            )
        with tr.span("snark.setup"):
            self.keys = groth16.setup(
                artifact.cs, self.backend, random.Random(seed)
            )

    def request(self, image, tr: Tracer) -> Dict[str, object]:
        with tr.span("core.compile"):
            artifact = self.compiler.compile_model(self.model, image)
        cs = artifact.cs
        out = prove_and_verify(
            cs, self.keys, self.backend, tr,
            prove=lambda sink: groth16.prove(
                self.keys.proving_key, cs, self.backend, self.rng,
                phase_sink=sink,
            ),
        )
        tr.add("core.generate", artifact.generate.wall_time)
        tr.add("core.circuit", artifact.compute.wall_time)
        self.artifact = artifact
        self.last = (out["blob"], out["publics"])
        return out

    def counts(self) -> Dict[str, float]:
        return dict(
            compile_counts(self.artifact),
            **{"snark.domain_size": self.keys.proving_key.domain_size},
        )

    def negative_control(self) -> bool:
        blob, publics = self.last
        flipped = list(publics)
        flipped[0] ^= 1
        return not groth16.verify(
            self.keys.verifying_key, flipped, deserialize_proof(blob),
            self.backend,
        )


class Bn254Replay(Workload):
    """The serving warm path on the real curve: one ``BatchProver`` with
    fixed-base tables, then witness replay (ZENO 6.1) + prove + real-pairing
    verify per image.  The inverse of ``cnn_whole``: ``repro.ec`` is nearly
    all of prove and verify, and compile is bypassed."""

    def __init__(
        self, model: str = "SHAL", scale: str = "micro", real: bool = True
    ) -> None:
        self.spec = (model, scale)
        self.backend = RealBN254Backend() if real else SimulatedBackend()

    def setup(self, seed: int, tr: Tracer) -> None:
        self.model = build_model(*self.spec)
        self.rng = random.Random(seed)
        with tr.span("core.compile"):
            self.prover = BatchProver(
                self.model, make_image(self.model, seed, -1),
                options=ComputeOptions(gadget_mode="lean"),
            )
        tr.add("core.generate", self.prover.stats.generate_time)
        tr.add("core.circuit", self.prover.stats.circuit_time)
        with tr.span("snark.setup"):  # CRS + fixed-base tables
            self.keys = self.prover.warm_setup(
                self.backend, random.Random(seed), precompute=True
            )

    def request(self, image, tr: Tracer) -> Dict[str, object]:
        with tr.span("core.assign"):
            self.prover.assign_image(image)
        cs = self.prover.cs
        out = prove_and_verify(
            cs, self.keys, self.backend, tr,
            prove=lambda sink: self.prover.prove(
                backend=self.backend, rng=self.rng, phase_sink=sink
            ),
        )
        out["assign"] = lambda: self.prover.assign_image(image)
        self.last = (out["blob"], out["publics"])
        return out

    def counts(self) -> Dict[str, float]:
        return dict(
            compile_counts(self.prover.result),
            **{"snark.domain_size": self.keys.proving_key.domain_size},
        )

    def negative_control(self) -> bool:
        blob, publics = self.last
        tampered = bytearray(blob)
        tampered[len(tampered) // 2] ^= 0x01
        try:
            proof = deserialize_proof(bytes(tampered))
        except SerializationError:
            return True
        return not groth16.verify(
            self.keys.verifying_key, publics, proof, self.backend
        )


class TinyPerLayer(Workload):
    """The same prover used differently: a transformer cut into per-layer
    Groth16 instances (28 small domains instead of one large one), lookup
    arguments for the nonlinearities, folded into one aggregate artifact.
    The only workload where ``repro.lookup`` and ``repro.aggregate`` run."""

    CRS_SEED = 0xC0FFEE

    def __init__(
        self, model: str = "TINY", scale: str = "micro", work: str = "."
    ) -> None:
        self.spec = (model, scale)
        self.path = os.path.join(work, f"aggregate-{model}.json")
        self.proof_sets: list = []
        self.publics_sets: list = []

    def setup(self, seed: int, tr: Tracer) -> None:
        self.model = build_model(*self.spec, seed=3)
        self.compiler = ZenoCompiler(CompilerOptions(
            gadget_mode="strict", relu_mode="lookup", record_recipe=True
        ))
        with tr.span("core.compile"):
            artifact = self.compiler.compile_model(
                self.model, make_image(self.model, seed, -1)
            )
        with tr.span("aggregate.split"):
            split = artifact.split(mode="hashed")
        with tr.span("aggregate.setup"):
            self.setups = setup_split(split, crs_seed=self.CRS_SEED)

    def request(self, image, tr: Tracer) -> Dict[str, object]:
        with tr.span("core.compile"):
            artifact = self.compiler.compile_model(self.model, image)
        with tr.span("aggregate.split"):
            split = artifact.split(mode="hashed")
        with tr.span("aggregate.prove"):
            proofs = prove_split(split, self.setups, crs_seed=self.CRS_SEED)
        with tr.span("aggregate.fold"):
            agg = fold(split, self.setups, [proofs], crs_seed=self.CRS_SEED)
        with tr.span("aggregate.save"):
            agg.save(self.path)
        with tr.span("aggregate.verify"):
            verdict = verify_aggregate(AggregateProof.load(self.path))
        tr.add("core.generate", artifact.generate.wall_time)
        tr.add("core.circuit", artifact.compute.wall_time)
        self.artifact, self.split, self.verdict = artifact, split, verdict
        if len(self.proof_sets) < FOLD_ALL:
            self.proof_sets.append(proofs)
            self.publics_sets.append(
                [inst.public_values() for inst in split.instances]
            )
        return {
            "accepted": bool(verdict.ok),
            "logits": artifact.public_outputs_signed(),
            "proof_bytes": os.path.getsize(self.path),
            "constraints": artifact.num_constraints,
            "cs": artifact.cs,
            "verify": lambda: verify_aggregate(AggregateProof.load(self.path)),
        }

    def counts(self) -> Dict[str, float]:
        return dict(compile_counts(self.artifact), **{
            "aggregate.instances": self.split.num_instances,
            "aggregate.pairings": self.verdict.num_pairings,
            "aggregate.naive_pairings": self.verdict.naive_pairings,
        })

    def negative_control(self) -> bool:
        agg = AggregateProof.load(self.path)
        boundary = agg.inferences[0]["boundaries"][0]
        agg.inferences[0]["boundaries"][0] = (
            ("1" if boundary[0] == "0" else "0") + boundary[1:]
        )
        return not verify_aggregate(agg).ok

    def finish(self, tr: Tracer) -> Tuple[bool, Dict[str, float]]:
        """The first ``FOLD_ALL`` inferences folded into one artifact and
        verified once (a fixed number, so the pairing count repeats)."""
        with tr.span("aggregate.verify_all"):
            agg = fold(
                self.split, self.setups, self.proof_sets,
                crs_seed=self.CRS_SEED, publics_sets=self.publics_sets,
            )
            verdict = verify_aggregate(agg)
        return bool(verdict.ok), {
            "aggregate.pairings_all": verdict.num_pairings
        }


def compile_counts(compiled) -> Dict[str, float]:
    """Sizes of one compilation (a ``CompileArtifact`` or the
    ``ComputeResult`` a ``BatchProver`` holds)."""
    computed = getattr(compiled, "compute", compiled)
    cs, lookups = computed.cs, computed.lookup
    cache = getattr(compiled, "cache", None)
    csr = cs.to_csr(assignment=False)
    return {
        "core.cache_hit_ratio": (
            cache.hits / max(cache.hits + cache.misses, 1) if cache else 0.0
        ),
        "core.constraints": cs.num_constraints,
        "core.variables": cs.num_variables,
        "core.lc_terms": computed.lc_terms,
        "core.knit_constraints": computed.knit_constraints,
        "lookup.constraints": (
            lookups.total_lookup_constraints if lookups else 0
        ),
        "lookup.total_lookups": lookups.total_lookups if lookups else 0,
        "r1cs.nnz": csr.a.nnz + csr.b.nnz + csr.c.nnz,
    }


def prove_and_verify(cs, keys, backend, tr: Tracer, prove) -> dict:
    """Assigned system -> proof -> bytes -> verdict, one span per call."""
    if tr.on:
        # prove() builds the CSR snapshot itself when none is cached; the
        # traced pass makes the call first so the layer gets its own span.
        with tr.span("r1cs.csr"):
            cs.to_csr()
    sink: Dict[str, float] = {}
    with tr.span("snark.prove"):
        proof = prove(sink)
    with tr.span("snark.serialize"):
        blob = serialize_proof(proof)
    publics = cs.public_values()

    def verify() -> bool:  # bytes -> verdict, the verifier's side
        return groth16.verify(
            keys.verifying_key, publics, deserialize_proof(blob), backend
        )

    with tr.span("snark.verify"):
        accepted = verify()
    for phase, seconds in sink.items():
        tr.add(f"snark.{phase}", seconds)
    return {
        "accepted": bool(accepted),
        "logits": signed(publics, cs.field.modulus),
        "proof_bytes": len(blob),
        "constraints": cs.num_constraints,
        "blob": blob,
        "publics": publics,
        "cs": cs,
        "verify": verify,
    }


def drive(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int = 1,
    min_requests: int = MIN_REQUESTS,
) -> dict:
    """Set up ``setups`` times, then run requests for ``seconds`` seconds.

    Every timing is calibrated: the machine's speed is read around each
    set-up and between requests (:func:`harness.speed_factor`), and a
    section's phase times are scaled by the reading before it.  ``wall``
    keeps the unscaled request time.

    In the traced pass every other request runs with spans off, so the
    tracing overhead is measured against requests of the same run.
    """
    tr = Tracer()
    setup_times = []
    after = speed_factor()
    for _ in range(setups):
        gc.collect()
        before = after
        tr.begin_request(None, on=trace)
        start = time.perf_counter()
        workload.setup(seed, tr)
        wall = time.perf_counter() - start
        # A set-up lasts seconds: the speed is read on both sides of it.
        after = speed_factor()
        factor = (before + after) / 2
        setup_times.append(wall * factor)
    setup_phases = scaled(tr.phases, factor)

    rows: List[dict] = []
    failed = 0
    ops: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    index = 0
    gc.collect()
    factor = speed_factor()
    while index < min_requests or time.perf_counter() < deadline:
        image = make_image(workload.model, seed, index)
        traced = trace and index % 2 == 0
        tr.begin_request(index, on=traced)
        if traced and index == 0:
            # Counts come from request 0 alone, so they repeat exactly
            # however many requests the run has time for.
            with count_ops() as counter, tr.span("request"):
                out = workload.request(image, tr)
            ops, counts = counter.snapshot(), workload.counts()
        else:
            with tr.span("request"):
                out = workload.request(image, tr)
        # Oracle, outside the timed request: the plaintext forward pass
        # shares no code with the compiler or the prover.
        with tr.span("nn.forward"):
            expected = [int(v) for v in workload.model.forward(image).reshape(-1)]
        ok = out["accepted"] and out["logits"] == expected
        if traced:
            with tr.span("r1cs.satisfied"):
                ok = out["cs"].is_satisfied() and ok
        failed += 0 if ok else 1
        # The speed reading for the next request; the short steps of this
        # one are timed again right after it, so it is theirs as well.
        gc.collect()
        after = speed_factor()
        rows.append({
            "traced": traced,
            "phases": scaled(tr.phases, factor),
            "wall": tr.phases["request"],
            "compile": step_seconds(
                tr.phases, COMPILE_SPANS, factor, out.get("assign"), after
            ),
            "verify": step_seconds(
                tr.phases, VERIFY_SPANS, factor, out.get("verify"), after
            ),
            "proof_bytes": out["proof_bytes"],
            "constraints": out["constraints"],
        })
        factor = after
        index += 1

    attempted = len(rows) + 1  # the requests and the negative control
    tr.begin_request(None, on=trace)
    epilogue = workload.finish(tr)
    if epilogue is not None:
        attempted += 1
        failed += 0 if epilogue[0] else 1
        counts.update(epilogue[1] if trace else {})
    failed += 0 if workload.negative_control() else 1

    return {
        "rows": rows,
        "setup_times": setup_times,
        "setup_phases": setup_phases,
        "finish_phases": scaled(tr.phases, factor),
        "attempted": attempted,
        "failed": failed,
        "spans": tr.spans,
        "ops": ops,
        "counts": counts,
    }


def step_seconds(phases, names, factor: float, again, after: float) -> float:
    """Calibrated seconds of one step of a request: its reading inside the
    request at the request's speed ``factor``, or — when that reading is
    under ``RETIME_BELOW`` and ``again`` repeats the step — the mean of a
    batch of further calls made now, at the speed just read, ``after``."""
    inside = sum(phases.get(name, 0.0) for name in names)
    if inside >= RETIME_BELOW or again is None:
        return inside * factor
    calls = round(RETIME_FOR / inside)
    return after * timed(lambda: [again() for _ in range(calls)]) / calls


def scaled(phases: Dict[str, float], factor: float) -> Dict[str, float]:
    return {name: seconds * factor for name, seconds in phases.items()}


def phase_median(rows: List[dict], names, traced: Optional[bool] = None) -> float:
    picked = [
        sum(r["phases"].get(n, 0.0) for n in names)
        for r in rows if traced is None or r["traced"] == traced
    ]
    return median(picked) if picked else 0.0


def layer_metrics(result: dict) -> Dict[str, float]:
    """Per-layer numbers of one traced :func:`drive` result: every span
    name seen becomes ``<name>_s`` (median over traced requests; setup and
    epilogue spans are single values), plus counts and the residual."""
    rows = [r for r in result["rows"] if r["traced"]]
    out: Dict[str, float] = {}
    for source in (result["setup_phases"], result["finish_phases"]):
        for name, seconds in source.items():
            out[f"{name}_s"] = seconds
    for name in {n for r in rows for n in r["phases"]} - {"request"}:
        out[f"{name}_s"] = median([r["phases"].get(name, 0.0) for r in rows])
    ops = result["ops"]
    out.update({
        "field.mul_count": ops.get("field_mul", 0),
        "field.add_count": ops.get("field_add", 0),
        "field.inv_count": ops.get("field_inv", 0),
        "ec.group_add_count": ops.get("group_add", 0),
        "ec.scalar_mul_count": ops.get("group_scalar_mul", 0),
        "ec.pairing_count": ops.get("pairing", 0),
    })
    out.update(result["counts"])
    out["bench.residual_share"] = residual_share(result["spans"])
    untraced = phase_median(result["rows"], ("request",), traced=False)
    if untraced:
        out["bench.trace_overhead_share"] = (
            phase_median(result["rows"], ("request",), traced=True) / untraced
            - 1.0
        )
    return out
