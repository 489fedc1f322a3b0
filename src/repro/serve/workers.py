"""Process worker pool with warm per-worker proving-key caches.

Each worker process keeps a module-level cache mapping a batch key
(model, scale, seed, privacy) to a warm :class:`BatchProver` plus its
Groth16 :class:`SetupResult`.  The first batch for a key in a given worker
pays Generate + Circuit Computation + trusted setup (the cold path);
every later batch only re-assigns witnesses and proves — the paper's §6.1
sharing, amortized across the worker's lifetime instead of a single
benchmark loop.

Fault tolerance: a worker dying mid-batch breaks the whole
``ProcessPoolExecutor`` (pending futures raise ``BrokenProcessPool``).
:class:`WorkerPool.reset` rebuilds the executor; the service requeues the
affected jobs with backoff.  Fault-injection hooks (``crash_token`` in a
job's payload) let tests kill a worker deterministically on the first
attempt only.
"""

from __future__ import annotations

import hashlib
import os
import random
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Tuple

from repro.core import pool
from repro.core.metrics import PhaseTimer
from repro.core.reuse.batch import BatchProver
from repro.core.lang.types import Privacy
from repro.ec.backend import backend_by_name

# -- per-process warm state (lives in the worker, not the service) -----------------

_WARM: Dict[Tuple, "_WarmEntry"] = {}


class _WarmEntry:
    def __init__(self, prover: BatchProver, setup, vk_bytes: bytes) -> None:
        self.prover = prover
        # The proving key carries the fixed-base CRS tables built once per
        # key; every proof in every later batch queries them instead of
        # raw MSMs.
        self.setup = setup
        self.vk_bytes = vk_bytes
        # Audit-gate latch: a warm entry only skips the pre-prove audit
        # after it has actually passed it once under some audited spec.
        self.audited = False


_PRIVACY = {
    "one-private": (Privacy.PRIVATE, Privacy.PUBLIC),
    "both-private": (Privacy.PRIVATE, Privacy.PRIVATE),
}

# Per-layer aggregate proving: one warm split (compile + split_model)
# shared by every layer job of the same model spec in this worker, with
# per-layer trusted setups cached lazily — layer 3 jobs don't pay for
# layer 7's setup.
_WARM_AGG: Dict[Tuple, "_WarmAggEntry"] = {}


class _WarmAggEntry:
    def __init__(self, prover: BatchProver, split) -> None:
        self.prover = prover
        self.split = split
        self.setups: Dict[int, Any] = {}  # layer index -> SetupResult
        self.vk_bytes: Dict[int, bytes] = {}

    def layer_setup(self, layer: int, backend, crs_seed: int):
        from repro.aggregate.prove import crs_rng
        from repro.snark import groth16
        from repro.snark.serialize import serialize_verifying_key

        setup = self.setups.get(layer)
        if setup is None:
            setup = groth16.setup(
                self.split.instances[layer].cs,
                backend,
                crs_rng(crs_seed, layer),
            )
            self.setups[layer] = setup
            self.vk_bytes[layer] = serialize_verifying_key(
                setup.verifying_key
            )
        return setup


def _spec_key(spec: Dict[str, Any]) -> Tuple:
    """The part of a spec that fixes the shared constraint system."""
    return (
        spec["model"], spec["scale"], spec["seed"], spec["privacy"],
        spec.get("gadgets"), spec.get("relu_mode"),
    )


def _spec_backend(spec: Dict[str, Any]):
    return backend_by_name(spec.get("backend", "simulated"))


def _build_prover(spec: Dict[str, Any], base_image) -> BatchProver:
    from repro.core.circuit.compute import ComputeOptions
    from repro.nn.models import build_model

    image_privacy, weights_privacy = _PRIVACY[spec["privacy"]]
    model = build_model(spec["model"], scale=spec["scale"], seed=spec["seed"])
    options = None
    if spec.get("gadgets") or spec.get("relu_mode"):
        options = ComputeOptions(
            gadget_mode=spec.get("gadgets") or "lean",
            relu_mode=spec.get("relu_mode") or "bits",
        )
    return BatchProver(
        model, base_image, image_privacy=image_privacy,
        weights_privacy=weights_privacy, options=options,
    )


def _warm_up(key: Tuple, spec: Dict[str, Any], base_image) -> _WarmEntry:
    from repro.snark.serialize import serialize_verifying_key

    prover = _build_prover(spec, base_image)
    setup = prover.warm_setup(
        _spec_backend(spec), random.Random(spec.get("crs_seed", 0x5E70))
    )
    entry = _WarmEntry(
        prover, setup, serialize_verifying_key(setup.verifying_key)
    )
    _WARM[key] = entry
    return entry


def _proof_rng(spec: Dict[str, Any], image) -> Optional[random.Random]:
    """Per-proof randomness source; None = fresh OS-seeded blinding.

    With ``spec["deterministic"]`` the (r, s) blinding factors are derived
    from the CRS seed and the image digest, making the proof bytes a pure
    function of the job — the property the cluster's cross-node
    byte-identity checks (and its rerouted retries) rely on.
    """
    if not spec.get("deterministic"):
        return None
    digest = hashlib.sha256(image.tobytes()).digest()
    return random.Random(
        int.from_bytes(digest, "big") ^ spec.get("crs_seed", 0x5E70)
    )


def _maybe_crash(payload: Dict[str, Any]) -> None:
    """Fault injection: if the payload's ``crash_token`` file exists, delete
    it and die — a retry of the same job finds the token gone and
    completes."""
    token = payload.get("crash_token")
    if token and os.path.exists(token):
        os.remove(token)
        os._exit(1)  # simulate a worker crash mid-batch


def _prove_job(
    spec, payload, setup, cs, backend, rng, phases: Dict[str, float]
) -> Dict[str, Any]:
    """Prove + self-verify ``cs`` for one job; returns its result row."""
    from repro.snark import groth16
    from repro.snark.serialize import serialize_proof

    with PhaseTimer("security", sink=phases):
        # phase_sink splits "security" into witness / quotient / msm in
        # the same phases dict the telemetry aggregates.
        proof = groth16.prove(
            setup.proving_key,
            cs,
            backend,
            rng=rng,
            parallelism=spec.get("parallelism"),
            phase_sink=phases,
        )
    publics = cs.public_values()
    verified = groth16.verify(setup.verifying_key, publics, proof, backend)
    p = cs.field.modulus
    half = p // 2
    return {
        "job_id": payload["job_id"],
        "proof": serialize_proof(proof),
        "public_inputs": [int(v) for v in publics],
        "logits": [v - p if v > half else v for v in map(int, publics)],
        "verified": bool(verified),
    }


def _reply(cold: bool, phases, vk_bytes: bytes, results, **extra):
    from repro.field.backend import backend_name

    return {
        "pid": os.getpid(),
        "cold": cold,
        "phases": phases,
        "vk": vk_bytes,
        # Which field-arithmetic backend this worker proved with
        # (scalar / numpy / gmpy2) — proofs are byte-identical across
        # backends, so this is telemetry for capacity planning, not
        # correctness.
        "field_backend": backend_name(),
        "results": results,
        **extra,
    }


def prove_batch(
    spec: Dict[str, Any], payloads: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Prove every job in one batch inside a worker process.

    ``spec`` identifies the shared constraint system; ``payloads`` carry
    ``{"job_id", "image"}`` (plus optional ``crash_token`` for fault
    injection, see :func:`_maybe_crash`).
    """
    if spec.get("aggregate"):
        return _prove_layer_batch(spec, payloads)

    backend = _spec_backend(spec)
    key = _spec_key(spec)
    phases: Dict[str, float] = {}
    cold = key not in _WARM
    if cold:
        with PhaseTimer("warmup", sink=phases):
            entry = _warm_up(key, spec, payloads[0]["image"])
        phases["generate"] = entry.prover.stats.generate_time
        phases["circuit"] = entry.prover.stats.circuit_time
        phases["setup"] = entry.prover.stats.setup_time
    else:
        entry = _WARM[key]
    if spec.get("audit") and not entry.audited:
        # Pre-prove soundness gate: lint + determinism over the shared
        # constraint system, once per key.  Keyed on the entry, not the
        # cold path: a forked worker can inherit a warm entry that was
        # built under a spec without the gate, and an audited spec must
        # not trust it unaudited.  On rejection the warm entry is evicted
        # so a resubmitted key re-audits (and fails again) instead of
        # silently proving on the tainted circuit.
        from repro.analysis import assume_from_recipe, audit_system

        with PhaseTimer("audit", sink=phases):
            audit = audit_system(
                entry.prover.cs,
                assume=assume_from_recipe(entry.prover.result.recipe),
            )
        if not audit.ok:
            del _WARM[key]
            return {
                "pid": os.getpid(),
                "cold": cold,
                "phases": phases,
                "audit_rejected": {
                    "errors": len(audit.errors),
                    "first": audit.errors[0].message,
                    "report": audit.to_json(),
                },
            }
        entry.audited = True

    tables = entry.setup.proving_key.tables
    tables_uses_before = tables.uses() if tables else 0
    results = []
    for payload in payloads:
        _maybe_crash(payload)
        with PhaseTimer("assign", sink=phases):
            entry.prover.assign_image(payload["image"])
        results.append(
            _prove_job(
                spec, payload, entry.setup, entry.prover.cs, backend,
                _proof_rng(spec, payload["image"]), phases,
            )
        )
    return _reply(
        cold, phases, entry.vk_bytes, results,
        # Fixed-base table telemetry: `built` marks the one-time table
        # construction, `uses` counts table queries served by THIS batch —
        # nonzero on a warm batch proves the CRS tables were reused.
        msm_tables={
            "built": bool(cold and tables is not None),
            "uses": (tables.uses() - tables_uses_before) if tables else 0,
        },
    )


def _prove_layer_batch(
    spec: Dict[str, Any], payloads: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Prove one *layer instance* of a split model for every job in a batch.

    ``spec["aggregate"]`` carries ``{mode, num_segments, crs_seed, layer}``;
    the batch key guarantees every payload targets the same layer.  The
    compile + :func:`repro.aggregate.split_model` cost is shared across
    ALL layers of the spec via ``_WARM_AGG`` (the split's structure does
    not depend on the image), and each layer's trusted setup is cached
    the first time that layer lands on this worker.

    The per-layer CRS comes from :func:`repro.aggregate.prove.crs_rng` and
    — when ``spec["deterministic"]`` — the blinding from
    :func:`repro.aggregate.prove.blinding_rng`, both pure functions of the
    job, so local pools and remote cluster nodes emit byte-identical
    layer proofs for the same inference.
    """
    from repro.aggregate import split_model
    from repro.aggregate.prove import DEFAULT_CRS_SEED, blinding_rng

    agg = spec["aggregate"]
    layer = int(agg["layer"])
    mode = agg.get("mode", "public")
    num_segments = agg.get("num_segments")
    crs_seed = int(agg.get("crs_seed", DEFAULT_CRS_SEED))
    backend = _spec_backend(spec)
    key = _spec_key(spec) + (mode, num_segments, crs_seed)
    phases: Dict[str, float] = {}
    cold = key not in _WARM_AGG
    if cold:
        with PhaseTimer("warmup", sink=phases):
            prover = _build_prover(spec, payloads[0]["image"])
            split = split_model(
                prover.cs, mode=mode, num_segments=num_segments
            )
            entry = _WarmAggEntry(prover, split)
            _WARM_AGG[key] = entry
        phases["generate"] = prover.stats.generate_time
        phases["circuit"] = prover.stats.circuit_time
    else:
        entry = _WARM_AGG[key]
    if layer < 0 or layer >= entry.split.num_instances:
        raise ValueError(
            f"layer {layer} out of range: split has "
            f"{entry.split.num_instances} instances"
        )
    with PhaseTimer("setup", sink=phases):
        setup = entry.layer_setup(layer, backend, crs_seed)
    inst = entry.split.instances[layer]

    results = []
    for payload in payloads:
        _maybe_crash(payload)
        with PhaseTimer("assign", sink=phases):
            entry.prover.assign_image(payload["image"])
            inst.refresh_from(entry.prover.cs)
        rng = (
            blinding_rng(crs_seed, layer, inst.cs.public_values())
            if spec.get("deterministic")
            else None
        )
        results.append(
            _prove_job(spec, payload, setup, inst.cs, backend, rng, phases)
        )
    return _reply(
        cold, phases, entry.vk_bytes[layer], results,
        msm_tables={"built": False, "uses": 0},
        aggregate_layer=layer,
    )


# -- the pool ----------------------------------------------------------------------


class WorkerPool:
    """A ``ProcessPoolExecutor`` that can be rebuilt after a worker death."""

    def __init__(self, max_workers: int = 2) -> None:
        self.max_workers = max_workers
        self._ctx = pool.context()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._generation = 0

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=self._ctx
            )
        return self._executor

    @property
    def generation(self) -> int:
        """Incremented every time the pool is rebuilt after a failure."""
        return self._generation

    def prewarm(self) -> List[int]:
        """Spawn every worker process now; returns the responding pids.

        ``ProcessPoolExecutor`` spawns at most one process per submit, so
        without this a light workload can be served entirely by worker #1
        while the rest never start.
        """
        executor = self._ensure()
        futures = [executor.submit(os.getpid) for _ in range(self.max_workers)]
        return sorted({f.result() for f in futures})

    def submit_batch(
        self, spec: Dict[str, Any], payloads: List[Dict[str, Any]]
    ) -> Future:
        try:
            return self._ensure().submit(prove_batch, spec, payloads)
        except BrokenProcessPool:
            self.reset()
            return self._ensure().submit(prove_batch, spec, payloads)

    def reset(self) -> None:
        """Tear down a (possibly broken) executor and start fresh."""
        executor, self._executor = self._executor, None
        self._generation += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None
