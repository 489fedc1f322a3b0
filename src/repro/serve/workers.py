"""Process worker pool with warm per-worker proving-key caches.

Each worker process keeps one module-level table mapping
``(CircuitSpec, backend, crs_seed)`` to a :class:`_WarmEntry`: the warm
:class:`BatchProver` for that circuit plus whatever keys jobs have asked
for so far — the whole-model Groth16 setup, and per-layer splits and
setups for aggregate jobs.  The first batch for a circuit in a given
worker pays Generate + Circuit Computation (and the first batch of each
kind its trusted setup); every later batch only re-assigns witnesses and
proves — the paper's §6.1 sharing, amortized across the worker's lifetime
instead of a single benchmark loop.

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

from repro.aggregate import split_model
from repro.aggregate.prove import DEFAULT_CRS_SEED, blinding_rng, crs_rng
from repro.analysis import assume_from_recipe, audit_system
from repro.core import pool
from repro.core.metrics import PhaseTimer
from repro.core.reuse.batch import BatchProver
from repro.core.spec import CircuitSpec
from repro.ec.backend import backend_by_name
from repro.field import signed
from repro.snark import groth16
from repro.snark.serialize import serialize_proof, serialize_verifying_key

# -- per-process warm state (lives in the worker, not the service) -----------------

SERVE_CRS_SEED = 0x5E70  # whole-model CRS when the spec names none

_WARM: Dict[Tuple[CircuitSpec, str, int], "_WarmEntry"] = {}


class _WarmEntry:
    """One circuit under one (backend, CRS seed) in this worker."""

    def __init__(self, prover: BatchProver) -> None:
        self.prover = prover
        # Whole-model (SetupResult, vk bytes), built by the first
        # whole-model batch.  The proving key carries the fixed-base
        # tables (h query, delta_1, delta_2); every proof in every later
        # batch queries them.
        self.keys: Optional[Tuple[Any, bytes]] = None
        # Per-layer aggregate proving: one split per (mode, num_segments)
        # shared by every layer job, with per-layer (SetupResult, vk
        # bytes) built lazily — layer 3 jobs don't pay for layer 7's setup.
        self.splits: Dict[Tuple, Any] = {}
        self.layer_keys: Dict[Tuple, Tuple[Any, bytes]] = {}
        # Audit-gate latch: an entry only skips the pre-prove audit after
        # it has actually passed it once under some audited spec.
        self.audited = False


def _warm_entry(
    spec: Dict[str, Any], base_image, phases: Dict[str, float]
) -> Tuple[Tuple[CircuitSpec, str, int], _WarmEntry]:
    """The spec's warm key and entry, compiling the circuit on first sight."""
    key = (
        CircuitSpec.from_mapping(spec),
        spec.get("backend", "simulated"),
        int(spec.get("crs_seed", SERVE_CRS_SEED)),
    )
    entry = _WARM.get(key)
    if entry is None:
        with PhaseTimer("warmup", sink=phases):
            entry = _WARM[key] = _WarmEntry(key[0].batch_prover(base_image))
        phases["generate"] = entry.prover.stats.generate_time
        phases["circuit"] = entry.prover.stats.circuit_time
    return key, entry


def _audit_rejection(key: Tuple, entry: _WarmEntry, phases) -> Optional[dict]:
    """Pre-prove soundness gate: lint + determinism over the shared
    constraint system, once per circuit whatever the job kind.  Latched on
    the entry, not the cold path: a forked worker can inherit a warm entry
    that was built under a spec without the gate, and an audited spec must
    not trust it unaudited.  On rejection the entry is evicted so a
    resubmitted key re-audits (and fails again) instead of silently
    proving on the tainted circuit."""
    with PhaseTimer("audit", sink=phases):
        audit = audit_system(
            entry.prover.cs,
            assume=assume_from_recipe(entry.prover.result.recipe),
        )
    if audit.ok:
        entry.audited = True
        return None
    del _WARM[key]
    return {
        "errors": len(audit.errors),
        "first": audit.errors[0].message,
        "report": audit.to_json(),
    }


def _model_keys(entry: _WarmEntry, crs_seed: int, backend, phases):
    """The whole-model ``(cold, (setup, vk bytes))``."""
    cold = entry.keys is None
    if cold:
        with PhaseTimer("warmup", sink=phases):
            setup = entry.prover.warm_setup(backend, random.Random(crs_seed))
        entry.keys = (setup, serialize_verifying_key(setup.verifying_key))
        phases["setup"] = entry.prover.stats.setup_time
    return cold, entry.keys


def _layer_keys(entry: _WarmEntry, agg: Dict[str, Any], backend, phases):
    """One *layer* job's ``(cold, instance, (setup, vk bytes))``.

    ``agg`` is ``spec["aggregate"]``: ``{mode, num_segments, crs_seed,
    layer}``; the batch key guarantees every payload targets the same
    layer.  The :func:`repro.aggregate.split_model` cost is shared across
    ALL layers of the circuit (the split's structure does not depend on
    the image), and each layer's trusted setup is built the first time
    that layer lands on this worker, from
    :func:`repro.aggregate.prove.crs_rng` — a pure function of the job, so
    local pools and remote cluster nodes hold the same layer keys.
    """
    layer = int(agg["layer"])
    split_key = (agg.get("mode", "public"), agg.get("num_segments"))
    cold = split_key not in entry.splits
    if cold:
        with PhaseTimer("warmup", sink=phases):
            entry.splits[split_key] = split_model(
                entry.prover.cs, mode=split_key[0], num_segments=split_key[1]
            )
    split = entry.splits[split_key]
    if layer < 0 or layer >= split.num_instances:
        raise ValueError(
            f"layer {layer} out of range: split has "
            f"{split.num_instances} instances"
        )
    inst = split.instances[layer]
    crs_seed = int(agg.get("crs_seed", DEFAULT_CRS_SEED))
    layer_key = split_key + (crs_seed, layer)
    with PhaseTimer("setup", sink=phases):
        if layer_key not in entry.layer_keys:
            setup = groth16.setup(inst.cs, backend, crs_rng(crs_seed, layer))
            entry.layer_keys[layer_key] = (
                setup, serialize_verifying_key(setup.verifying_key)
            )
    return cold, inst, entry.layer_keys[layer_key]


def _proof_rng(spec: Dict[str, Any], image, inst) -> Optional[random.Random]:
    """Per-proof randomness source; None = fresh OS-seeded blinding.

    With ``spec["deterministic"]`` the (r, s) blinding factors are derived
    from the CRS seed and the image digest — for a layer instance, from
    :func:`repro.aggregate.prove.blinding_rng` over its re-assigned
    publics — making the proof bytes a pure function of the job: the
    property the cluster's cross-node byte-identity checks (and its
    rerouted retries) rely on.
    """
    if not spec.get("deterministic"):
        return None
    if inst is not None:
        crs_seed = int(spec["aggregate"].get("crs_seed", DEFAULT_CRS_SEED))
        return blinding_rng(crs_seed, inst.index, inst.cs.public_values())
    digest = hashlib.sha256(image.tobytes()).digest()
    return random.Random(
        int.from_bytes(digest, "big") ^ spec.get("crs_seed", SERVE_CRS_SEED)
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
    payload, setup, cs, backend, rng, phases: Dict[str, float]
) -> Dict[str, Any]:
    """Prove + self-verify ``cs`` for one job; returns its result row."""
    with PhaseTimer("security", sink=phases):
        # phase_sink splits "security" into witness / quotient / msm in
        # the same phases dict the telemetry aggregates.
        proof = groth16.prove(
            setup.proving_key, cs, backend, rng=rng, phase_sink=phases
        )
    publics = [int(v) for v in cs.public_values()]
    verified = groth16.verify(setup.verifying_key, publics, proof, backend)
    return {
        "job_id": payload["job_id"],
        "proof": serialize_proof(proof),
        "public_inputs": publics,
        "logits": [signed(v, cs.field.modulus) for v in publics],
        "verified": bool(verified),
    }


def prove_batch(
    spec: Dict[str, Any], payloads: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Prove every job in one batch inside a worker process.

    ``spec`` carries the flat :class:`CircuitSpec` keys plus ``backend``,
    ``crs_seed``, ``audit``, ``deterministic`` and, for a per-layer job,
    ``aggregate`` (keys it does not know — an older coordinator's — are
    ignored); ``payloads`` carry ``{"job_id", "image"}`` (plus optional
    ``crash_token`` for fault injection, see :func:`_maybe_crash`).
    """
    # A misspelt backend fails here, before any circuit is built.
    backend = backend_by_name(spec.get("backend", "simulated"))
    phases: Dict[str, float] = {}
    key, entry = _warm_entry(spec, payloads[0]["image"], phases)
    reply = {"pid": os.getpid(), "phases": phases}
    if spec.get("audit") and not entry.audited:
        rejected = _audit_rejection(key, entry, phases)
        if rejected:
            return dict(reply, audit_rejected=rejected)
    inst = None  # the layer instance an aggregate job proves
    if spec.get("aggregate"):
        cold, inst, (setup, vk_bytes) = _layer_keys(
            entry, spec["aggregate"], backend, phases
        )
        reply["aggregate_layer"] = inst.index
    else:
        cold, (setup, vk_bytes) = _model_keys(entry, key[2], backend, phases)

    prover = entry.prover
    tables = setup.proving_key.tables
    tables_uses_before = tables.uses() if tables else 0
    results = []
    for payload in payloads:
        _maybe_crash(payload)
        with PhaseTimer("assign", sink=phases):
            prover.assign_image(payload["image"])
            if inst is not None:
                inst.refresh_from(prover.cs)
        results.append(
            _prove_job(
                payload, setup,
                prover.cs if inst is None else inst.cs, backend,
                _proof_rng(spec, payload["image"], inst), phases,
            )
        )
    return dict(
        reply,
        cold=cold,
        vk=vk_bytes,
        results=results,
        # Fixed-base table telemetry: `built` marks the one-time table
        # construction, `uses` counts table queries served by THIS batch
        # (ProvingKeyTables.uses(): keys.TABLE_QUERIES_PER_PROOF a proof) —
        # nonzero on a warm batch proves the CRS tables were reused.
        msm_tables={
            "built": bool(cold and tables is not None),
            "uses": (tables.uses() - tables_uses_before) if tables else 0,
        },
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
                max_workers=self.max_workers, mp_context=self._ctx,
                initializer=pool._leave_with_parent, initargs=(os.getpid(),),
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
