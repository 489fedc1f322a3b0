#!/usr/bin/env python
"""Proving-as-a-service: batched, multi-worker Groth16 over ZENO.

The paper's deployments (World ID door locks, zero-knowledge ML APIs)
are *services*: requests arrive continuously and the prover farm has to
keep up.  This example runs `repro.serve.ProvingService` the way such a
deployment would:

* a burst of inference requests for the same public network is submitted,
  each naming its circuit with one `CircuitSpec` (model, scale, weights,
  privacy, gadget lowering) — checked at submit, so a typo fails there;
* the adaptive micro-batcher groups them so the §6.1 batch-specialized
  constraint-system sharing runs Generate + Circuit Computation once per
  batch, not once per request;
* a process worker pool proves in parallel, each worker keeping a warm
  proving-key cache so trusted setup is paid once per worker;
* proofs and the verifying key land in a content-addressed artifact
  store, and the service exports live telemetry (queue depth, batch-size
  histogram, Fig.-4-style phase latencies, key-cache hit rate).

Run:
    python examples/proving_service.py
    python examples/proving_service.py --jobs 16 --workers 4
"""

import argparse
import json
import sys

try:
    import repro  # noqa: F401  (installed, or PYTHONPATH already set)
except ModuleNotFoundError:  # fresh checkout: fall back to <repo>/src
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.core.spec import CircuitSpec
from repro.serve import ProvingService
from repro.snark import groth16
from repro.snark.serialize import (
    deserialize_proof,
    deserialize_verifying_key,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="SHAL")
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=4)
    args = parser.parse_args(argv)

    # 1. Start the service: N worker processes, micro-batching enabled.
    service = ProvingService(
        max_workers=args.workers, max_batch=args.max_batch, max_wait=0.05
    )
    print(
        f"service up: {args.workers} workers "
        f"(pids {service.worker_pids}), max batch {args.max_batch}"
    )

    # 2. A burst of requests — different private images, one circuit.
    circuit = CircuitSpec(args.model, scale="mini")
    job_ids = [
        service.submit(circuit, image_seed=1000 + i) for i in range(args.jobs)
    ]
    print(f"submitted {len(job_ids)} jobs for {args.model}/mini")

    # 3. Collect results: every proof must verify.
    for job_id in job_ids:
        res = service.result(job_id, timeout=300)
        assert res.verified
        print(
            f"  {job_id}: class {int(np.argmax(res.logits))}  "
            f"worker={res.worker_pid}  batch #{res.batch_id} "
            f"(size {res.batch_size})  proof {len(res.proof)}B"
        )

    # 4. Anyone can re-verify from the artifact store alone.
    sample = service.job(job_ids[0]).result
    vk = deserialize_verifying_key(service.store.get(sample.store_keys["vk"]))
    proof = deserialize_proof(service.store.get(sample.store_keys["proof"]))
    assert groth16.verify(vk, sample.public_inputs, proof)
    print("re-verified proof straight from the artifact store")

    # 5. Telemetry: fewer batch runs than jobs means sharing paid off.
    service.shutdown(drain=True)
    stats = service.stats()
    runs = stats["batches"]["runs"]
    print(
        f"\n{args.jobs} jobs served by {runs} batch-prover runs "
        f"(constraint system shared {args.jobs - runs} times); "
        f"key-cache hit rate {stats['key_cache']['hit_rate']:.0%}"
    )
    print(json.dumps(stats, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
