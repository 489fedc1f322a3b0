"""Fixed-size kernel timings, one call into each layer's public function.

A traced pass runs these once.  They explain a workload's spans (how long
is one NTT at ``cnn_whole``'s domain size, one G1 MSM, one journal
append), and because their sizes never change they show a layer moving
even on a workload that does not call it.
"""

from __future__ import annotations

import random
import socket
from pathlib import Path
from typing import Dict

from harness import Tracer, median, timed, use_repo
from workloads import CnnWhole, make_image

use_repo()

from repro.cluster.protocol import MsgType, pack_frame, read_frame  # noqa: E402
from repro.cluster.verification import verify_claims  # noqa: E402
from repro.ec.backend import RealBN254Backend  # noqa: E402
from repro.field import BN254_FR, batch_inverse  # noqa: E402
from repro.gateway.journal import JobJournal  # noqa: E402
from repro.serve.store import ArtifactStore  # noqa: E402
from repro.snark.qap import Domain  # noqa: E402
from repro.snark.serialize import serialize_verifying_key  # noqa: E402

NTT_SIZE = 8192  # cnn_whole's evaluation domain
INVERSE_SIZE = 4096
G1_SIZE = 1024
G2_SIZE = 256
PAIRS = 4  # one Groth16 verification
JOURNAL_APPENDS = 200
CLAIMS = 4


def multiples(backend, generator, count: int) -> list:
    """``G, 2G, 3G, ...``: distinct points for one addition each."""
    points = [generator]
    for _ in range(count - 1):
        points.append(backend.add(points[-1], generator))
    return points


def kernel_probes(seed: int, work: Path) -> Dict[str, float]:
    rng = random.Random(seed)
    modulus = BN254_FR.modulus
    out: Dict[str, float] = {}

    domain = Domain.for_size(NTT_SIZE)
    evals = [rng.randrange(modulus) for _ in range(NTT_SIZE)]
    out["field.ntt_s"] = timed(lambda: domain.coset_ntt(domain.intt(evals)))
    values = [rng.randrange(1, modulus) for _ in range(INVERSE_SIZE)]
    out["field.batch_inverse_s"] = timed(lambda: batch_inverse(BN254_FR, values))

    curve = RealBN254Backend()
    scalars = [rng.randrange(1, modulus) for _ in range(G1_SIZE)]
    g1 = multiples(curve, curve.g1_generator(), G1_SIZE)
    g2 = multiples(curve, curve.g2_generator(), G2_SIZE)
    out["ec.msm_g1_s"] = timed(lambda: curve.msm(g1, scalars))
    out["ec.msm_g2_s"] = timed(
        lambda: curve.msm(g2, scalars[:G2_SIZE], zero=curve.g2_zero())
    )
    tables = []
    out["ec.fixed_base_build_s"] = timed(
        lambda: tables.append(curve.precompute_msm(g1))
    )
    out["ec.fixed_base_query_s"] = timed(lambda: tables[0].msm(scalars))
    a, b = g1[4], g2[6]
    pairs = [(a, b), (curve.neg(a), b)] * (PAIRS // 2)
    verdicts = []
    out["ec.pairing_check_s"] = timed(
        lambda: verdicts.append(curve.pairing_product_is_one(pairs))
    )
    if verdicts != [True]:
        raise AssertionError("e(P,Q) * e(-P,Q) != 1")

    journal = JobJournal(work / "probe-journal.wal")
    try:
        out["gateway.journal_append_s_p50"] = median([
            timed(lambda: journal.append(
                {"t": "queued", "gid": f"g-{i}", "attempts": 0, "delay": 0.0},
                durable=True,
            ))
            for i in range(JOURNAL_APPENDS)
        ])
    finally:
        journal.close()

    # One small proof gives the codec, claim and store probes real bytes.
    probe = CnnWhole("SHAL", "micro")
    tr = Tracer()
    probe.setup(seed, tr)
    probe.request(make_image(probe.model, seed, 0), tr)
    blob, publics = probe.last
    vk_bytes = serialize_verifying_key(probe.keys.verifying_key)

    message = {"batch_id": 1, "vk": vk_bytes, "results": [
        {"job_id": f"j{i}", "proof": blob, "public_inputs": publics,
         "verified": True}
        for i in range(CLAIMS)
    ]}
    left, right = socket.socketpair()
    try:
        def roundtrip():
            left.sendall(pack_frame(MsgType.JOB_RESULT, message))
            return read_frame(right)
        out["cluster.codec_roundtrip_s"] = timed(roundtrip)
    finally:
        left.close()
        right.close()
    claims = [(publics, blob)] * CLAIMS
    out["cluster.verify_claims_s"] = timed(
        lambda: verdicts.append(verify_claims(vk_bytes, claims).all_ok)
    )
    if verdicts[-1] is not True:
        raise AssertionError("verify_claims rejected honest claims")

    store = ArtifactStore(work / "probe-store")
    out["serve.store_put_get_s"] = timed(
        lambda: store.get(store.put("vk", vk_bytes))
    )
    return out
