"""Command-line interface: compile, prove, verify, serve, and inspect.

Usage (after ``pip install -e .``)::

    python -m repro.cli models                      # Table 4 inventory
    python -m repro.cli compile --model LCS         # circuit statistics
    python -m repro.cli prove --model SHAL --scale mini --out proof.bin
    python -m repro.cli verify --proof proof.bin ... (see prove output)
    python -m repro.cli compare --model LCL         # arkworks vs ZENO
    python -m repro.cli serve --jobs 8 --workers 2  # batched proving service
    python -m repro.cli submit --input img.npy      # one job via the service

``prove`` writes the serialized proof plus a JSON claim file; ``verify``
replays Groth16 verification against them.  The trusted setup is
re-derived from the deterministic seed recorded in the claim, standing in
for CRS distribution (a real deployment ships the verifying key instead).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.compiler import (
    PrivacySetting,
    ZenoCompiler,
    arkworks_options,
    zeno_options,
)
from repro.core.spec import CircuitSpec
from repro.field import BN254_FR_MODULUS, signed
from repro.nn.models import MODEL_ORDER, TRANSFORMER_ORDER, model_table
from repro.snark import groth16
from repro.snark.serialize import (
    deserialize_proof,
    deserialize_verifying_key,
    serialize_proof,
    serialize_verifying_key,
)


def _spec(args) -> CircuitSpec:
    """The circuit the parsed flags name (an unset flag = spec default)."""
    return CircuitSpec.from_mapping(vars(args))


def _parse_size(text: str) -> int:
    """Parse a human byte size: '512M', '16G', '4096', '1.5G'."""
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}
    mult = 1
    if text and text[-1].upper() in units:
        mult = units[text[-1].upper()]
        text = text[:-1]
    try:
        return int(float(text) * mult)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unparseable size: {text!r}")


def cmd_models(args) -> int:
    print(f"{'abbr':7s}{'network':18s}{'layers':>7s}{'#FLOPs(K)':>11s}"
          f"{'paper(K)':>10s}")
    for row in model_table(scale=args.scale):
        print(
            f"{row['abbr']:7s}{row['network']:18s}{row['layers']:>7d}"
            f"{row['flops_k']:>11,}{row['paper_flops_k']:>10,}"
        )
    return 0


def _print_relu_comparison(spec: CircuitSpec, image) -> None:
    """Compile both nonlinearity lowerings and report the constraint delta."""
    counts = {
        mode: replace(spec, relu_mode=mode).compile(image).num_constraints
        for mode in ("bits", "lookup")
    }
    delta = counts["bits"] - counts["lookup"]
    ratio = counts["bits"] / counts["lookup"] if counts["lookup"] else 0.0
    print(
        f"  relu-mode comparison ({spec.gadgets} gadgets): "
        f"bits={counts['bits']:,} lookup={counts['lookup']:,} "
        f"({'saves' if delta >= 0 else 'costs'} {abs(delta):,} constraints, "
        f"{ratio:.2f}x)"
    )


def cmd_compile(args) -> int:
    spec = _spec(args)
    image = spec.image(args.image_seed)
    artifact = spec.compile(image)
    print(ZenoCompiler(artifact.options).report(artifact).summary())
    lookup = artifact.lookup
    if lookup is not None:
        print(
            f"  lookup ({lookup.mode}): {lookup.total_lookups:,} lookups over "
            f"{len(lookup.tables)} tables, "
            f"{lookup.total_lookup_constraints:,} constraints "
            f"(bit-decomposition estimate "
            f"{lookup.bits_equivalent_constraints:,})"
        )
    if args.compare_relu:
        _print_relu_comparison(spec, image)
    if artifact.compute.knit_constraints:
        saving = artifact.compute.knit_expressions / artifact.compute.knit_constraints
        print(f"  knit packing: {saving:.1f} equality checks per constraint")
    sparsity = artifact.sparsity
    if sparsity is not None:
        if sparsity.enabled:
            print(
                f"  sparsity: elided {sparsity.zero_terms_elided:,} of "
                f"{sparsity.weight_terms_total:,} weight terms "
                f"({sparsity.zero_rows:,}/{sparsity.total_rows:,} zero rows, "
                f"{sparsity.distinct_rows:,} distinct row plans, "
                f"{sparsity.row_plan_hits:,} plan reuses)"
            )
            if sparsity.outputs_shared or sparsity.relus_shared:
                print(
                    f"  sparsity: shared {sparsity.outputs_shared:,} output "
                    f"sub-circuits, {sparsity.relus_shared:,} ReLU gadgets"
                )
        else:
            print("  sparsity: requested but inactive (weights are private)")
    if args.detail:
        from repro.core.inspect import format_layer_table

        print()
        print(format_layer_table(artifact))
    return 0


def cmd_audit(args) -> int:
    from repro.analysis import assume_from_recipe, audit_system

    # Default to the sound gadget profile: lean mode's slack wires are
    # exactly what the determinism check exists to flag.
    spec = replace(_spec(args), gadgets=args.gadgets or "strict")
    artifact = spec.compile(spec.image(args.image_seed), record_recipe=True)
    assume = assume_from_recipe(artifact.compute.recipe)
    if args.per_layer:
        from repro.aggregate import audit_split

        split = artifact.split(
            mode=args.boundary_mode, num_segments=args.segments
        )
        report = audit_split(
            split, assume=assume, fuzz=args.fuzz,
            rng=random.Random(args.fuzz_seed),
        )
    else:
        report = audit_system(
            artifact.cs, assume=assume, fuzz=args.fuzz,
            rng=random.Random(args.fuzz_seed),
        )
    print(report.summary())
    if args.json:
        Path(args.json).write_text(report.to_json(indent=2))
        print(f"report: {args.json}")
    return 0 if report.ok else 1


def _cmd_prove_per_layer(args, artifact) -> int:
    """Split at layer boundaries, prove each instance, fold to one file."""
    from repro.aggregate import (
        fold,
        prove_split,
        setup_split,
        verify_aggregate,
    )

    start = time.perf_counter()
    split = artifact.split(mode=args.boundary_mode, num_segments=args.segments)
    setups = setup_split(split, crs_seed=args.crs_seed)
    proofs = prove_split(
        split, setups, crs_seed=args.crs_seed, parallelism=args.parallelism
    )
    agg = fold(split, setups, [proofs], crs_seed=args.crs_seed)
    verdict = verify_aggregate(agg)
    elapsed = time.perf_counter() - start
    if not verdict.ok:
        print(f"aggregate self-check failed: {verdict.reason}",
              file=sys.stderr)
        return 1

    out = Path(args.out if args.out != "proof.bin" else "aggregate.json")
    agg.save(str(out))
    logits = artifact.public_outputs_signed()
    print(f"prediction: class {int(np.argmax(logits))}")
    for inst in split.instances:
        print(
            f"  layer {inst.index} {inst.name:24s} "
            f"m={inst.cs.num_constraints:6d} pub={inst.cs.num_public:5d} "
            f"rows [{inst.row_start},{inst.row_stop})"
        )
    print(f"aggregate: {out} ({out.stat().st_size} bytes, "
          f"{split.num_instances} layers, mode={split.mode})")
    commitment = split.commitment_rows()
    domains = sum(setup.proving_key.domain_size for setup in setups)
    print(
        f"proved {split.total_constraints()} constraints "
        f"({split.total_constraints() - commitment} inherited + "
        f"{commitment} commitment rows, domain sizes sum to {domains}) "
        f"in {elapsed:.2f}s ({args.parallelism} worker(s)); verification "
        f"costs {verdict.num_pairings} pairings vs "
        f"{verdict.naive_pairings} naive"
    )
    print(f"verify with: repro verify --aggregate {out}")
    return 0


@contextlib.contextmanager
def _streamed_crs():
    """``prove --max-rss``: a throw-away content-addressed chunk store for
    the CRS, gone when the block exits, however it exits.

    The prover then maps one 8 MiB chunk at a time
    (:data:`repro.snark.chunked.DEFAULT_CHUNK_BYTES`) instead of holding
    the full proving key.
    """
    from repro.serve.store import ArtifactStore

    with tempfile.TemporaryDirectory(prefix="zeno-crs-") as root:
        yield ArtifactStore(root, max_entries=1 << 30)


def cmd_prove(args) -> int:
    spec = _spec(args)
    artifact = spec.compile(spec.image(args.image_seed))
    if args.per_layer:
        return _cmd_prove_per_layer(args, artifact)
    max_rss = args.max_rss
    start = time.perf_counter()
    phases: dict = {}
    streamed = max_rss is not None
    with _streamed_crs() if streamed else contextlib.nullcontext() as store:
        setup = groth16.setup(
            artifact.cs, rng=random.Random(args.crs_seed), store=store
        )
        proof = groth16.prove(
            setup.proving_key, artifact.cs, phase_sink=phases
        )
    elapsed = time.perf_counter() - start
    if not groth16.verify(
        setup.verifying_key, artifact.public_inputs(), proof
    ):
        print("self-check failed: the proof does not verify", file=sys.stderr)
        return 1

    out = Path(args.out)
    logits = artifact.public_outputs_signed()
    # The verifier rebuilds the circuit from the spec and re-derives the
    # CRS from the recorded seeds (standing in for CRS distribution).
    claim_path = _write_claim(
        out, spec, serialize_proof(proof), artifact.public_inputs(), logits,
        image_seed=args.image_seed, crs_seed=args.crs_seed,
    )
    print(f"prediction: class {int(np.argmax(logits))}")
    print(f"proof:  {out} ({out.stat().st_size} bytes)")
    print(f"claim:  {claim_path}")
    print(f"proved m={artifact.num_constraints} constraints in {elapsed:.2f}s")
    breakdown = ", ".join(f"{k} {v:.3f}s" for k, v in phases.items())
    print(f"prover phases: {breakdown}")
    if max_rss is not None:
        from repro.core.metrics import peak_rss_bytes

        peak = peak_rss_bytes()
        status = "within" if peak <= max_rss else "EXCEEDED"
        print(
            f"peak RSS: {peak / (1 << 20):.1f} MiB "
            f"({status} --max-rss {max_rss / (1 << 20):.1f} MiB)"
        )
        if peak > max_rss:
            return 3
    return 0


def _write_claim(
    out: Path, spec: CircuitSpec, proof: bytes, public_inputs, logits,
    **key_source,
) -> Path:
    """Save one proof under the naming contract ``verify --batch`` scans
    for: ``out`` is the proof and ``<out>.claim.json`` the claim — the
    circuit's spec, the public inputs, and either the seeds that re-derive
    the verifying key or the ``vk_file`` that holds it."""
    out.write_bytes(proof)
    claim = {
        **spec.to_json(),
        **key_source,
        "public_inputs": [str(v) for v in public_inputs],
        "logits": logits,
    }
    claim_path = out.with_suffix(out.suffix + ".claim.json")
    claim_path.write_text(json.dumps(claim, indent=2))
    return claim_path


def _claim_vk(
    claim_path: Path, claim: dict, derived: Dict[Tuple, bytes]
) -> bytes:
    """The serialized verifying key a claim's proof must verify under.

    A service-produced claim (``submit``) ships the key as ``vk_file``: the
    CRS was generated inside a worker.  Otherwise the verifier knows the
    public model: rebuild the circuit from the claim's spec and re-derive
    the CRS from the recorded seed, once per recipe (``derived``)."""
    if "vk_file" in claim:
        return (claim_path.parent / claim["vk_file"]).read_bytes()
    spec = CircuitSpec.from_mapping(claim)
    recipe = (spec, claim["image_seed"], claim["crs_seed"])
    if recipe not in derived:
        artifact = spec.compile(spec.image(claim["image_seed"]))
        setup = groth16.setup(artifact.cs, rng=random.Random(claim["crs_seed"]))
        derived[recipe] = serialize_verifying_key(setup.verifying_key)
    return derived[recipe]


def _batch_verify_dir(directory: Path) -> int:
    """Verify every ``*.claim.json`` under ``directory`` in one batch pass."""
    from repro.cluster.verification import verify_claims

    claim_paths = sorted(directory.glob("*.claim.json"))
    if not claim_paths:
        print(f"no *.claim.json files under {directory}")
        return 1

    # Claims that share a verifying key verify together under one
    # random-linear-combination check (k + 3 pairings for k proofs).
    derived: Dict[Tuple, bytes] = {}
    groups: dict = {}
    for claim_path in claim_paths:
        claim = json.loads(claim_path.read_text())
        proof_path = claim_path.with_name(claim_path.name[: -len(".claim.json")])
        groups.setdefault(_claim_vk(claim_path, claim, derived), []).append(
            (
                proof_path.name,
                [int(v) for v in claim["public_inputs"]],
                proof_path.read_bytes(),
            )
        )

    failed = 0
    for vk_bytes, entries in groups.items():
        verdict = verify_claims(
            vk_bytes, [(publics, proof) for _, publics, proof in entries]
        )
        for (name, _, _), ok, err in zip(
            entries, verdict.per_proof, verdict.errors
        ):
            detail = f"  ({err})" if err else ""
            print(f"  {name}: {'ACCEPTED' if ok else 'REJECTED'}{detail}")
            failed += 0 if ok else 1
        print(
            f"aggregate ({len(entries)} proof(s), 1 key): "
            f"{'ACCEPTED' if verdict.aggregate else 'REJECTED'}"
        )
    total = sum(len(entries) for entries in groups.values())
    print(
        f"batch verification: {total - failed}/{total} accepted "
        f"across {len(groups)} verifying key(s)"
    )
    return 0 if failed == 0 else 1


def _verify_aggregate_file(path: Path) -> int:
    """Verify a folded per-layer artifact with one batched pairing check."""
    from repro.aggregate import AggregateError, AggregateProof, verify_aggregate

    try:
        agg = AggregateProof.load(str(path))
    except (OSError, AggregateError) as exc:
        print(f"aggregate: unreadable artifact: {exc}")
        return 1
    verdict = verify_aggregate(agg)
    print(
        f"aggregate {path}: model={agg.model} mode={agg.mode} "
        f"{len(agg.layers)} layer(s), {len(agg.inferences)} inference(s)"
    )
    if not verdict.ok:
        print(f"verification: REJECTED ({verdict.reason})")
        return 1
    for i, globals_out in enumerate(verdict.globals_per_inference):
        logits = [
            signed(v, BN254_FR_MODULUS) for _, v in sorted(globals_out.items())
        ]
        if logits:
            print(
                f"  inference {i}: prediction class "
                f"{int(np.argmax(logits))} (logits {logits})"
            )
    print(
        f"verification: ACCEPTED — {verdict.num_proofs} proofs in "
        f"{verdict.num_pairings} pairings ({verdict.naive_pairings} naive)"
    )
    return 0


def cmd_verify(args) -> int:
    if args.aggregate:
        return _verify_aggregate_file(Path(args.aggregate))
    if args.batch:
        return _batch_verify_dir(Path(args.batch))
    if not (args.proof and args.claim):
        print("verify: either --batch DIR or both --proof and --claim")
        return 2
    proof = deserialize_proof(Path(args.proof).read_bytes())
    claim_path = Path(args.claim)
    claim = json.loads(claim_path.read_text())
    vk = deserialize_verifying_key(_claim_vk(claim_path, claim, {}))
    ok = groth16.verify(vk, [int(v) for v in claim["public_inputs"]], proof)
    print(f"verification: {'ACCEPTED' if ok else 'REJECTED'}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    spec = _spec(args)
    model, image = spec.build_model(), spec.image(args.image_seed)
    privacy = PrivacySetting.names()[spec.privacy]
    reports = {}
    for options in (arkworks_options(privacy), zeno_options(privacy)):
        compiler = ZenoCompiler(options)
        artifact = compiler.compile_model(model, image)
        reports[options.name] = compiler.report(artifact)
        print(reports[options.name].summary())
        print()
    speedup = reports["zeno"].speedup_over(reports["arkworks"])
    print(f"end-to-end ZENO speedup: {speedup:.2f}x")
    return 0


def cmd_serve(args) -> int:
    """Run a demo workload through the batched multi-worker proving service."""
    from repro.serve import ProvingService

    spec = _spec(args)
    service = ProvingService(
        max_workers=args.workers,
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        store_dir=args.store_dir,
        audit=args.audit,
    )
    print(
        f"serving {args.jobs} jobs for {spec.model}/{spec.scale} "
        f"across {args.workers} workers (max batch {args.max_batch})"
    )
    job_ids = [
        service.submit(spec, image_seed=args.image_seed + i)
        for i in range(args.jobs)
    ]
    for job_id in job_ids:
        res = service.result(job_id, timeout=600)
        print(
            f"{job_id}: class {int(np.argmax(res.logits))}  "
            f"verified={res.verified}  worker={res.worker_pid}  "
            f"batch #{res.batch_id} (size {res.batch_size})  "
            f"proof {len(res.proof)}B -> {res.store_keys['proof']}"
        )
    service.shutdown(drain=True)
    print(json.dumps(service.stats(), indent=2))
    return 0


def _write_job_artifacts(
    spec: CircuitSpec, out: Path, proof: bytes, public_inputs, logits,
    vk: bytes,
) -> Tuple[Path, Path]:
    """Save one served result: proof, claim, and ``<out>.vk`` — the
    verifying key the claim references."""
    vk_path = out.with_suffix(out.suffix + ".vk")
    vk_path.write_bytes(vk)
    claim_path = _write_claim(
        out, spec, proof, public_inputs, logits, vk_file=vk_path.name
    )
    return vk_path, claim_path


def cmd_submit(args) -> int:
    """Enqueue one job (from a saved ``.npy`` input) and save its proof."""
    from repro.serve import ProvingService

    spec = _spec(args)
    image = np.load(args.input) if args.input else spec.image(args.image_seed)
    service = ProvingService(max_workers=1, max_wait=0.0)
    job_id = service.submit(spec, image)
    res = service.result(job_id, timeout=600)
    service.shutdown(drain=True)

    out = Path(args.out)
    vk_path, claim_path = _write_job_artifacts(
        spec, out, res.proof, res.public_inputs, res.logits,
        service.store.get(res.store_keys["vk"]),
    )
    print(f"prediction: class {int(np.argmax(res.logits))}")
    print(f"proof:  {out} ({out.stat().st_size} bytes)  verified={res.verified}")
    print(f"vk:     {vk_path}")
    print(f"claim:  {claim_path}")
    return 0


def _parse_address(text: str):
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def cmd_cluster_worker(args) -> int:
    """Register one proving node with a coordinator and serve batches."""
    from repro.cluster import WorkerNode

    node = WorkerNode(
        _parse_address(args.connect),
        node_id=args.node_id,
        pool_workers=args.pool_workers,
        window=args.window,
    )
    node.start()
    print(
        f"worker {node.node_id} connected to {args.connect} "
        f"[pool={args.pool_workers} window={args.window}]",
        flush=True,
    )
    try:
        node.run_forever()
    except KeyboardInterrupt:
        node.stop()
    return 0


def _gateway_call(base: str, path: str, api_key: Optional[str], body=None):
    """One JSON request to a gateway: ``(status, reply)``."""
    import urllib.error
    import urllib.request

    req = urllib.request.Request(
        base + path,
        data=None if body is None else json.dumps(body).encode(),
        headers={"X-API-Key": api_key} if api_key else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read() or b"{}")


def cmd_cluster_submit(args) -> int:
    """Submit a batch of jobs through a gateway and collect the proofs."""
    spec = _spec(args)
    base = "http://%s:%d" % _parse_address(args.connect)
    gids = []
    for i in range(args.jobs):
        body = dict(spec.to_json(), image_seed=args.image_seed + i)
        status, reply = _gateway_call(base, "/submit", args.api_key, body)
        if status != 200:
            print(f"submit refused ({status}): {reply.get('error')}",
                  file=sys.stderr)
            return 1
        gids.append(reply["job_id"])
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + args.timeout
    ok = True
    for gid in gids:
        status, view = _gateway_call(base, f"/result/{gid}", args.api_key)
        while status == 202 and time.monotonic() < deadline:
            time.sleep(0.1)
            status, view = _gateway_call(base, f"/result/{gid}", args.api_key)
        if status != 200 or view.get("state") != "done":
            print(f"{gid}: {view.get('state', status)} {view.get('error', '')}")
            ok = False
            continue
        print(
            f"{gid}: class {int(np.argmax(view['logits']))}  "
            f"node={view['store_keys'].get('node')}  "
            f"batch size {view['batch_size']}  attempts={view['attempts']}"
        )
        if out_dir and not view.get("vk"):
            print(f"{gid}: result came back without its verifying key",
                  file=sys.stderr)
            ok = False
        elif out_dir:
            _write_job_artifacts(
                spec, out_dir / f"{gid}.proof.bin",
                bytes.fromhex(view["proof"]), view["public_inputs"],
                view["logits"], bytes.fromhex(view["vk"]),
            )
    if args.stats:
        print(json.dumps(_gateway_call(base, "/metrics", args.api_key)[1],
                         indent=2))
    if out_dir:
        print(f"artifacts: {out_dir} (verify with: repro verify --batch "
              f"{out_dir})")
    return 0 if ok else 1


def cmd_gateway(args) -> int:
    """Run the durable HTTP gateway: journal + coordinator + autoscaler."""
    from repro.cluster import ClusterConfig, ClusterCoordinator
    from repro.gateway import (
        Autoscaler,
        AutoscalerConfig,
        DurableCoordinator,
        GatewayConfig,
        GatewayServer,
        InProcessNodeLauncher,
        JobJournal,
        SubprocessNodeLauncher,
    )
    from repro.serve.service import ServiceConfig

    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)

    cluster_cfg = ClusterConfig(
        host=args.cluster_host,
        port=args.cluster_port,
        node_window=args.window,
        service=ServiceConfig(
            max_batch=args.max_batch,
            max_wait=args.max_wait,
            max_retries=args.max_retries,
            deterministic=True,  # recovery re-proves must be byte-identical
            audit=args.audit,
        ),
    )
    coordinator = ClusterCoordinator(cluster_cfg)
    chost, cport = coordinator.start()

    journal = JobJournal(data_dir / "journal.wal")
    durable = DurableCoordinator(coordinator, journal)

    if args.node_mode == "subprocess":
        launcher = SubprocessNodeLauncher(
            (chost, cport), pool_workers=args.pool_workers,
            window=args.window,
        )
    else:
        launcher = InProcessNodeLauncher(
            (chost, cport), mode=args.node_mode,
            pool_workers=args.pool_workers, window=args.window,
        )
    autoscaler = Autoscaler(
        coordinator, launcher,
        AutoscalerConfig(
            min_nodes=args.min_nodes, max_nodes=args.max_nodes,
            scale_up_backlog=args.scale_up_backlog,
            scale_down_idle=args.scale_down_idle,
        ),
    ).start()

    api_keys = dict(kv.split("=", 1) for kv in args.api_key or [])
    weights = {
        t: float(w)
        for t, w in (kv.split("=", 1) for kv in args.tenant_weight or [])
    }
    gateway = GatewayServer(
        durable,
        GatewayConfig(
            host=args.host, port=args.port, api_keys=api_keys,
            tenant_weights=weights, rate=args.rate, burst=args.burst,
            gadgets=args.gadgets,
        ),
        autoscaler=autoscaler,
    ).start()

    if args.port_file:
        # Atomic: the smoke/bench harness polls for this file to learn
        # the bound port, and must never read a half-written one.
        tmp_path = Path(args.port_file + ".tmp")
        tmp_path.write_text(f"{gateway.host} {gateway.port}\n")
        tmp_path.replace(args.port_file)
    print(
        f"gateway listening on {gateway.host}:{gateway.port} "
        f"(cluster {chost}:{cport}, journal {journal.path}, "
        f"recovered pending={durable.recovered_pending} "
        f"completed={durable.recovered_completed})",
        flush=True,
    )
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    gateway.stop()
    autoscaler.stop()
    coordinator.shutdown(drain=True)
    durable.close()
    print(json.dumps(durable.stats(), indent=2, default=repr))
    return 0


def _model_args(parser: argparse.ArgumentParser) -> None:
    """Which network, which input: every subcommand that names a job."""
    parser.add_argument(
        "--model", default="LCS", choices=MODEL_ORDER + TRANSFORMER_ORDER
    )
    parser.add_argument("--scale", default="mini",
                        choices=["full", "mini", "micro"])
    parser.add_argument("--seed", type=int, default=0, help="weight seed")
    parser.add_argument("--image-seed", type=int, default=42)
    parser.add_argument(
        "--privacy", default="one-private",
        choices=sorted(PrivacySetting.names()),
    )


def _circuit_args(parser: argparse.ArgumentParser) -> None:
    """How the network is lowered to constraints."""
    parser.add_argument("--gadgets", choices=["lean", "strict"], default=None)
    parser.add_argument(
        "--relu-mode", choices=["bits", "lookup"], default=None,
        help="nonlinearity lowering: bit-decomposition gadgets (default) or "
             "the repro.lookup table argument (required for transformer "
             "models' LUT layers to amortize; both compile either way)",
    )


def _sparsity_args(parser: argparse.ArgumentParser) -> None:
    """Weight pruning and elision (``CircuitSpec.prune``/``.sparse``);
    the serving commands do not offer these flags."""
    parser.add_argument(
        "--sparse", action="store_true",
        help="sparsity-aware compilation: skip zero-weight terms and share "
             "repeated sub-circuits (active when weights are public)",
    )
    parser.add_argument(
        "--prune", default=None, metavar="S[,U]",
        help="magnitude-prune weights before compiling: structured row "
             "fraction, optional unstructured fraction (e.g. '0.6,0.2')",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_models = sub.add_parser("models", help="list the Table 4 networks")
    p_models.add_argument("--scale", default="full",
                          choices=["full", "mini", "micro"])
    p_models.set_defaults(func=cmd_models)

    p_compile = sub.add_parser("compile", help="compile and print statistics")
    _model_args(p_compile)
    _circuit_args(p_compile)
    _sparsity_args(p_compile)
    p_compile.add_argument(
        "--detail", action="store_true", help="per-layer constraint table"
    )
    p_compile.add_argument(
        "--compare-relu", action="store_true",
        help="compile with both --relu-mode settings and print the "
             "constraint-count delta (lookup vs bit decomposition)",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_audit = sub.add_parser(
        "audit", help="soundness-audit a compiled circuit (exit 1 on errors)"
    )
    _model_args(p_audit)
    _circuit_args(p_audit)
    _sparsity_args(p_audit)
    p_audit.add_argument(
        "--fuzz", type=int, default=0,
        help="adversarial witness mutations to try (0 = lint+determinism only)",
    )
    p_audit.add_argument("--fuzz-seed", type=int, default=2024)
    p_audit.add_argument("--json", default=None,
                         help="also write the full report as JSON")
    p_audit.add_argument(
        "--per-layer", action="store_true",
        help="split at layer boundaries and audit each instance, merging "
             "findings into one layer-attributed report",
    )
    p_audit.add_argument("--segments", type=int, default=None,
                         help="with --per-layer: cap the instance count")
    p_audit.add_argument("--boundary-mode", choices=["public", "hashed"],
                         default="public")
    p_audit.set_defaults(func=cmd_audit)

    p_prove = sub.add_parser("prove", help="generate a Groth16 proof")
    _model_args(p_prove)
    _circuit_args(p_prove)
    _sparsity_args(p_prove)
    p_prove.add_argument("--out", default="proof.bin")
    p_prove.add_argument("--crs-seed", type=int, default=2024)
    p_prove.add_argument(
        "--parallelism", type=int, default=1,
        help="with --per-layer: worker processes proving the instances "
             "(a whole-model proof always runs in this one process)",
    )
    p_prove.add_argument(
        "--max-rss", type=_parse_size, default=None, metavar="SIZE",
        help="stream the CRS through chunked storage (8 MiB chunks) and "
             "exit 3 if peak RSS exceeds SIZE (e.g. 512M, 16G); whole-model "
             "proofs only",
    )
    p_prove.add_argument(
        "--per-layer", action="store_true",
        help="prove each layer as an independent Groth16 instance chained "
             "by boundary commitments; writes one aggregate JSON artifact "
             "(default out: aggregate.json)",
    )
    p_prove.add_argument(
        "--segments", type=int, default=None,
        help="with --per-layer: merge layer slices into this many "
             "instances of balanced row count (default: one per layer)",
    )
    p_prove.add_argument(
        "--boundary-mode", choices=["public", "hashed"], default="public",
        help="boundary tuples as public inputs (default) or as in-circuit "
             "MiMC sponge digests",
    )
    p_prove.set_defaults(func=cmd_prove)

    p_verify = sub.add_parser("verify", help="verify serialized proof(s)")
    p_verify.add_argument("--proof", default=None)
    p_verify.add_argument("--claim", default=None)
    p_verify.add_argument(
        "--batch", default=None, metavar="DIR",
        help="batch-verify every *.claim.json under DIR "
             "(one k+3-pairing check per shared verifying key)",
    )
    p_verify.add_argument(
        "--aggregate", default=None, metavar="FILE",
        help="verify a `prove --per-layer` artifact: boundary-commitment "
             "chain + one batched multi-pairing over all layer proofs",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser("compare", help="arkworks vs ZENO profiles")
    _model_args(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_serve = sub.add_parser(
        "serve", help="run a demo workload on the batched proving service"
    )
    _model_args(p_serve)
    _circuit_args(p_serve)
    p_serve.add_argument("--jobs", type=int, default=8)
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--max-batch", type=int, default=4)
    p_serve.add_argument("--max-wait", type=float, default=0.05)
    p_serve.add_argument("--store-dir", default=None,
                         help="artifact store directory (default: temp)")
    p_serve.add_argument(
        "--audit", action="store_true",
        help="soundness-audit each cold circuit before proving "
             "(pair with --gadgets strict; rejected batches fail their jobs)",
    )
    p_serve.set_defaults(func=cmd_serve, model="SHAL")

    p_submit = sub.add_parser(
        "submit", help="prove one saved input through the service"
    )
    _model_args(p_submit)
    _circuit_args(p_submit)
    p_submit.add_argument("--input", default=None,
                          help=".npy image file (default: synthetic)")
    p_submit.add_argument("--out", default="proof.bin")
    p_submit.set_defaults(func=cmd_submit, model="SHAL")

    p_cluster = sub.add_parser(
        "cluster", help="distributed proving: a worker node for a gateway, "
                        "or a client of its HTTP door"
    )
    cluster_sub = p_cluster.add_subparsers(dest="role", required=True)

    p_worker = cluster_sub.add_parser(
        "worker", help="run one proving node against a gateway's coordinator"
    )
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="the gateway's --cluster-host:--cluster-port")
    p_worker.add_argument("--node-id", default=None)
    p_worker.add_argument("--pool-workers", type=int, default=1,
                          help="proving processes in this node's pool")
    p_worker.add_argument("--window", type=int, default=2,
                          help="batches this node accepts in flight")
    p_worker.set_defaults(func=cmd_cluster_worker)

    p_csubmit = cluster_sub.add_parser(
        "submit", help="submit jobs through a running gateway"
    )
    _model_args(p_csubmit)
    _circuit_args(p_csubmit)
    p_csubmit.add_argument("--connect", required=True, metavar="HOST:PORT",
                           help="the gateway's HTTP address")
    p_csubmit.add_argument("--api-key", default=None,
                           help="X-API-Key for a gateway that requires one")
    p_csubmit.add_argument("--jobs", type=int, default=4)
    p_csubmit.add_argument("--timeout", type=float, default=600.0,
                           help="seconds to wait for all the results")
    p_csubmit.add_argument(
        "--out-dir", default=None,
        help="write proof/vk/claim files scannable by `verify --batch`",
    )
    p_csubmit.add_argument("--stats", action="store_true",
                           help="print the gateway's /metrics snapshot")
    p_csubmit.set_defaults(func=cmd_cluster_submit, model="SHAL")

    p_gateway = sub.add_parser(
        "gateway",
        help="durable HTTP front door: WAL journal + coordinator + autoscaler",
    )
    p_gateway.add_argument("--host", default="127.0.0.1")
    p_gateway.add_argument("--port", type=int, default=0,
                           help="HTTP port (0 = ephemeral)")
    p_gateway.add_argument(
        "--cluster-host", default="127.0.0.1",
        help="coordinator address for external workers (any peer that "
             "reaches it can register as a node: trusted networks only)",
    )
    p_gateway.add_argument("--cluster-port", type=int, default=0,
                           help="coordinator TCP port for external workers")
    p_gateway.add_argument("--data-dir", default="gateway-data",
                           help="journal directory (reused across restarts)")
    p_gateway.add_argument("--port-file", default=None,
                           help="write '<host> <port>' here once bound")
    p_gateway.add_argument("--min-nodes", type=int, default=1)
    p_gateway.add_argument("--max-nodes", type=int, default=4)
    p_gateway.add_argument(
        "--node-mode", choices=["inline", "pool", "subprocess"],
        default="inline",
        help="autoscaled workers: in-process threads, in-process pools, "
             "or `cluster worker` subprocesses",
    )
    p_gateway.add_argument("--pool-workers", type=int, default=1)
    p_gateway.add_argument("--window", type=int, default=2)
    p_gateway.add_argument("--max-batch", type=int, default=4)
    p_gateway.add_argument("--max-wait", type=float, default=0.05)
    p_gateway.add_argument("--max-retries", type=int, default=2)
    p_gateway.add_argument("--scale-up-backlog", type=float, default=8.0)
    p_gateway.add_argument("--scale-down-idle", type=float, default=10.0)
    p_gateway.add_argument(
        "--api-key", action="append", metavar="KEY=TENANT",
        help="repeatable; enables X-API-Key auth when given",
    )
    p_gateway.add_argument(
        "--tenant-weight", action="append", metavar="TENANT=WEIGHT",
        help="repeatable; fair-share admission weights (default 1)",
    )
    p_gateway.add_argument("--rate", type=float, default=0.0,
                           help="per-tenant token-bucket refill, req/s "
                                "(0 = unlimited)")
    p_gateway.add_argument("--burst", type=int, default=64)
    p_gateway.add_argument(
        "--gadgets", choices=["lean", "strict"], default="lean",
        help="gadget profile of a submit body that names none",
    )
    p_gateway.add_argument(
        "--audit", action="store_true",
        help="soundness-audit each cold circuit on the nodes "
             "(rejected batches fail their jobs)",
    )
    p_gateway.set_defaults(func=cmd_gateway)

    args = parser.parse_args(argv)
    if args.command == "prove" and args.parallelism > 1 and not args.per_layer:
        p_prove.error(
            "--parallelism starts worker processes for --per-layer "
            "instances; a whole-model proof runs in one process "
            "(add --per-layer, or drop --parallelism)"
        )
    if args.command == "prove" and args.max_rss is not None and args.per_layer:
        p_prove.error(
            "--max-rss streams the CRS of a whole-model proof; --per-layer "
            "proves in memory and would ignore the cap "
            "(drop --per-layer, or drop --max-rss)"
        )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
