"""One circuit identity, one compile path.

``CircuitSpec`` is the only place the eight circuit fields are enumerated
and the only code that compiles them; these tests pin what that buys:

* every door into the prover — ``zeno prove``, ``BatchProver``, a worker's
  ``prove_batch``, a ``ProvingService`` job, a ``ClusterCoordinator`` +
  inline ``WorkerNode`` job — proves the *same* circuit (constraint count,
  verifying key and, under equal CRS and blinding, proof bytes); before,
  served circuits skipped §6.2 fusion and RES18 had two verifying keys;
* the worker warm cache is keyed on ``(CircuitSpec, backend, crs_seed)``
  and its audit latch covers per-layer jobs;
* the hand-copied field lists cannot grow back (structure guard).
"""

import ast
import inspect
import json
import random
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import ClusterConfig, ClusterCoordinator, WorkerNode
from repro.core import compiler
from repro.core.accuracy import AccuracyProver
from repro.core.circuit.compute import (
    CircuitComputer,
    CompilerOptions,
    ComputeOptions,
)
from repro.core.compiler import PrivacySetting, ZenoCompiler
from repro.core.reuse.batch import BatchProver
from repro.core.spec import CircuitSpec
from repro.serve import ProvingService, ServiceConfig, workers
from repro.serve.engine import JobFailedError
from repro.snark import groth16
from repro.snark.serialize import (
    deserialize_proof,
    deserialize_verifying_key,
    serialize_proof,
    serialize_verifying_key,
)

IMAGE_SEED = 11
CRS_SEED = 4242

# One circuit per model family at micro, plus a both-private case.
FAMILIES = [
    CircuitSpec("SHAL", scale="micro"),
    CircuitSpec("SHAL", scale="micro", privacy="both-private"),
    CircuitSpec("LCS", scale="micro"),
    CircuitSpec("VGG16", scale="micro"),
    CircuitSpec("RES18", scale="micro"),  # BatchNorm: fusion changes the CS
    CircuitSpec("TINY", scale="micro", gadgets="strict", relu_mode="lookup"),
]


def worker_spec(circuit: CircuitSpec, **extra) -> dict:
    return {
        **circuit.to_json(), "backend": "simulated", "deterministic": True,
        **extra,
    }


def reference(circuit: CircuitSpec, crs_seed: int = CRS_SEED):
    """What ``zeno prove`` computes: one-shot compile, seed-derived CRS —
    with the worker's deterministic blinding so proof bytes compare."""
    image = circuit.image(IMAGE_SEED)
    artifact = circuit.compile(image)
    setup = groth16.setup(artifact.cs, rng=random.Random(crs_seed))
    rng = workers._proof_rng(worker_spec(circuit, crs_seed=crs_seed), image, None)
    proof = groth16.prove(setup.proving_key, artifact.cs, rng=rng)
    return (
        artifact.num_constraints,
        serialize_verifying_key(setup.verifying_key),
        serialize_proof(proof),
    )


class TestCircuitSpec:
    def test_flat_keys_round_trip(self):
        spec = CircuitSpec(
            "RES18", scale="micro", seed=3, prune="0.5,0.1",
            privacy="both-private", gadgets="strict", relu_mode="lookup",
            sparse=True,
        )
        flat = spec.to_json()
        assert set(flat) == {
            "model", "scale", "seed", "prune", "privacy", "gadgets",
            "relu_mode", "sparse",
        }
        assert CircuitSpec.from_mapping(json.loads(json.dumps(flat))) == spec
        assert hash(CircuitSpec.from_mapping(flat)) == hash(spec)

    def test_absent_and_none_fields_take_defaults(self):
        """A parent-commit claim has no ``relu_mode``/``sparse``; an unset
        CLI flag is ``None``; other keys ride along untouched."""
        spec = CircuitSpec.from_mapping({
            "model": "SHAL", "scale": "micro", "seed": 0, "image_seed": 42,
            "privacy": "one-private", "gadgets": None, "prune": None,
            "crs_seed": 2024, "public_inputs": ["1"],
        })
        assert spec == CircuitSpec("SHAL", scale="micro")
        assert (spec.gadgets, spec.relu_mode, spec.sparse) == (
            "lean", "bits", False
        )

    def test_options_carry_every_lowering_field(self):
        opts = CircuitSpec(
            "SHAL", privacy="both-private", gadgets="strict",
            relu_mode="lookup", sparse=True,
        ).options(audit="report")
        assert opts.privacy is PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS
        assert (opts.gadget_mode, opts.relu_mode, opts.sparse, opts.audit) == (
            "strict", "lookup", True, "report"
        )

    def test_privacy_names_are_the_one_lookup(self):
        assert sorted(PrivacySetting.names()) == ["both-private", "one-private"]


@pytest.mark.parametrize("circuit", FAMILIES, ids=lambda c: f"{c.model}-{c.privacy}")
class TestOneCompilePath:
    def test_batch_prover_is_the_compiler_circuit(self, circuit):
        """``BatchProver`` built the way ``benchmarks/e2e`` builds it."""
        constraints, vk, proof = reference(circuit)
        image = circuit.image(IMAGE_SEED)
        prover = BatchProver(
            circuit.build_model(), circuit.image(IMAGE_SEED + 1),
            options=CompilerOptions(
                privacy=PrivacySetting.names()[circuit.privacy],
                gadget_mode=circuit.gadgets, relu_mode=circuit.relu_mode,
            ),
        )
        setup = prover.warm_setup(rng=random.Random(CRS_SEED), precompute=False)
        assert prover.cs.num_constraints == constraints
        assert serialize_verifying_key(setup.verifying_key) == vk
        rng = workers._proof_rng(
            worker_spec(circuit, crs_seed=CRS_SEED), image, None
        )
        assert serialize_proof(prover.prove(image, rng=rng)) == proof

    def test_worker_proves_the_compiler_circuit(self, circuit):
        """The drift test: RES18 had a different verifying key here."""
        _, vk, proof = reference(circuit)
        out = workers.prove_batch(
            worker_spec(circuit, crs_seed=CRS_SEED),
            [{"job_id": "j", "image": circuit.image(IMAGE_SEED)}],
        )
        assert out["vk"] == vk
        assert out["results"][0]["proof"] == proof
        assert out["results"][0]["verified"]


@pytest.mark.parametrize(
    "circuit", [FAMILIES[1], FAMILIES[4]], ids=lambda c: f"{c.model}-{c.privacy}"
)
def test_service_and_cluster_prove_the_compiler_circuit(circuit, tmp_path):
    _, vk, proof = reference(circuit, workers.SERVE_CRS_SEED)
    submit = dict(
        image_seed=IMAGE_SEED, scale=circuit.scale, privacy=circuit.privacy
    )
    with ProvingService(
        max_workers=1, max_wait=0.0, deterministic=True,
        store_dir=str(tmp_path / "s"),
    ) as service:
        res = service.result(service.submit(circuit.model, **submit), 600)
        assert service.store.get(res.store_keys["vk"]) == vk
        assert res.proof == proof
    cfg = ClusterConfig(service=ServiceConfig(
        max_wait=0.0, deterministic=True, store_dir=str(tmp_path / "c")))
    with ClusterCoordinator(cfg) as coord:
        node = WorkerNode(coord.address, node_id="n1", mode="inline").start()
        try:
            res = coord.result(coord.submit(circuit.model, **submit), 600)
            assert coord.store.get(res.store_keys["vk"]) == vk
            assert res.proof == proof
        finally:
            node.stop()


class TestCompilePathIdentityCli:
    def test_prove_and_submit_share_one_verifying_key(self, tmp_path, capsys):
        """The CI step: 24176 = 0x5E70, the serve workers' CRS seed."""
        model = ["--model", "RES18", "--scale", "micro"]
        assert main(["prove", *model, "--crs-seed", "24176",
                     "--out", str(tmp_path / "a.bin")]) == 0
        assert main(["submit", *model, "--out", str(tmp_path / "b.bin")]) == 0
        capsys.readouterr()
        assert main(["verify", "--batch", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2/2 accepted across 1 verifying key(s)" in out

    def test_parent_commit_claim_still_verifies(self, capsys):
        """``tests/fixtures/parent_prove.bin*`` were written by the parent
        commit's ``zeno prove --model RES18 --scale micro``; the claim's
        flat keys feed the one claim reader unchanged."""
        fixtures = Path(__file__).parent / "fixtures"
        claim = fixtures / "parent_prove.bin.claim.json"
        assert "vk_file" not in json.loads(claim.read_text())
        assert main(["verify", "--proof", str(fixtures / "parent_prove.bin"),
                     "--claim", str(claim)]) == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_claim_keys_unchanged(self, tmp_path):
        out = tmp_path / "p.bin"
        assert main(["prove", "--model", "SHAL", "--scale", "micro",
                     "--out", str(out)]) == 0
        parent = json.loads(
            (Path(__file__).parent / "fixtures"
             / "parent_prove.bin.claim.json").read_text()
        )
        ours = json.loads((tmp_path / "p.bin.claim.json").read_text())
        assert set(ours) == set(parent)


class TestWarmCacheKey:
    """Satellite bug: ``_spec_key`` omitted ``backend`` and ``crs_seed``."""

    SPEC = worker_spec(CircuitSpec("SHAL", scale="micro"))

    def payload(self):
        return [{"job_id": "j", "image": CircuitSpec.from_mapping(self.SPEC).image(5)}]

    def test_backend_is_part_of_the_key(self):
        """Was: ``AttributeError: 'SimPoint' object has no attribute
        'group'`` — the bn254 job found the simulated group's keys."""
        workers.prove_batch(self.SPEC, self.payload())
        out = workers.prove_batch(dict(self.SPEC, backend="bn254"), self.payload())
        assert out["cold"]
        from repro.ec.backend import RealBN254Backend

        res = out["results"][0]
        assert groth16.verify(
            deserialize_verifying_key(out["vk"]), res["public_inputs"],
            deserialize_proof(res["proof"]), RealBN254Backend(),
        )

    def test_crs_seed_is_part_of_the_key(self):
        """Was: ``cold=False`` carrying the default-seed verifying key."""
        first = workers.prove_batch(self.SPEC, self.payload())
        out = workers.prove_batch(dict(self.SPEC, crs_seed=7), self.payload())
        assert out["cold"]
        assert out["vk"] != first["vk"]
        res = out["results"][0]
        assert groth16.verify(
            deserialize_verifying_key(out["vk"]), res["public_inputs"],
            deserialize_proof(res["proof"]),
        )
        again = workers.prove_batch(dict(self.SPEC, crs_seed=7), self.payload())
        assert not again["cold"] and again["vk"] == out["vk"]

    def test_whole_model_and_layer_jobs_share_one_compile(self):
        circuit = CircuitSpec("LCS", scale="micro", seed=9)
        spec = worker_spec(circuit)
        payload = [{"job_id": "j", "image": circuit.image(5)}]
        whole = workers.prove_batch(spec, payload)
        layer = workers.prove_batch(
            dict(spec, aggregate={"layer": 0, "num_segments": 2}), payload
        )
        assert "generate" in whole["phases"]
        assert "generate" not in layer["phases"]  # no second compile
        assert layer["cold"] and layer["aggregate_layer"] == 0
        key = (circuit, "simulated", workers.SERVE_CRS_SEED)
        assert len(workers._WARM[key].splits) == 1


class TestAuditGateOnLayerJobs:
    """Satellite bug: ``_prove_layer_batch`` never read ``spec["audit"]``."""

    AGG = {"mode": "public", "num_segments": 2, "crs_seed": 0xA9}

    def test_lean_layer_job_is_rejected(self, tmp_path):
        with ProvingService(
            max_workers=1, max_wait=0.0, audit=True,
            store_dir=str(tmp_path),
        ) as service:
            job_id = service.submit(
                "SHAL", image_seed=3, scale="micro",
                extra={"aggregate": dict(self.AGG, layer=0)},
            )
            with pytest.raises(JobFailedError, match="circuit audit rejected"):
                service.result(job_id, timeout=300)
            assert service.stats()["audit"]["rejected_jobs"] == 1

    def test_strict_layer_jobs_match_prove_split(self, tmp_path):
        from repro.aggregate import prove_split, setup_split

        circuit = CircuitSpec("SHAL", scale="micro", gadgets="strict")
        split = circuit.compile(circuit.image(3)).split(num_segments=2)
        crs_seed = self.AGG["crs_seed"]
        local = prove_split(
            split, setup_split(split, crs_seed=crs_seed), crs_seed=crs_seed
        )
        with ProvingService(
            max_workers=1, max_wait=0.0, audit=True, gadget_mode="strict",
            deterministic=True, store_dir=str(tmp_path),
        ) as service:
            job_ids = [
                service.submit(
                    "SHAL", image_seed=3, scale="micro",
                    extra={"aggregate": dict(self.AGG, layer=k)},
                )
                for k in range(split.num_instances)
            ]
            served = [service.result(j, timeout=300).proof for j in job_ids]
            assert service.stats()["audit"]["rejected_jobs"] == 0
        assert served == [serialize_proof(p) for p in local]


def test_one_circuit_identity_under_src():
    """The field lists and the second compile path cannot grow back."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    sources = {
        str(path.relative_to(src)): path.read_text() for path in src.rglob("*.py")
    }

    def callers(name):
        """``{file: {enclosing function, ...}}`` of every ``name(...)``."""
        found = {}
        for rel, text in sources.items():
            tree = ast.parse(text)
            scopes = [("<module>", tree)] + [
                (node.name, node) for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            seen = set()
            for scope, root in reversed(scopes):  # innermost scopes first
                for node in ast.walk(root):
                    if (
                        isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == name
                        and id(node) not in seen
                    ):
                        seen.add(id(node))
                        found.setdefault(rel, set()).add(scope)
        return found

    assert callers("CircuitComputer") == {"core/compiler.py": {"compile_program"}}
    assert {
        rel for rel in callers("build_model") if not rel.startswith("nn/")
    } == {"core/spec.py"}
    assert "argparse.Namespace(" not in sources["cli.py"]
    gone = re.compile(
        r"\b(_PRIVACY|PRIVACY_CHOICES|_spec_key|_build_prover|_WARM_AGG|"
        r"_WarmAggEntry|_build_artifact|synthesize_image)\b"
    )
    assert {name for name, text in sources.items() if gone.search(text)} == set()
    # The signed decode lives in repro.field alone.
    decode = re.compile(r"-\s*(p|modulus)\s+if\s+\w+\s*>\s*(half|\w+\s*//\s*2)")
    assert {
        name for name, text in sources.items() if decode.search(text)
    } == {"field/fp.py"}


def test_one_compile_configuration():
    """One options object, one compile entry, privacy given once."""
    assert ComputeOptions is CompilerOptions  # the name benchmarks/e2e uses
    core = Path(compiler.__file__).resolve().parent
    options_classes = {
        node.name
        for path in core.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Options")
    }
    assert options_classes == {"CompilerOptions"}
    entries = (
        BatchProver.__init__, AccuracyProver.__init__,
        CircuitComputer.__init__, ZenoCompiler.compile_model,
        ZenoCompiler.compile_program, CircuitSpec.batch_prover,
    )
    for entry in entries:
        params = set(inspect.signature(entry).parameters)
        assert not params & {"image_privacy", "weights_privacy", "fusion"}
    assert not hasattr(compiler, "compile_circuit")
    assert not hasattr(compiler, "lower_program")
