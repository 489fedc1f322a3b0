"""Tests for the command-line interface."""

import json
import os
import tempfile

import pytest

from repro.cli import main
from repro.snark import groth16


class TestModels:
    def test_lists_all_networks(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for abbr in ("SHAL", "LCS", "LCL", "VGG16", "RES18", "RES50"):
            assert abbr in out


class TestCompile:
    def test_prints_phase_summary(self, capsys):
        assert main(["compile", "--model", "SHAL", "--scale", "mini"]) == 0
        out = capsys.readouterr().out
        assert "generate" in out
        assert "circuit_computation" in out
        assert "security_computation" in out
        assert "knit packing" in out

    def test_both_private(self, capsys):
        assert (
            main(
                [
                    "compile",
                    "--model",
                    "SHAL",
                    "--scale",
                    "micro",
                    "--privacy",
                    "both-private",
                ]
            )
            == 0
        )
        assert "knit packing" not in capsys.readouterr().out


class TestProveVerify:
    def test_roundtrip(self, tmp_path, capsys):
        proof_path = tmp_path / "proof.bin"
        assert (
            main(
                [
                    "prove",
                    "--model",
                    "SHAL",
                    "--scale",
                    "mini",
                    "--out",
                    str(proof_path),
                ]
            )
            == 0
        )
        assert proof_path.exists()
        claim_path = tmp_path / "proof.bin.claim.json"
        assert claim_path.exists()

        assert (
            main(
                ["verify", "--proof", str(proof_path), "--claim", str(claim_path)]
            )
            == 0
        )
        assert "ACCEPTED" in capsys.readouterr().out

    def test_tampered_claim_rejected(self, tmp_path, capsys):
        proof_path = tmp_path / "proof.bin"
        main(["prove", "--model", "SHAL", "--scale", "mini", "--out",
              str(proof_path)])
        claim_path = tmp_path / "proof.bin.claim.json"
        claim = json.loads(claim_path.read_text())
        claim["public_inputs"][0] = str(int(claim["public_inputs"][0]) + 1)
        claim_path.write_text(json.dumps(claim))

        assert (
            main(
                ["verify", "--proof", str(proof_path), "--claim", str(claim_path)]
            )
            == 1
        )
        assert "REJECTED" in capsys.readouterr().out

    def test_strict_gadgets(self, tmp_path):
        proof_path = tmp_path / "proof.bin"
        assert (
            main(
                [
                    "prove",
                    "--model",
                    "SHAL",
                    "--scale",
                    "micro",
                    "--gadgets",
                    "strict",
                    "--out",
                    str(proof_path),
                ]
            )
            == 0
        )
        claim = json.loads((tmp_path / "proof.bin.claim.json").read_text())
        assert claim["gadgets"] == "strict"
        assert (
            main(
                [
                    "verify",
                    "--proof",
                    str(proof_path),
                    "--claim",
                    str(tmp_path / "proof.bin.claim.json"),
                ]
            )
            == 0
        )


class TestMaxRss:
    """``prove --max-rss``: a streamed-CRS prove under a cap, which leaves
    neither its chunk store behind nor the environment changed."""

    @pytest.fixture
    def scratch(self, tmp_path, monkeypatch):
        """Where ``tempfile`` puts the chunk store, so leftovers show."""
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        return scratch

    def _prove(self, tmp_path, cap):
        return main(["prove", "--model", "SHAL", "--scale", "mini",
                     "--max-rss", cap, "--out", str(tmp_path / "p.bin")])

    @pytest.mark.parametrize(
        "cap, code, word", [("64G", 0, "within"), ("1M", 3, "EXCEEDED")]
    )
    def test_cap_verdict_and_nothing_left_behind(
        self, tmp_path, scratch, capsys, cap, code, word
    ):
        environ = dict(os.environ)
        assert self._prove(tmp_path, cap) == code
        assert f"({word} --max-rss" in capsys.readouterr().out
        assert dict(os.environ) == environ
        assert list(scratch.iterdir()) == []
        proof = tmp_path / "p.bin"
        assert main(["verify", "--proof", str(proof),
                     "--claim", str(proof) + ".claim.json"]) == 0

    def test_failed_prove_leaves_nothing_behind(
        self, tmp_path, scratch, monkeypatch
    ):
        def broken(*args, **kwargs):
            assert [d.name[:9] for d in scratch.iterdir()] == ["zeno-crs-"]
            raise RuntimeError("prover died")

        environ = dict(os.environ)
        monkeypatch.setattr(groth16, "prove", broken)
        with pytest.raises(RuntimeError, match="prover died"):
            self._prove(tmp_path, "64G")
        assert dict(os.environ) == environ
        assert list(scratch.iterdir()) == []

    def test_unverifiable_proof_is_an_error_not_an_assert(
        self, tmp_path, scratch, monkeypatch, capsys
    ):
        monkeypatch.setattr(groth16, "verify", lambda *a, **k: False)
        assert self._prove(tmp_path, "64G") == 1
        assert "self-check failed" in capsys.readouterr().err
        assert not (tmp_path / "p.bin").exists()
        assert list(scratch.iterdir()) == []

    def test_per_layer_is_a_usage_error(self, tmp_path, scratch, capsys):
        """Per-layer proving holds its keys in memory: with --max-rss it
        used to print no verdict and exit 0 whatever the peak."""
        with pytest.raises(SystemExit) as exc:
            main(["prove", "--model", "SHAL", "--scale", "micro",
                  "--per-layer", "--max-rss", "1M",
                  "--out", str(tmp_path / "agg.json")])
        assert exc.value.code == 2
        assert "--per-layer" in capsys.readouterr().err
        assert not (tmp_path / "agg.json").exists()
        assert list(scratch.iterdir()) == []


class TestCompare:
    def test_reports_speedup(self, capsys):
        assert main(["compare", "--model", "SHAL", "--scale", "micro"]) == 0
        out = capsys.readouterr().out
        assert "arkworks" in out and "zeno" in out
        assert "speedup" in out


class TestArgValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "--model", "ALEXNET"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestServe:
    def test_demo_workload(self, capsys, tmp_path):
        assert (
            main(
                [
                    "serve",
                    "--jobs", "3",
                    "--workers", "2",
                    "--max-batch", "2",
                    "--scale", "mini",
                    "--store-dir", str(tmp_path / "store"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("verified=True") == 3
        stats = json.loads(out[out.index("{"):])
        assert stats["jobs"]["completed"] == 3
        assert 0 < stats["batches"]["runs"] < 3

    def test_serve_forwards_relu_mode(self, capsys, tmp_path):
        """`--relu-mode` reaches the workers: the lookup lowering is a
        different circuit, so its verifying key differs from bits."""
        vks = {}
        for mode in ("lookup", "bits"):
            store = tmp_path / mode
            argv = ["serve", "--model", "TINY", "--scale", "micro",
                    "--relu-mode", mode, "--jobs", "1", "--workers", "1",
                    "--store-dir", str(store)]
            assert main(argv) == 0
            assert capsys.readouterr().out.count("verified=True") == 1
            (vks[mode],) = [p.name for p in store.glob("vk-*.bin")]
        assert vks["lookup"] != vks["bits"]

    def test_submit_forwards_circuit_options(self, capsys, tmp_path):
        vks = {}
        for mode in ("lookup", "bits"):
            out_path = tmp_path / f"{mode}.bin"
            argv = ["submit", "--model", "TINY", "--scale", "micro",
                    "--gadgets", "strict", "--relu-mode", mode,
                    "--out", str(out_path)]
            assert main(argv) == 0
            vks[mode] = (tmp_path / f"{mode}.bin.vk").read_bytes()
        assert vks["lookup"] != vks["bits"]

    @pytest.mark.parametrize("argv", [
        ["serve", "--sparse"],
        ["serve", "--prune", "0.5"],
        ["submit", "--sparse"],
        ["serve", "--parallelism", "2"],
        ["compare", "--gadgets", "strict"],
        ["gateway", "--relu-mode", "lookup"],
        ["cluster", "submit", "--connect", "127.0.0.1:1", "--prune", "0.5"],
        ["cluster", "worker", "--connect", "127.0.0.1:1", "--mode", "inline"],
    ])
    def test_ignored_flags_are_not_offered(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cluster_submit_claims_the_submitted_spec(self, capsys, tmp_path):
        """`cluster submit` proves the lowering its flags name through a
        gateway's HTTP door, with the gateway's API key, and its claims
        record that spec: `verify --batch` accepts them."""
        from repro.cluster import ClusterConfig, ClusterCoordinator, WorkerNode
        from repro.serve.service import ServiceConfig
        from tests.test_gateway import gateway_over

        cfg = ClusterConfig(service=ServiceConfig(
            max_wait=0.0, store_dir=str(tmp_path / "store")))
        out_dir = tmp_path / "out"
        argv = [
            "cluster", "submit", "--model", "SHAL", "--scale", "micro",
            "--gadgets", "strict", "--relu-mode", "lookup",
            "--jobs", "1", "--out-dir", str(out_dir),
        ]
        with ClusterCoordinator(cfg) as coord:
            node = WorkerNode(coord.address, node_id="n1", mode="inline").start()
            try:
                with gateway_over(
                    coord, tmp_path / "j.wal", api_keys={"k": "t"}
                ) as (durable, base):
                    address = base[len("http://"):]
                    assert main(argv + ["--connect", address]) == 1
                    assert "401" in capsys.readouterr().err
                    assert main(argv + ["--connect", address,
                                        "--api-key", "k"]) == 0
            finally:
                node.stop()
        (claim_path,) = out_dir.glob("*.claim.json")
        claim = json.loads(claim_path.read_text())
        assert (claim["gadgets"], claim["relu_mode"]) == ("strict", "lookup")
        capsys.readouterr()
        assert main(["verify", "--batch", str(out_dir)]) == 0
        assert "1/1 accepted" in capsys.readouterr().out

    def test_cluster_submit_without_a_verifying_key_fails(
        self, capsys, tmp_path, monkeypatch
    ):
        """A result whose verifying key the gateway no longer holds would
        write a claim `verify --batch` cannot check: the command names
        the job and exits 1."""
        from repro.cluster import ClusterConfig, ClusterCoordinator, WorkerNode
        from repro.serve.service import ServiceConfig
        from tests.test_gateway import gateway_over

        cfg = ClusterConfig(service=ServiceConfig(
            max_wait=0.0, store_dir=str(tmp_path / "store")))
        with ClusterCoordinator(cfg) as coord:
            node = WorkerNode(coord.address, node_id="n1", mode="inline").start()
            try:
                def evicted(key):
                    raise KeyError(key)

                monkeypatch.setattr(coord.store, "get", evicted)
                with gateway_over(coord, tmp_path / "j.wal") as (_, base):
                    assert main([
                        "cluster", "submit", "--model", "SHAL",
                        "--scale", "micro", "--jobs", "1",
                        "--connect", base[len("http://"):],
                        "--out-dir", str(tmp_path / "out"),
                    ]) == 1
            finally:
                node.stop()
        assert "without its verifying key" in capsys.readouterr().err
        assert list((tmp_path / "out").glob("*.claim.json")) == []

    def test_submit_writes_verifiable_artifacts(self, capsys, tmp_path):
        out_path = tmp_path / "proof.bin"
        assert (
            main(["submit", "--out", str(out_path), "--image-seed", "3"]) == 0
        )
        from repro.snark import groth16
        from repro.snark.serialize import (
            deserialize_proof,
            deserialize_verifying_key,
        )

        claim = json.loads(
            (tmp_path / "proof.bin.claim.json").read_text()
        )
        vk = deserialize_verifying_key(
            (tmp_path / ("proof.bin" + ".vk")).read_bytes()
        )
        proof = deserialize_proof(out_path.read_bytes())
        publics = [int(v) for v in claim["public_inputs"]]
        assert groth16.verify(vk, publics, proof)

    def test_submit_claim_feeds_verify_command(self, capsys, tmp_path):
        out_path = tmp_path / "proof.bin"
        claim_path = tmp_path / "proof.bin.claim.json"
        assert (
            main(["submit", "--out", str(out_path), "--image-seed", "9"]) == 0
        )
        assert (
            main(
                ["verify", "--proof", str(out_path), "--claim",
                 str(claim_path)]
            )
            == 0
        )
        assert "ACCEPTED" in capsys.readouterr().out

        claim = json.loads(claim_path.read_text())
        claim["public_inputs"][0] = str(int(claim["public_inputs"][0]) + 1)
        tampered = tmp_path / "tampered.claim.json"
        tampered.write_text(json.dumps(claim))
        assert (
            main(
                ["verify", "--proof", str(out_path), "--claim",
                 str(tampered)]
            )
            == 1
        )
        assert "REJECTED" in capsys.readouterr().out


class TestAudit:
    def test_strict_circuit_passes_and_exits_zero(self, capsys):
        assert (
            main(["audit", "--model", "SHAL", "--scale", "micro",
                  "--fuzz", "50"])
            == 0
        )
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "determinism" in out and "fuzz" in out and "lint" in out

    def test_lean_circuit_fails_nonzero(self, capsys):
        assert (
            main(["audit", "--model", "SHAL", "--scale", "micro",
                  "--gadgets", "lean"])
            == 1
        )
        out = capsys.readouterr().out
        assert "under-constrained" in out

    def test_json_report_round_trips(self, tmp_path, capsys):
        from repro.analysis import AuditReport

        path = tmp_path / "audit.json"
        assert (
            main(["audit", "--model", "SHAL", "--scale", "micro",
                  "--json", str(path)])
            == 0
        )
        report = AuditReport.from_json(path.read_text())
        assert report.ok
        assert report.num_constraints > 0
        assert path.read_text() == report.to_json(indent=2)


class TestPerLayerProveVerify:
    def test_roundtrip_and_tamper(self, tmp_path, capsys):
        agg_path = tmp_path / "agg.json"
        assert (
            main(
                [
                    "prove", "--model", "LCS", "--scale", "micro",
                    "--per-layer", "--segments", "3",
                    "--out", str(agg_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3 layers" in out
        assert "prediction: class" in out

        assert main(["verify", "--aggregate", str(agg_path)]) == 0
        out = capsys.readouterr().out
        assert "ACCEPTED" in out
        assert "prediction class" in out

        # Flip one hex nibble of the first proof: must reject, exit 1.
        doc = json.loads(agg_path.read_text())
        proof_hex = doc["inferences"][0]["proofs"][0]
        flipped = format(int(proof_hex[11], 16) ^ 1, "x")
        doc["inferences"][0]["proofs"][0] = (
            proof_hex[:11] + flipped + proof_hex[12:]
        )
        agg_path.write_text(json.dumps(doc))
        assert main(["verify", "--aggregate", str(agg_path)]) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_hashed_mode_roundtrip(self, tmp_path, capsys):
        agg_path = tmp_path / "agg-hashed.json"
        assert (
            main(
                [
                    "prove", "--model", "LCS", "--scale", "micro",
                    "--per-layer", "--segments", "2",
                    "--boundary-mode", "hashed",
                    "--out", str(agg_path),
                ]
            )
            == 0
        )
        # The summary line prices the split: rows the model had, rows the
        # in-circuit commitments added, and the summed domain sizes.
        summary = capsys.readouterr().out
        assert " inherited + " in summary
        assert " commitment rows, domain sizes sum to " in summary
        assert "+ 0 commitment rows" not in summary
        assert main(["verify", "--aggregate", str(agg_path)]) == 0
        assert "mode=hashed" in capsys.readouterr().out

    def test_parallelism_is_worker_processes_for_instances(
        self, tmp_path, capsys
    ):
        """The one flag that starts prover processes: same aggregate bytes
        whatever the worker count, and a usage error without --per-layer
        (it used to fork above a size gate and do nothing below it)."""
        argv = ["prove", "--model", "LCS", "--scale", "micro"]
        blobs = {}
        for workers in ("1", "2"):
            out = tmp_path / f"agg-{workers}.json"
            assert main(argv + ["--per-layer", "--parallelism", workers,
                                "--out", str(out)]) == 0
            assert f"({workers} worker(s))" in capsys.readouterr().out
            blobs[workers] = out.read_bytes()
        assert blobs["2"] == blobs["1"]
        assert main(["verify", "--aggregate", str(out)]) == 0
        assert "ACCEPTED" in capsys.readouterr().out

        with pytest.raises(SystemExit) as exc:
            main(argv + ["--parallelism", "2", "--out", str(tmp_path / "p")])
        assert exc.value.code == 2
        assert "--per-layer" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_unreadable_artifact_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        assert main(["verify", "--aggregate", str(bad)]) == 1
        assert "unreadable" in capsys.readouterr().out


class TestPerLayerAudit:
    def test_split_audit_passes(self, capsys):
        assert (
            main(
                [
                    "audit", "--model", "LCS", "--scale", "micro",
                    "--per-layer", "--segments", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "split x3" in out
        assert "0 error(s)" in out
