"""End-to-end benchmark: image in, verified proof out.

The contract form (one workload, one pass; the last line of stdout is the
result object)::

    python3 benchmarks/e2e/run.py --workload cnn_whole --seed 1 --seconds 10 --trace 0

Every workload in turn (the contract's three, then ``gateway_mix``), each
in a fresh process, one result file::

    python3 benchmarks/e2e/run.py --workload all --trace 0 --out e2e.json
    python3 benchmarks/e2e/run.py --workload all --trace 1 --out layers.json

``--trace 0`` measures the end-to-end metrics with spans off; timings of
the in-process workloads are calibrated to the machine's speed (see
``harness.speed_factor``).  ``--trace 1`` records spans around the calls
into each layer and prints the per-layer metrics; layers the workload does
not call are filled in from the same code run at a small fixed size (see
README, "Traced pass").

    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py check
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import report  # noqa: E402

SETUPS = 3  # set-ups per untraced run; setup_s is their median


def run_in_process(name: str, seed: int, seconds: float, trace: bool, work) -> dict:
    """One of the three in-process workloads -> (counts, metrics)."""
    import workloads as w
    from repro.core.metrics import peak_rss_bytes

    workload = {
        "cnn_whole": lambda: w.CnnWhole(),
        "bn254_replay": lambda: w.Bn254Replay(),
        "tiny_perlayer": lambda: w.TinyPerLayer(work=str(work)),
    }[name]()
    result = w.drive(
        workload, seed, seconds, trace, setups=1 if trace else SETUPS
    )
    if trace:
        metrics = w.layer_metrics(result)
    else:
        rows = result["rows"]
        wall = harness.median([r["wall"] for r in rows])
        metrics = {
            "setup_s": harness.median(result["setup_times"]),
            "e2e_s_p50": w.phase_median(rows, ("request",)),
            "compile_s_p50": harness.median([r["compile"] for r in rows]),
            "prove_s_p50": w.phase_median(rows, w.PROVE_SPANS),
            "verify_s_p50": harness.median([r["verify"] for r in rows]),
            "peak_rss_mib": peak_rss_bytes() / 2**20,
            "proof_bytes": harness.median([r["proof_bytes"] for r in rows]),
            "constraints": harness.median([r["constraints"] for r in rows]),
            "samples": len(rows),
        }
        print(f"{name}: uncalibrated wall median of a request {wall:.6f} s, "
              f"calibrated {metrics['e2e_s_p50']:.6f} s")
    return dict(result, metrics=metrics)


def run_gateway(seed: int, seconds: float, trace: bool, work) -> dict:
    import gateway as g

    result = g.drive_gateway(
        work, seed, seconds, trace, setups=1 if trace else SETUPS
    )
    metrics = g.layer_metrics(result) if trace else g.end_to_end(result)
    # Only this workload has the 200 samples a p95 needs and a throughput
    # that is not just 1 / latency, and it is not in the contract's list
    # (see README): the two are printed, not gated.
    if not trace:
        p95 = metrics.pop("e2e_s_p95")
        print("gateway_mix: e2e_s_p95 "
              + (f"{p95:.6f} s" if p95 else "needs 200 samples")
              + f", burst {metrics.pop('jobs_per_s'):.3f} jobs/s")
    return dict(result, metrics=metrics)


def probe_metrics(skip: str, seed: int, work) -> dict:
    """Per-layer numbers at small fixed sizes: the kernels, then every
    workload but ``skip`` on its smallest circuit for two requests.

    Later entries overwrite earlier ones, so a layer several workloads
    call is reported from the plainest pipeline (``cnn_whole``'s)."""
    import probes
    import workloads as w

    out = probes.kernel_probes(seed, work)
    small = {
        "tiny_perlayer": lambda: w.TinyPerLayer("SHAL", "micro", str(work)),
        "bn254_replay": lambda: w.Bn254Replay("SHAL", "micro", real=False),
        "cnn_whole": lambda: w.CnnWhole("SHAL", "micro"),
    }
    results = []
    for name, make in small.items():
        if name != skip:
            result = w.drive(make(), seed, 0.0, True, min_requests=2)
            results.append((result, w.layer_metrics(result)))
    if skip != "gateway_mix":
        result = run_gateway(seed, 1.0, True, work)
        results.append((result, result["metrics"]))
    for result, metrics in results:
        if result["failed"]:
            raise SystemExit(f"{skip}: a probe's own requests failed")
        out.update(metrics)
    return out


def run_one(args) -> int:
    spec = report.load_spec()
    trace = bool(args.trace)
    with harness.work_dir() as work:
        filled = probe_metrics(args.workload, args.seed, work) if trace else {}
        if args.workload == "gateway_mix":
            result = run_gateway(args.seed, args.seconds, trace, work)
        else:
            result = run_in_process(
                args.workload, args.seed, args.seconds, trace, work
            )
        if args.spans and trace:
            Path(args.spans).write_text(json.dumps(result.get("spans", [])))
    measured = result["metrics"]
    samples = measured.pop("samples", None)
    attempted, failed = result["attempted"], result["failed"]
    measured["verified_share"] = 1.0 - failed / attempted
    merged = {**filled, **measured}
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name not in merged:
            raise SystemExit(f"{args.workload}: no value for metric {name}")
        metrics[name] = {"value": merged[name], "unit": entry["unit"]}
        note = f"n={samples}" if samples else (
            "[workload]" if name in measured else "[probe]"
        )
        print(f"{args.workload:14s} {name:32s} {merged[name]:>16.6f} "
              f"{entry['unit']:6s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process),
    ``--repeat`` times; a metric's value is the median of its runs."""
    spec = report.load_spec()
    doc = dict(
        harness.environment(), seed=args.seed, seconds=args.seconds,
        trace=args.trace, workloads={},
    )
    status = 0
    for name in report.workload_names(spec):
        runs = []
        for _ in range(args.repeat):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = child.stdout.strip().splitlines()
            if not lines:
                return child.returncode or 1
            print("\n".join(lines[:-1]))
            status = status or child.returncode
            runs.append(json.loads(lines[-1]))
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            metrics[metric] = {
                "value": harness.median(values), "unit": first["unit"],
                "runs": values,
            }
        doc["workloads"][name] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return report.compare_command(argv[1:])
    if argv[:1] == ["check"]:
        return report.check_command()
    spec = report.load_spec()
    names = report.workload_names(spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (--workload all)")
    parser.add_argument("--out", help="result file (--workload all)")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)
    harness.use_repo()
    # A terminated run unwinds like an interrupted one, so the gateway's
    # process group and the work directory are cleaned up either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
