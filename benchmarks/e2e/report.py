"""``check`` (is BENCHMARK.json well formed?) and ``compare`` (did a metric
move further than its bound between two result files?)."""

from __future__ import annotations

import argparse
import json
import re
from typing import Dict, List, Sequence, Tuple

from harness import REPO, median, spread

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_BOUND = 0.25
MIN_RUNS_FOR_SPREAD = 4  # quartiles of fewer points are extrapolation
# Two result files are comparable only when these agree.
SAME_RUN = (
    "trace", "seed", "seconds", "nproc", "python", "numpy", "field_backend",
)

# The contract's workloads, all in one process.
ALL_IN_PROCESS = ("cnn_whole", "bn254_replay", "tiny_perlayer")
# Runnable and probed by the traced pass, but not in BENCHMARK.json: six
# processes on two shared cores measure the host's scheduler (the driver
# saw 40-80 % run-to-run spread on its latencies), and the run time it
# took is better spent on longer runs of the other three.
EXTRA_WORKLOADS = ("gateway_mix",)
_COMPILE = (("compile_s_p50", "e2e_s_p50"), ("cnn_whole", "tiny_perlayer"))
_SIZE = (("constraints", "prove_s_p50"), ALL_IN_PROCESS)
_WITNESS = (("prove_s_p50",), ("cnn_whole",))
_QUOTIENT = (("prove_s_p50",), ("cnn_whole", "tiny_perlayer"))
_MSM = (("prove_s_p50", "setup_s"), ("bn254_replay",))
_PAIRING = (("verify_s_p50",), ("bn254_replay",))
_AGGREGATE = (
    ("e2e_s_p50", "verify_s_p50", "proof_bytes"), ("tiny_perlayer",)
)
# ... and the burst throughput a by-hand run of gateway_mix prints.
_ACK = (("e2e_s_p50",), ("gateway_mix",))
_LATENCY = (("e2e_s_p50",), ("gateway_mix",))

# The interaction map: which end-to-end metric each layer metric should
# move, and on which workloads.  On every other workload the prediction
# is no change.  ``check`` holds this against BENCHMARK.json.
INTERACTIONS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # The reference oracle runs outside the request; listed so that the
    # request's residual closes, predicted to move nothing.
    "nn.forward_s": (("e2e_s_p50",), ()),
    "core.compile_s": _COMPILE,
    "core.generate_s": _COMPILE,
    "core.circuit_s": _COMPILE,
    "core.lc_terms": _COMPILE,
    "core.knit_constraints": _COMPILE,
    "core.cache_hit_ratio": _COMPILE,
    "core.assign_s": (("compile_s_p50",), ("bn254_replay", "gateway_mix")),
    "core.constraints": _SIZE,
    "core.variables": _SIZE,
    "lookup.constraints": (("constraints",), ("tiny_perlayer",)),
    "lookup.total_lookups": (("constraints",), ("tiny_perlayer",)),
    "r1cs.nnz": _SIZE,
    "snark.domain_size": _SIZE,
    "r1cs.csr_s": _WITNESS,
    "r1cs.satisfied_s": _WITNESS,
    "snark.witness_s": _WITNESS,
    "snark.quotient_s": _QUOTIENT,
    "field.ntt_s": _QUOTIENT,
    "field.batch_inverse_s": _QUOTIENT,
    "field.mul_count": _QUOTIENT,
    "field.add_count": _QUOTIENT,
    "field.inv_count": _QUOTIENT,
    "snark.msm_s": _MSM,
    "ec.msm_g1_s": _MSM,
    "ec.msm_g2_s": _MSM,
    "ec.fixed_base_build_s": (("setup_s",), ("bn254_replay",)),
    "ec.fixed_base_query_s": _MSM,
    "ec.group_add_count": _MSM,
    "ec.scalar_mul_count": _MSM,
    "ec.pairing_check_s": _PAIRING,
    "ec.pairing_count": _PAIRING,
    "snark.verify_s": _PAIRING,
    "snark.serialize_s": _PAIRING,
    "snark.setup_s": (("setup_s",), ALL_IN_PROCESS),
    "snark.prove_s": (("prove_s_p50",), ("cnn_whole", "bn254_replay")),
    "aggregate.split_s": _AGGREGATE,
    "aggregate.setup_s": (("setup_s",), ("tiny_perlayer",)),
    "aggregate.prove_s": _AGGREGATE,
    "aggregate.fold_s": _AGGREGATE,
    "aggregate.save_s": _AGGREGATE,
    "aggregate.verify_s": _AGGREGATE,
    "aggregate.verify_all_s": _AGGREGATE,
    "aggregate.instances": _AGGREGATE,
    "aggregate.pairings": _AGGREGATE,
    "aggregate.naive_pairings": _AGGREGATE,
    "aggregate.pairings_all": _AGGREGATE,
    "gateway.submit_ack_s_p50": _ACK,
    "gateway.submit_ack_s_p95": _ACK,
    "gateway.journal_appends": _ACK,
    "gateway.journal_fsyncs": _ACK,
    "gateway.appends_per_fsync": _ACK,
    "gateway.journal_append_s_p50": _ACK,
    "gateway.wait_s_p50": _LATENCY,
    "gateway.poll_rtt_s_p50": _LATENCY,
    "gateway.polls_per_job": _LATENCY,
    "gateway.queue_peak": _LATENCY,
    "gateway.lateness_s_max": _LATENCY,
    "serve.batches": _LATENCY,
    "serve.batch_size_mean": _LATENCY,
    "serve.key_cache_hit_ratio": _LATENCY,
    "serve.retries": _LATENCY,
    "serve.prove_s_mean": (("prove_s_p50", "e2e_s_p50"), ("gateway_mix",)),
    "serve.assign_s_mean": (("compile_s_p50", "e2e_s_p50"), ("gateway_mix",)),
    "serve.store_put_get_s": _LATENCY,
    "cluster.codec_roundtrip_s": _LATENCY,
    "cluster.verify_claims_s": _LATENCY,
    "cluster.reroutes": _LATENCY,
    "cluster.node_deaths": _LATENCY,
    # About the benchmark itself; they move no end-to-end metric.
    "bench.residual_share": ((), ()),
    "bench.trace_overhead_share": ((), ()),
}


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def workload_names(spec: dict) -> List[str]:
    """Every workload ``run.py`` can run: the contract's, then the extras."""
    return [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)


def check_spec(spec: dict) -> List[str]:
    """Every way BENCHMARK.json breaks its contract (empty when sound)."""
    problems: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys must be exactly {sorted(keys)}")
        return problems
    workloads = [w.get("name", "") for w in spec["workloads"]]
    e2e = [m.get("name", "") for m in spec["end_to_end"]]
    layers = [m.get("name", "") for m in spec["per_layer"]]
    if tuple(workloads) != ALL_IN_PROCESS:
        problems.append(f"workloads must be {ALL_IN_PROCESS}, found {workloads}")
    if not 1 <= len(e2e) <= 16:
        problems.append(f"{len(e2e)} end-to-end metrics (1..16 allowed)")
    if not 1 <= len(layers) <= 128:
        problems.append(f"{len(layers)} per-layer metrics (1..128 allowed)")
    names = workloads + e2e + layers
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    for name in {n for n in names if names.count(n) > 1}:
        problems.append(f"name {name!r} used more than once")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')!r}: needs name + one-line why")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append(f"{m.get('name')!r}: keys must be name/unit/better/bound")
        elif not 0 <= m["bound"] <= MAX_BOUND:
            problems.append(f"{m['name']}: bound {m['bound']} outside 0..{MAX_BOUND}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"{m.get('name')!r}: keys must be name/unit/better")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(str(m.get("unit", ""))):
            problems.append(f"{m.get('name')!r}: bad unit {m.get('unit')!r}")
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"{m.get('name')!r}: better must be lower|higher")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    for name in layers:
        if name not in INTERACTIONS:
            problems.append(f"{name}: no entry in the interaction map")
            continue
        moves, on = INTERACTIONS[name]
        problems += [f"{name}: moves unknown metric {m}" for m in moves if m not in e2e]
        problems += [
            f"{name}: on unknown workload {w}" for w in on
            if w not in workloads and w not in EXTRA_WORKLOADS
        ]
    problems += [
        f"{name}: in the interaction map but not in BENCHMARK.json"
        for name in INTERACTIONS if name not in layers
    ]
    return problems


def check_command() -> int:
    problems = check_spec(load_spec())
    for line in problems:
        print(f"BENCHMARK.json: {line}")
    print("BENCHMARK.json: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Tuple[float, float, float, str]:
    """``(base median, new median, new/base, word)`` for one metric on
    one workload, each side given as the values of its runs.

    ``regressed``: the new median is worse than the base median by more
    than ``bound`` (a share of the base).  ``unresolved``: either side's
    runs spread wider than the bound, so the medians settle nothing —
    unless every new run beats every base run.  Otherwise ``ok``.  Fewer
    than ``MIN_RUNS_FOR_SPREAD`` runs a side show no usable spread and are
    judged on their median alone.
    """
    a, b = median(base), median(new)
    sign = 1.0 if better == "lower" else -1.0
    ratio = b / a if a else float("nan")
    if bound > 0 and any(
        len(r) >= MIN_RUNS_FOR_SPREAD and spread(r) > bound for r in (base, new)
    ):
        clear_win = all(sign * (y - x) < 0 for x in base for y in new)
        return a, b, ratio, "ok" if clear_win else "unresolved"
    worse = sign * (b - a)
    limit = bound * abs(a)
    return a, b, ratio, "regressed" if worse > limit else "ok"


def runs_of(doc: dict, workload: str, name: str) -> List[float]:
    metric = doc["workloads"][workload]["metrics"][name]
    return metric.get("runs") or [metric["value"]]


def compare_files(
    a: dict, b: dict, spec: dict, across_seeds: bool = False
) -> Tuple[List[tuple], List[str]]:
    """Rows ``(metric, workload, base, new, ratio, bound, verdict)`` and
    the reasons, if any, the two files cannot be compared."""
    refused = [
        f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
        for key in SAME_RUN
        if a.get(key) != b.get(key) and not (across_seeds and key == "seed")
    ]
    if refused:
        return [], refused
    rows = []
    section = "per_layer" if a["trace"] else "end_to_end"
    for entry in spec[section]:
        name = entry["name"]
        if section == "per_layer":
            # Layer numbers carry no bound; only counts are compared, and
            # for one seed they must repeat exactly.
            if entry["unit"] != "count" or across_seeds:
                continue
            bound = 0.0
        else:
            bound = entry["bound"]
        for workload in a["workloads"]:
            base, new, ratio, word = verdict(
                runs_of(a, workload, name), runs_of(b, workload, name),
                entry["better"], bound,
            )
            rows.append((name, workload, base, new, ratio, bound, word))
    return rows, []


def compare_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--across-seeds", action="store_true",
                        help="allow the two files to differ in --seed")
    args = parser.parse_args(argv)
    a, b = (json.loads(open(p).read()) for p in (args.base, args.new))
    rows, refused = compare_files(a, b, load_spec(), args.across_seeds)
    for reason in refused:
        print(f"compare: refused, {reason}")
    if refused:
        return 2
    print(f"{'metric':26s} {'workload':14s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s} {'bound':>7s}  verdict")
    for name, workload, base, new, ratio, bound, word in rows:
        print(f"{name:26s} {workload:14s} {base:14.6g} {new:14.6g} "
              f"{ratio:9.4f} {bound:7.4f}  {word}")
    bad = sum(word != "ok" for *_, word in rows)
    print(f"compare: {len(rows)} rows, {bad} not ok")
    return 1 if bad else 0
