"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper, but sweeps over the knobs its design space
exposes: knit batch size, cache capacity, scheduler worker count, fusion,
and §4.1's naive-vs-adaptive constraint generation.
"""

import pytest

from repro.core.compiler import ZenoCompiler, naive_options, zeno_options
from repro.nn.data import synthetic_images
from repro.nn.models import build_model
from repro.r1cs.lc import Digits
from benchmarks._shared import fmt, print_table, zeno_summary

MODEL = "LCS"
SCALE = "full"


def test_ablation_knit_batch_size(benchmark):
    """Forced knit batch sizes vs the paper's auto selection."""
    sizes = [1, 2, 4, 8, None]
    summaries = {
        s: zeno_summary(MODEL, knit_batch=s, scheduler_workers=1)
        for s in sizes
    }
    benchmark.pedantic(
        lambda: zeno_summary(MODEL, knit_batch=2, scheduler_workers=1),
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            "auto" if s is None else s,
            summaries[s].num_constraints,
            fmt(summaries[s].security_time(), 3),
        ]
        for s in sizes
    ]
    print_table(
        f"Ablation: knit batch size ({MODEL})",
        ["batch s", "constraints", "security (s)"],
        rows,
    )
    ms = [summaries[s].num_constraints for s in sizes]
    # Larger batches monotonically shrink the system; auto ~= the best.
    assert ms[0] > ms[1] > ms[2] > ms[3]
    assert summaries[None].num_constraints <= ms[3]


def test_ablation_scheduler_workers(benchmark):
    """Worker sweep over one measured compile (same layer_work for all)."""
    from repro.core.schedule.scheduler import WorkloadScheduler
    from repro.core.schedule.simclock import simulate_parallel_time

    model = build_model(MODEL, scale=SCALE)
    image = synthetic_images(model.input_shape, n=1, seed=5)[0]
    artifact = benchmark.pedantic(
        lambda: ZenoCompiler(
            zeno_options(scheduler_workers=1)
        ).compile_model(model, image),
        rounds=1,
        iterations=1,
    )
    layer_work = artifact.compute.layer_work

    workers = [1, 2, 4, 8, 16, 32]
    times = {}
    speedups = {}
    for w in workers:
        schedule = WorkloadScheduler(w).schedule(layer_work)
        times[w] = simulate_parallel_time(schedule, layer_work)
        speedups[w] = schedule.speedup()
    rows = [
        [w, fmt(times[w], 4), fmt(speedups[w], 2) + "x"] for w in workers
    ]
    print_table(
        f"Ablation: scheduler worker count ({MODEL})",
        ["workers", "circuit comp (s)", "speedup"],
        rows,
    )
    ordered = [times[w] for w in workers]
    assert ordered == sorted(ordered, reverse=True)  # never slower
    # Efficiency decays with more workers (small layers leave idle cores).
    eff = {w: speedups[w] / w for w in workers}
    assert eff[32] <= eff[2] + 1e-9
    assert speedups[32] <= 32.0


def no_coefficients(digits):
    raise AssertionError("a coefficient was built from its digits")


def test_ablation_cache(benchmark, monkeypatch):
    # Both profiles now pack whole layers the same way, so time them warm:
    # the first compile in a process pays one-off costs the other would
    # not (a no-op when an earlier test compiled this profile).
    zeno_summary(MODEL, knit_batch=2, scheduler_workers=1)
    with_cache = zeno_summary(MODEL, scheduler_workers=1)
    without = zeno_summary(MODEL, cache=False, scheduler_workers=1)
    benchmark.pedantic(
        lambda: zeno_summary(MODEL, scheduler_workers=1),
        rounds=1,
        iterations=1,
    )
    hit_rate = with_cache.cache_hits / max(
        with_cache.cache_hits + with_cache.cache_misses, 1
    )
    print_table(
        f"Ablation: frequency cache ({MODEL})",
        ["config", "circuit comp (s)", "hit rate"],
        [
            ["cache on", fmt(with_cache.circuit_seq_time, 3), fmt(hit_rate, 3)],
            ["cache off", fmt(without.circuit_seq_time, 3), "-"],
        ],
    )
    # A whole dot layer is packed as slot digits, which take no
    # public x public product, so only the entries of the rows a layer
    # leaves open go through the cache's tables (about half of those hit
    # on LCS; 0.77 of all packed entries when every packed coefficient
    # was built as a field element — EXPERIMENTS.md "A knit coefficient
    # is its digits").  What holds with the cache on: the compile builds
    # no coefficient, and the rows are those of the compile without it.
    model = build_model(MODEL, scale=SCALE)
    image = synthetic_images(model.input_shape, n=1, seed=1234)[0]
    systems = []
    with monkeypatch.context() as patch:
        patch.setattr(Digits, "coefficients", no_coefficients)
        for cache in (True, False):
            compiler = ZenoCompiler(
                zeno_options(cache=cache, scheduler_workers=1)
            )
            systems.append(compiler.compile_model(model, image).cs)
    cached, plain = (cs.to_csr(assignment=False) for cs in systems)
    for mine, theirs in zip(cached.matrices(), plain.matrices()):
        assert mine.indptr.tolist() == theirs.indptr.tolist()
        assert mine.indices.tolist() == theirs.indices.tolist()
        assert mine.coeffs == theirs.coeffs
    # The cache never hurts much and typically helps (paper: 1.2x).
    assert with_cache.circuit_seq_time < without.circuit_seq_time * 1.15


def test_ablation_fusion(benchmark):
    """Fusion matters for BN-heavy networks (ResNets)."""
    fused = zeno_summary("RES18", fusion=True)
    unfused = zeno_summary("RES18", fusion=False)
    benchmark.pedantic(
        lambda: zeno_summary("RES18", fusion=True), rounds=1, iterations=1
    )
    print_table(
        "Ablation: zkSNARK-aware fusion (RES18)",
        ["config", "constraints", "variables", "security (s)"],
        [
            ["fusion on", fused.num_constraints, fused.num_variables,
             fmt(fused.security_time(), 3)],
            ["fusion off", unfused.num_constraints, unfused.num_variables,
             fmt(unfused.security_time(), 3)],
        ],
    )
    assert fused.num_constraints < unfused.num_constraints
    assert fused.num_variables < unfused.num_variables
    assert fused.security_time() < unfused.security_time()


def test_ablation_r1cs_optimizer(benchmark):
    """Post-compilation witness/constraint cleanup (repro.r1cs.optimize)."""
    from repro.core.compiler import PrivacySetting
    from repro.core.metrics import CostModel
    from repro.r1cs.optimize import optimize

    model = build_model(MODEL, scale="mini")
    image = synthetic_images(model.input_shape, n=1, seed=5)[0]
    artifact = ZenoCompiler(
        zeno_options(PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS)
    ).compile_model(model, image)
    slim, report = benchmark.pedantic(
        lambda: optimize(artifact.cs), rounds=1, iterations=1
    )
    cost = CostModel()
    before = cost.security_seconds(
        report.variables_before, report.constraints_before
    )
    after = cost.security_seconds(
        report.variables_after, report.constraints_after
    )
    print_table(
        f"Ablation: R1CS optimizer passes ({MODEL}-mini, both-private)",
        ["quantity", "before", "after"],
        [
            ["variables", report.variables_before, report.variables_after],
            ["constraints", report.constraints_before, report.constraints_after],
            ["security (s)", fmt(before, 3), fmt(after, 3)],
        ],
    )
    assert report.variables_removed > 0
    assert slim.is_satisfied()
    assert after <= before


def test_ablation_gpu_projection(benchmark):
    """The paper's future work: order-of-magnitude GPU proving (§7.1, §8)."""
    from repro.core.metrics import CostModel

    cost = CostModel()
    summary = benchmark.pedantic(
        lambda: zeno_summary("LCL"), rounds=1, iterations=1
    )
    cpu = summary.security_time()
    gpu = cost.gpu_security_seconds(
        summary.num_variables, summary.num_constraints
    )
    print_table(
        "Ablation: projected GPU security computation (LCL)",
        ["target", "security (s)"],
        [["CPU (modeled)", fmt(cpu, 3)], ["GPU (projected)", fmt(gpu, 3)]],
    )
    assert gpu == pytest.approx(cpu / CostModel.GPU_MSM_SPEEDUP)


def test_ablation_naive_vs_adaptive(benchmark):
    """§4.1's motivation: ignoring privacy types explodes the system."""
    model = build_model(MODEL, scale="mini")
    image = synthetic_images(model.input_shape, n=1, seed=5)[0]

    def compile_naive():
        return ZenoCompiler(naive_options()).compile_model(model, image)

    naive = benchmark.pedantic(compile_naive, rounds=1, iterations=1)
    adaptive = ZenoCompiler(
        zeno_options(knit=False, fusion=False, cache=False, scheduler_workers=1)
    ).compile_model(model, image)

    print_table(
        "Ablation: naive (privacy-ignorant) vs privacy-adaptive generation"
        f" ({MODEL}-mini)",
        ["config", "constraints", "variables"],
        [
            ["naive (Eq. 2 everywhere)", naive.num_constraints,
             naive.num_variables],
            ["privacy-adaptive (Eq. 3)", adaptive.num_constraints,
             adaptive.num_variables],
        ],
    )
    # The naive system is dominated by per-MAC constraints: orders of
    # magnitude larger — exactly why §4 exists.
    assert naive.num_constraints > 10 * adaptive.num_constraints
    assert naive.num_variables > 10 * adaptive.num_variables
    assert naive.cs.is_satisfied() and adaptive.cs.is_satisfied()
