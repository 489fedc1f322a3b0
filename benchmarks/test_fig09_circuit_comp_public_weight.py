"""Fig. 9 — circuit-computation speedup, private image & public weights.

Paper shape: 15x-150x (average 67.7x) total circuit-computation speedup,
growing with model size; the per-optimization breakdown attributes ~8.7x to
the ZENO circuit, ~1.2x to the frequency cache, and ~6.2x to the parallel
scheduler.

We reproduce the same waterfall: baseline -> +ZENO circuit -> +cache ->
+scheduler, each ratio measured on the circuit-computation phase alone.
"""

import pytest

from repro.nn.models import MODEL_ORDER
from benchmarks._shared import (
    EVAL_SCALE,
    baseline_summary,
    fmt,
    print_table,
    zeno_summary,
)


@pytest.fixture(scope="module")
def waterfall():
    """Per-model circuit-computation times at each optimization level.

    Levels: baseline -> ZENO circuit alone (no knit) -> +knit packing
    (costs packed-coefficient construction in this phase, pays off in
    security) -> +cache (builds each distinct packed coefficient once)
    -> +scheduler.
    """
    out = {}
    for abbr in MODEL_ORDER:
        base = baseline_summary(abbr)
        ir_only = zeno_summary(abbr, knit=False, cache=False, scheduler_workers=1)
        ir_knit = zeno_summary(abbr, cache=False, scheduler_workers=1)
        ir_cache = zeno_summary(abbr, scheduler_workers=1)
        full = zeno_summary(abbr)
        out[abbr] = (base, ir_only, ir_knit, ir_cache, full)
    return out


def test_fig09_circuit_computation_speedup(waterfall, benchmark):
    from repro.core.compiler import ZenoCompiler, zeno_options
    from repro.nn.data import synthetic_images
    from repro.nn.models import build_model

    model = build_model("LCL", scale="full")
    image = synthetic_images(model.input_shape, n=1, seed=1)[0]
    benchmark.pedantic(
        lambda: ZenoCompiler(zeno_options()).compile_model(model, image),
        rounds=1,
        iterations=1,
    )

    rows = []
    totals = {}
    ir_gains, knit_costs, cache_gains, sched_gains = [], [], [], []
    for abbr in MODEL_ORDER:
        base, ir_only, ir_knit, ir_cache, full = waterfall[abbr]
        ir = base.circuit_seq_time / ir_only.circuit_seq_time
        knit = ir_only.circuit_seq_time / ir_knit.circuit_seq_time
        cache = ir_knit.circuit_seq_time / ir_cache.circuit_seq_time
        sched = ir_cache.circuit_seq_time / full.circuit_par_time
        total = base.circuit_seq_time / full.circuit_par_time
        totals[abbr] = total
        ir_gains.append(ir)
        knit_costs.append(knit)
        cache_gains.append(cache)
        sched_gains.append(sched)
        rows.append(
            [
                f"{abbr} ({EVAL_SCALE[abbr]})",
                fmt(base.circuit_seq_time, 3),
                fmt(full.circuit_par_time, 4),
                fmt(ir) + "x",
                fmt(knit) + "x",
                fmt(cache) + "x",
                fmt(sched) + "x",
                fmt(total, 1) + "x",
            ]
        )
    avg = sum(totals.values()) / len(totals)
    rows.append(
        [
            "average",
            "",
            "",
            fmt(sum(ir_gains) / 6) + "x",
            fmt(sum(knit_costs) / 6) + "x",
            fmt(sum(cache_gains) / 6) + "x",
            fmt(sum(sched_gains) / 6) + "x",
            fmt(avg, 1) + "x",
        ]
    )
    print_table(
        "Fig. 9: circuit-computation speedup — private image & public weights"
        " (paper: avg 67.7x, range 15-150x; ZENO circuit 8.7x, cache 1.2x,"
        " scheduler 6.2x)",
        ["model", "base cc (s)", "zeno cc (s)", "IR", "knit", "cache",
         "sched", "total"],
        rows,
    )

    # Every model speeds up substantially; bigger models gain more.
    assert all(t > 4.0 for t in totals.values()), totals
    assert max(totals.values()) > 20.0
    assert totals["LCS"] < totals["LCL"]
    # The ZENO circuit and the scheduler are the two dominant levers.
    assert sum(ir_gains) / 6 > 2.0
    assert sum(sched_gains) / 6 > 3.0
    # Knit packing costs some of this phase (it pays off in security),
    # and the cache claws part of that back (paper: 1.2x).  Re-anchored at
    # PR 17 (were `< 1.1` and `> 0.9`, measured 0.53x / 0.98x): those
    # values timed CPython dict probes in the per-term packer.  With the
    # whole-layer lowering the knit column is the cost of *constructing*
    # one lambda-bit integer per surviving (row, variable) entry, where an
    # unpacked row only looks up a coefficient made canonical once per
    # distinct weight value (measured 0.68x average, 0.48-0.72x on every
    # model but sub-10 ms SHAL); the cache column is constructing that
    # integer once per distinct slot-digit vector instead (measured 1.26x
    # average, 1.0-1.7x on every model but SHAL).
    assert sum(knit_costs) / 6 < 0.9
    assert sum(cache_gains) / 6 > 1.0
