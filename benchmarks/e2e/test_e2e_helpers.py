"""Self-tests of the benchmark's own helpers (not of the program).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; the
directory is outside tier-1 ``testpaths`` on purpose.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import report  # noqa: E402


# -- percentile rule ---------------------------------------------------------------


def test_no_p95_under_200_samples():
    assert harness.tail_percentile(list(range(199))) is None
    assert harness.tail_percentile(list(range(32))) is None


def test_p95_needs_ten_samples_beyond_it():
    values = list(range(1, 201))
    assert harness.tail_percentile(values) == 190
    assert sum(v > 190 for v in values) == harness.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank():
    assert harness.percentile([5, 1, 4, 2, 3], 0.5) == 3
    assert harness.percentile([1, 2, 3, 4], 1.0) == 4
    assert harness.percentile([7], 0.95) == 7


def test_spread_is_interquartile_share_of_median():
    values = [10, 10, 10, 10, 10, 10, 10, 10, 10, 10]
    assert harness.spread(values) == 0
    assert harness.spread([8, 9, 10, 11, 12]) == pytest.approx(0.3)


# -- machine speed -----------------------------------------------------------------


def test_speed_factor_scales_to_the_nominal_kernel_time(monkeypatch):
    # The kernel takes twice its nominal time: the machine is at half
    # speed, so a section's wall seconds count half.
    monkeypatch.setattr(
        harness, "reference_kernel", lambda: 2 * harness.REFERENCE_S
    )
    assert harness.speed_factor() == pytest.approx(0.5)
    monkeypatch.setattr(harness, "reference_kernel", lambda: harness.REFERENCE_S)
    assert harness.speed_factor() == pytest.approx(1.0)


def test_reference_kernel_times_real_work():
    assert harness.reference_kernel() > 0.001


# -- spans -------------------------------------------------------------------------


def span(name, start, end, parent=None, request=0):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "request": request}


def test_self_time_is_span_minus_direct_children():
    spans = [
        span("request", 0.0, 10.0),
        span("core.compile", 1.0, 5.0, parent=0),
        span("snark.prove", 5.0, 9.0, parent=0),
        span("r1cs.csr", 5.0, 6.0, parent=2),
    ]
    assert harness.self_times(spans) == [2.0, 4.0, 3.0, 1.0]


def test_residual_reconciles_children_with_the_request():
    spans = [
        span("request", 0.0, 10.0),
        span("core.compile", 0.0, 6.0, parent=0),
        span("snark.prove", 6.0, 9.5, parent=0),
        span("nn.forward", 10.0, 11.0),  # oracle: outside any request
        span("request", 20.0, 30.0, request=1),
        span("core.compile", 20.0, 29.5, parent=4, request=1),
    ]
    # (0.5 + 0.5) uncovered seconds out of 20 request seconds.
    assert harness.residual_share(spans) == pytest.approx(0.05)
    assert harness.residual_share([]) == 0.0


def test_tracer_records_spans_only_when_on():
    tr = harness.Tracer()
    tr.begin_request(0, on=False)
    with tr.span("request"):
        with tr.span("core.compile"):
            pass
    assert tr.spans == []
    assert set(tr.phases) == {"request", "core.compile"}

    tr.begin_request(1, on=True)
    with tr.span("request"):
        with tr.span("core.compile"):
            pass
        with tr.span("snark.prove"):
            pass
    assert [s["name"] for s in tr.spans] == [
        "request", "core.compile", "snark.prove"
    ]
    assert [s["parent"] for s in tr.spans] == [None, 0, 0]
    assert {s["request"] for s in tr.spans} == {1}
    assert all(s["end"] >= s["start"] for s in tr.spans)
    assert tr.phases["request"] >= tr.phases["core.compile"]


def test_tracer_closes_spans_when_the_body_raises():
    tr = harness.Tracer()
    tr.begin_request(0, on=True)
    with pytest.raises(ValueError):
        with tr.span("request"):
            raise ValueError("boom")
    with tr.span("next"):
        pass
    assert tr.spans[1]["parent"] is None


# -- open loop ---------------------------------------------------------------------


def test_due_times_follow_the_rate_not_the_replies():
    due = harness.due_times(100.0, rate=40.0, count=5)
    assert due == pytest.approx([100.0, 100.025, 100.05, 100.075, 100.1])


def test_latency_counts_from_the_due_instant():
    # The generator stalled 30 ms: the request left late, and its latency
    # is charged from when it should have left.
    due, sent, done = 1.000, 1.030, 1.050
    assert harness.open_loop_latency(due, done) == pytest.approx(0.050)
    assert harness.lateness(due, sent) == pytest.approx(0.030)
    assert harness.lateness(due, 0.990) == 0.0  # early is not late


# -- compare -----------------------------------------------------------------------


def test_verdict_within_and_beyond_the_bound():
    assert report.verdict([1.0], [1.09], "lower", 0.10)[3] == "ok"
    assert report.verdict([1.0], [1.11], "lower", 0.10)[3] == "regressed"
    assert report.verdict([1.0], [0.50], "lower", 0.10)[3] == "ok"
    assert report.verdict([100.0], [91.0], "higher", 0.10)[3] == "ok"
    assert report.verdict([100.0], [89.0], "higher", 0.10)[3] == "regressed"


def test_verdict_exact_metrics_have_no_slack():
    assert report.verdict([7387], [7387], "lower", 0.0001)[3] == "ok"
    assert report.verdict([7387], [7388], "lower", 0.0001)[3] == "regressed"
    assert report.verdict([1.0], [0.99], "higher", 0.0001)[3] == "regressed"
    assert report.verdict([0], [0], "lower", 0.0)[3] == "ok"
    assert report.verdict([0], [3], "lower", 0.0)[3] == "regressed"


def test_verdict_unresolved_when_runs_spread_wider_than_the_bound():
    noisy = [0.8, 0.9, 1.0, 1.1, 1.2]
    assert report.verdict(noisy, [1.0] * 5, "lower", 0.10)[3] == "unresolved"
    # ... unless every new run beats every base run.
    assert report.verdict(noisy, [0.5] * 5, "lower", 0.10)[3] == "ok"


def result_file(**changes):
    doc = {
        "trace": 0, "seed": 1, "seconds": 10.0, "nproc": 2,
        "python": "3.11.7", "numpy": "2.4.6", "field_backend": "numpy",
        "workloads": {"cnn_whole": {"metrics": {
            "e2e_s_p50": {"value": 0.70, "unit": "s"},
            "constraints": {"value": 7387, "unit": "count"},
        }}},
    }
    doc.update(changes)
    return doc


SPEC = {"end_to_end": [
    {"name": "e2e_s_p50", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "constraints", "unit": "count", "better": "lower", "bound": 0.0001},
]}


def test_compare_refuses_files_from_different_runs():
    for key, other in [("seed", 2), ("seconds", 5.0), ("nproc", 16),
                       ("python", "3.12.0"), ("numpy", "1.26"),
                       ("field_backend", "scalar"), ("trace", 1)]:
        rows, refused = report.compare_files(
            result_file(), result_file(**{key: other}), SPEC
        )
        assert rows == [] and key in refused[0]
    rows, refused = report.compare_files(
        result_file(), result_file(seed=2), SPEC, across_seeds=True
    )
    assert refused == [] and len(rows) == 2


def test_compare_rows_carry_ratio_bound_and_verdict():
    slower = json.loads(json.dumps(result_file()))
    slower["workloads"]["cnn_whole"]["metrics"]["e2e_s_p50"]["value"] = 0.84
    rows, refused = report.compare_files(result_file(), slower, SPEC)
    assert refused == []
    assert rows[0] == (
        "e2e_s_p50", "cnn_whole", 0.70, 0.84, pytest.approx(1.2), 0.10,
        "regressed",
    )
    assert rows[1][-1] == "ok"


# -- check -------------------------------------------------------------------------


def test_checked_in_benchmark_json_is_sound():
    assert report.check_spec(report.load_spec()) == []


def test_contract_workloads_are_the_in_process_three():
    spec = report.load_spec()
    assert report.workload_names(spec) == [
        "cnn_whole", "bn254_replay", "tiny_perlayer", "gateway_mix"
    ]
    # gateway_mix can be run and is probed, but may not be gated on.
    spec["workloads"].append({"name": "gateway_mix", "why": "too noisy"})
    assert any("workloads must be" in p for p in report.check_spec(spec))


def test_check_catches_a_layer_metric_without_a_mapping():
    spec = report.load_spec()
    spec["per_layer"].append(
        {"name": "core.mystery_s", "unit": "s", "better": "lower"}
    )
    spec["end_to_end"][1]["bound"] = 0.5
    spec["workloads"][0]["name"] = "bad name"
    problems = report.check_spec(spec)
    assert any("core.mystery_s" in p for p in problems)
    assert any("bound 0.5" in p for p in problems)
    assert any("bad name" in p for p in problems)
