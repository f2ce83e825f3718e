"""Tests of the benchmark's own arithmetic, hooks and failure accounting.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from graphmend import pipeline
from perfbench import run, spans, stats
from perfbench.spans import Span, Tracer
from perfbench.workloads import WORKLOADS, Workload, pipeline_config


def test_self_time_from_synthetic_span_tree():
    tree = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("c", 6.0, 7.0, parent=2),
        Span("a", 7.5, 8.0, parent=2),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({"root": 3.0, "a": 3.5, "b": 2.5, "c": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [Span("p", 0.0, 10.0), Span("x", 1.0, 5.0, parent=0),
            Span("y", 3.0, 6.0, parent=0), Span("z", 4.0, 4.5, parent=0)]
    assert spans.self_times(tree)["p"] == pytest.approx(5.0)


def test_median_and_upper_percentile():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert stats.upper_percentile(list(range(99))) is None
    values = list(np.random.default_rng(0).random(1000))
    p, value = stats.upper_percentile(values)
    assert p == 99.0
    assert value == pytest.approx(np.percentile(values, 99.0))
    assert stats.upper_percentile(list(range(100)))[0] == 90.0
    assert stats.upper_percentile(list(range(10000)))[0] == 99.9
    assert stats.summary([2.0, 1.0]) == {"n": 2, "median": 1.5}
    assert set(stats.summary(list(range(100)))) == {"n", "median", "p90"}


def test_wrapper_returns_result_unchanged_and_closes_span():
    tracer = Tracer()
    payload = np.arange(5)
    seen = []
    traced = tracer.wrap("x", lambda a, b=0: payload, lambda t, args, r: seen.append(r))
    assert traced(1, b=2) is payload
    assert seen == [payload]
    assert [s.name for s in tracer.spans] == ["x", "trace.count"]

    def boom():
        raise ValueError("kept")

    with pytest.raises(ValueError, match="kept"):
        tracer.wrap("y", boom)()
    assert tracer.spans[-1].end is not None and not tracer._open


def _tiny_inputs():
    from graphmend.synth import SynthConfig, make_noisy_dataset

    return make_noisy_dataset(SynthConfig(3, 40, 8, 4.0, 0.3, "confusing", 0))


def test_hooks_change_nothing_and_restore():
    features, noisy, clean = _tiny_inputs()
    w = Workload("tiny", "memory", 3, 40, 8, "confusing", 10, 0.99, 2, 0.0)
    cfg = pipeline_config(w, 0)
    plain = pipeline.run_correction(cfg, features=features, labels=noisy, clean=clean)
    originals = dict(vars(pipeline))
    tracer = Tracer()
    hooks = spans.Hooks(tracer)
    try:
        traced = pipeline.run_correction(cfg, features=features, labels=noisy, clean=clean)
    finally:
        hooks.restore()
    assert all(vars(pipeline)[k] is v for k, v in originals.items())
    for a, b in zip(plain, traced):
        assert a == b
    layers = spans.layer_metrics(tracer, hooks.installed)
    assert layers["propagate.solves"] == 2 * 5 * 5
    assert layers["accel.matvec_calls"] > 0
    assert layers["splitter.mix_s"] > 0
    assert layers["core.write_s"] == 0.0
    total = sum(spans.self_times(tracer.spans).values())
    root = tracer.spans[0]
    assert total == pytest.approx(root.end - root.start)


def test_missing_hooks_are_absent_not_zero(monkeypatch):
    monkeypatch.delattr(pipeline, "mix_parameters")
    monkeypatch.setitem(sys.modules, "graphmend.accel", None)
    tracer = Tracer()
    hooks = spans.Hooks(tracer)
    hooks.restore()
    layers = spans.layer_metrics(tracer, hooks.installed)
    for name in ("splitter.mix_s", "accel.matvec_s", "accel.matvec_calls",
                 "accel.matvec_rate", "accel.nearest_s", "propagate.cg_iters_mean"):
        assert name not in layers
    assert layers["graph.knn_s"] == 0.0


@pytest.mark.parametrize("kind", ["memory", "cli"])
def test_solver_error_is_counted_not_fatal(kind):
    w = Workload("test-solver-error-" + kind, kind, 3, 40, 8, "confusing", 10, 0.99, 1,
                 0.0, cg_max_iters=1)
    s = run.run_workload(w, 0, seconds=3.0, trace=False)
    assert s["attempted"] >= 2
    assert s["failed"] == s["attempted"]
    assert s["errors"] and ("SolverError" in s["errors"][0] or "code 12" in s["errors"][0])
    assert "no correction run completed" in s["problems"]
    assert s["metrics"] == {}


def test_tiny_run_checks_pass_and_traced_digest_matches():
    w = Workload("test-tiny-cli", "cli", 3, 40, 8, "uniform", 10, 0.9, 2, 0.0)
    s = run.run_workload(w, 1, seconds=0.0, trace=True)
    assert s["problems"] == []
    assert s["attempted"] == 2 and [r["trace"] for r in s["runs"]] == [False, True]
    assert s["digest"] is not None
    assert s["metrics"]["core.write_s"] > 0 and s["metrics"]["pipeline.dump_s"] > 0
    assert s["accounted_s"] == pytest.approx(s["traced_correct_s"], rel=1e-3)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for d in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[d["name"]] == d["unit"]
    for d in spec["per_layer"]:
        assert spans.LAYER_UNITS[d["name"]] == d["unit"]


def test_workload_fields_round_trip_through_the_job():
    w = WORKLOADS["cli-16c-dump"]
    assert Workload(**json.loads(json.dumps(dataclasses.asdict(w)))) == w


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    w = Workload("test-floor", "memory", 3, 40, 8, "confusing", 10, 0.99, 1, 1.01)
    monkeypatch.setitem(run.WORKLOADS, w.name, w)
    code = run.main(["--workload", w.name, "--seed", "0", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["attempted"] == 1 and last["failed"] == 0
    assert set(last["metrics"]) == {"correct_s", "sample_epochs_per_s", "setup_s",
                                    "peak_rss_mb", "correction_accuracy"}
