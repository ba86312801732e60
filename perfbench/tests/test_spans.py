"""Tests for the benchmark's tracer, operation accounting and definition.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import ranklab.trainers as trainers  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ranklab.policy import SoftmaxPolicy, sample_docs  # noqa: E402
from ranklab.dataio import SyntheticSpec, synth_retrieval  # noqa: E402
from ranklab.scorers import build_scorer  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_on_nested_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # d [11, 12] is a second root; x [20, 25] holds another x [21, 22].
    tracer = spans.Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 20, 21, 22, 25))
    root = tracer.open("root")
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(root)
    d = tracer.open("d")
    tracer.close(d)
    outer = tracer.open("x")
    inner = tracer.open("x")
    tracer.close(inner)
    tracer.close(outer)
    stats = spans.summarize(tracer.take())
    assert {k: v.self_s for k, v in stats.items()} == {
        "root": 3, "a": 2, "b": 1, "c": 4, "d": 1, "x": 5}
    assert {k: v.busy_s for k, v in stats.items()} == {
        "root": 10, "a": 3, "b": 1, "c": 4, "d": 1, "x": 5}
    assert stats["x"].calls == 2


def test_spans_must_close_in_order():
    tracer = spans.Tracer()
    first = tracer.open("first")
    tracer.open("second")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def _tiny_adversarial_setup():
    dataset, _ = synth_retrieval(SyntheticSpec(num_queries=4, pool_size=12,
                                               relevant_fraction=0.1, feature_dim=3, seed=0))
    gen = build_scorer("mlp1", {"feature_dim": 3, "hidden": 4}, scale=0.1, seed=1)
    disc = build_scorer("mlp1", {"feature_dim": 3, "hidden": 4}, scale=0.1, seed=2)
    cfg = trainers.TrainConfig(learning_rate=0.05, batch_size=2, seed=0)
    return SoftmaxPolicy(gen), disc, dataset, cfg


def test_from_import_binding_in_trainers_is_caught():
    policy, disc, dataset, cfg = _tiny_adversarial_setup()
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        assert trainers.sample_docs is not sample_docs  # the trainers binding is wrapped
        trainers.irgan_pointwise_epoch(policy, disc, dataset, cfg, np.random.default_rng(0))
    finally:
        installed.uninstall()
    assert trainers.sample_docs is sample_docs
    recorded = tracer.take()
    sampled = [i for i, s in enumerate(recorded) if s.name == "policy.sample_docs"]
    assert sampled
    for i in sampled:
        parents = {s.name for s in spans._ancestors(recorded, i)}
        assert "trainers.irgan_pointwise_epoch" in parents
    stats = spans.summarize(recorded)
    assert stats["scorers.mlp1.score_many"].rows > 0


def test_tracing_leaves_results_bitwise_unchanged():
    runs = []
    for traced in (False, True):
        policy, disc, dataset, cfg = _tiny_adversarial_setup()
        installed = spans.install(spans.Tracer()) if traced else None
        try:
            trainers.irgan_pointwise_epoch(policy, disc, dataset, cfg, np.random.default_rng(0))
        finally:
            if installed:
                installed.uninstall()
        runs.append(policy.scorer.params.values.tobytes() + disc.params.values.tobytes())
    assert runs[0] == runs[1]


def test_pgvar_counts_top_level_calls_only():
    def span(name, parent, rows=0, units=0):
        return spans.Span(name, parent, 0.0, 1.0, rows, units)

    recorded = [
        span("pgvar.verify_variance_bound", None, rows=80, units=4),
        span("pgvar.exact_gradient_mean", 0, rows=80, units=4),
        *[span("scorers.mlp1.gradient_matrix", 1) for _ in range(4)],
        *[span("scorers.mlp1.gradient_matrix", 0) for _ in range(8)],
        span("pgvar.mc_variance", None, rows=80, units=4),
        *[span("scorers.mlp1.gradient_matrix", 14) for _ in range(4)],
    ]
    assert spans.pgvar_counts(recorded) == (160, 8, 16)
    assert spans.pgvar_counts(recorded, only={"pgvar.verify_variance_bound"}) == (80, 4, 12)


class FakeWorkload:
    def __init__(self, ops):
        self._ops = ops

    def ops(self):
        return self._ops


def _params_op(name, values):
    def check(result):
        out = workloads.Outcome()
        workloads.check_finite(f"{name} params", result, out)
        return out
    return workloads.Op(name, lambda: np.array(values), check)


def test_operation_with_nan_parameter_counts_as_failed():
    tally = run.Tally()
    run.run_pass(FakeWorkload([_params_op("good", [0.0, 1.0]),
                               _params_op("bad", [0.0, float("nan")])]), tally)
    assert tally.attempted == 2
    assert len(tally.failures) == 1 and tally.failures[0].startswith("bad:")


def test_known_defect_is_tallied_apart_from_other_failures():
    def raises(exc):
        def run_op():
            raise exc
        return run_op

    known = "ValueError: recorded defect"
    ops = [workloads.Op("known", raises(ValueError("recorded defect")), None, known),
           workloads.Op("other", raises(ValueError("something else")), None, known)]
    tally = run.Tally()
    run.run_pass(FakeWorkload(ops), tally)
    assert tally.known == {f"known: {known}": 1}
    assert tally.failures == ["other: ValueError: something else"]


def test_changed_outputs_count_as_failed():
    def op(value):
        return workloads.Op("op", lambda: value,
                            lambda v: workloads.Outcome(digests={"op/out": workloads.sha256(v)}))

    tally = run.Tally()
    reference = run.run_pass(FakeWorkload([op(b"a")]), tally).digests
    run.run_pass(FakeWorkload([op(b"a")]), tally, reference)
    assert not tally.failures
    run.run_pass(FakeWorkload([op(b"b")]), tally, reference)
    assert len(tally.failures) == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert "p50" not in report.tail([1.0] * 19)
    out = report.tail([float(i) for i in range(1, 41)])
    assert out["samples"] == 40 and out["p75"] == 30.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in report.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in report.per_layer_definitions()]


def test_paired_verdicts():
    import compare

    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "no regression"
    noisy = [0.5, 1.5, 0.7, 1.3, 0.6, 1.4, 0.8, 1.2, 1.0, 1.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1)["verdict"] == "regressed"
