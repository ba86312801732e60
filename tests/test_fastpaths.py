"""Differential tests: each fast path against a reference path, on edge shapes.

The fast paths are the per-query group split (``Dataset.group``), sampling
with replacement from a precomputed CDF (``policy._sampling_cdf`` /
``policy._draw_from_cdf``) and the argsort ranking of ``evaluate_model``.
Each reference here is written from the definitions: relevance looked up
document by document, ``Generator.choice`` with ``p=``, and
``sorted(..., key=(-score, id))`` over RankedLists.  The edge shapes are
pools of one document, all-relevant pools, queries with no relevant
document and ``dns_k`` above the size of the negative pool.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranklab import trainers
from ranklab.core import (
    Dataset,
    Document,
    Judgment,
    QueryGroup,
    build_dataset,
    candidate_pool,
    relevant_fraction,
)
from ranklab.metrics import (
    RankedList,
    compute_metric,
    evaluate_model,
    pairwise_accuracy,
)
from ranklab.policy import (
    SoftmaxPolicy,
    _draw_from_cdf,
    _sampling_cdf,
    policy_probs,
    sample_docs,
)
from ranklab.scorers import LinearScorer, ParamVector, build_scorer, layout_for
from ranklab.trainers import (
    TrainConfig,
    dns_epoch,
    dual_d_outer_epoch,
    pretrain_mle,
    single_d_epoch,
)

FEATURE_DIM = 2
METRICS = ("p@1", "p@3", "ndcg@2", "ndcg@5")


@st.composite
def datasets(draw):
    """Up to four queries of one to six documents.  A query's pool is all
    relevant, has no relevant document, or mixes graded, zero-graded and
    unjudged documents; small integer features give tied scores."""
    pools, judgments = {}, []
    for qi in range(draw(st.integers(1, 4))):
        qid = f"q{qi}"
        size = draw(st.integers(1, 6))
        shape = draw(st.sampled_from(["all", "none", "mixed"]))
        grade = {"all": st.integers(1, 2), "none": st.sampled_from([0, None]),
                 "mixed": st.sampled_from([0, 1, 2, None])}[shape]
        docs = []
        for di in draw(st.permutations(range(size))):
            features = draw(st.lists(st.integers(-2, 2), min_size=FEATURE_DIM,
                                     max_size=FEATURE_DIM))
            docs.append(Document(f"{qid}_d{di}", np.array(features, dtype=float)))
            g = draw(grade)
            if g is not None:
                judgments.append(Judgment(qid, docs[-1].id, g))
        pools[qid] = docs
    return build_dataset(pools, judgments, "synthetic")


def integer_scorer(weights):
    params = ParamVector(np.array(weights, dtype=float),
                         layout_for("linear", {"feature_dim": FEATURE_DIM}))
    return LinearScorer(params)


scorer_weights = st.lists(st.integers(-2, 2), min_size=FEATURE_DIM + 1,
                          max_size=FEATURE_DIM + 1)


def reference_split(dataset, qid):
    """(grades, positives, negatives) by one relevance lookup per document."""
    pool = dataset.pool(qid)
    grades = [dataset.relevance(qid, d.id) for d in pool]
    return (grades,
            tuple(d for d, g in zip(pool, grades) if g > 0),
            tuple(d for d, g in zip(pool, grades) if g <= 0))


def reference_group(dataset, qid):
    """Dataset.group rebuilt from ``reference_split`` on every call."""
    grades, positives, negatives = reference_split(dataset, qid)
    return QueryGroup(grades=np.array(grades, dtype=np.int64),
                      positives=positives, negatives=negatives)


def choice_draw(probs, size, rng):
    """The reference sampler: the probabilities themselves stand in for the
    CDF, and ``Generator.choice`` draws from them."""
    return rng.choice(len(probs), size=size, replace=True, p=probs)


def reference_evaluate(scorer, dataset, names):
    sums = {n: 0.0 for n in names}
    counted = skipped = 0
    for q in dataset.queries:
        pool = dataset.pool(q.id)
        relevance = {d.id: dataset.relevance(q.id, d.id) for d in pool}
        if not any(g > 0 for g in relevance.values()):
            skipped += 1
            continue
        scores = scorer.score_many(q, pool)
        order = sorted(range(len(pool)), key=lambda i: (-scores[i], pool[i].id))
        ranked = RankedList(q.id, tuple(pool[i].id for i in order),
                            tuple(float(scores[i]) for i in order))
        for n in names:
            sums[n] += compute_metric(n, ranked, relevance)
        counted += 1
    values = {n: (sums[n] / counted if counted else float("nan")) for n in names}
    return values, counted, skipped


class TestGroupSplit:
    @given(datasets())
    def test_matches_relevance_lookup(self, dataset):
        fractions = []
        for q in dataset.queries:
            grades, positives, negatives = reference_split(dataset, q.id)
            group = dataset.group(q.id)
            assert group.grades.tolist() == grades
            assert dataset.positives(q.id) == positives
            assert candidate_pool(dataset, q.id, exclude_positives=True) == negatives
            assert candidate_pool(dataset, q.id) == dataset.pool(q.id)
            fractions.append(len(positives) / len(grades))
        assert relevant_fraction(dataset) == float(np.mean(fractions))

    def test_computed_once_and_read_only(self, tiny_dataset):
        group = tiny_dataset.group("qa")
        assert tiny_dataset.group("qa") is group
        assert not group.grades.flags.writeable


class TestCdfSampling:
    @given(st.lists(st.floats(0.0, 1e3) | st.just(0.0), min_size=1, max_size=30),
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_same_indices_and_stream_as_choice(self, weights, size, seed):
        if sum(weights) <= 0:
            weights[0] = 1.0
        probs = np.array(weights) / sum(weights)
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = expected_rng.choice(len(probs), size=size, replace=True, p=probs)
        assert np.array_equal(_draw_from_cdf(_sampling_cdf(probs), size, rng), expected)
        assert rng.random() == expected_rng.random()

    @given(datasets(), scorer_weights, st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_sample_docs_matches_choice(self, dataset, weights, k, seed):
        policy = SoftmaxPolicy(integer_scorer(weights), temperature=0.7)
        for q in dataset.queries:
            pool = dataset.pool(q.id)
            expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            idx = choice_draw(policy_probs(policy, q, pool), k, expected_rng)
            assert sample_docs(policy, q, pool, k, rng) == [pool[i] for i in idx]
            assert rng.random() == expected_rng.random()


class TestEvaluateModel:
    @given(datasets(), scorer_weights)
    def test_matches_sorted_reference(self, dataset, weights):
        scorer = integer_scorer(weights)
        values, counted, skipped = reference_evaluate(scorer, dataset, METRICS)
        report = evaluate_model(scorer, dataset, METRICS)
        assert (report.queries_counted, report.queries_skipped) == (counted, skipped)
        for n in METRICS:
            assert report.values[n] == values[n] or (
                math.isnan(report.values[n]) and math.isnan(values[n]))

    def test_metric_named_twice_is_reported_once(self, planted_dataset):
        dataset, _ = planted_dataset
        scorer = build_scorer("linear", {"feature_dim": 6}, scale=0.3, seed=2)
        assert (evaluate_model(scorer, dataset, ("p@5", "P@5 ")).values
                == evaluate_model(scorer, dataset, ("p@5",)).values)

    @given(datasets(), scorer_weights)
    def test_pairwise_accuracy_matches_loop(self, dataset, weights):
        scorer = integer_scorer(weights)
        correct = total = 0
        for q in dataset.queries:
            grades, _, _ = reference_split(dataset, q.id)
            scores = scorer.score_many(q, dataset.pool(q.id))
            for i in range(len(grades)):
                for j in range(len(grades)):
                    if grades[i] > grades[j]:
                        total += 1
                        correct += bool(scores[i] > scores[j])
        accuracy = pairwise_accuracy(scorer, dataset)
        if total:
            assert accuracy == correct / total
        else:
            assert math.isnan(accuracy)


def run_epochs(dataset, seed, dns_k):
    """Parameters after one epoch of each group- and sampler-reading trainer."""
    cfg = TrainConfig(learning_rate=0.1, batch_size=2, epochs_inner=2, dns_k=dns_k,
                      epochs_outer=2, seed=seed)
    models = [build_scorer("linear", {"feature_dim": FEATURE_DIM}, scale=0.5, seed=seed + i)
              for i in range(5)]
    rng = np.random.default_rng(seed)
    single_d_epoch(models[0], dataset, cfg, rng)
    dual_d_outer_epoch(models[1], models[2], dataset, cfg, rng)
    dns_epoch(models[3], dataset, cfg, rng)
    if any(dataset.positives(q.id) for q in dataset.queries):
        pretrain_mle(SoftmaxPolicy(models[4]), dataset, cfg)
    return [m.params.values.copy() for m in models]


class TestTrainersOnReferencePaths:
    """The epochs read groups and CDFs; rerun on the reference split and on
    ``Generator.choice``, they must end with the same parameter bits."""

    @settings(max_examples=40)
    @given(datasets(), st.integers(0, 1000), st.integers(1, 9))
    def test_same_parameters(self, dataset, seed, dns_k):
        fast = run_epochs(dataset, seed, dns_k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Dataset, "group", reference_group)
            patch.setattr(trainers, "_sampling_cdf", lambda probs: probs)
            patch.setattr(trainers, "_draw_from_cdf", choice_draw)
            reference = run_epochs(dataset, seed, dns_k)
        for a, b in zip(fast, reference):
            assert np.array_equal(a, b)


class TestNoRelevanceLookups:
    """Once a dataset's groups exist, training and evaluation never look a
    judgment up by document id."""

    def test_single_d_epoch_and_evaluate_model(self, planted_dataset, monkeypatch):
        dataset, _ = planted_dataset
        for q in dataset.queries:
            dataset.group(q.id)
        lookups = []
        for name in ("relevance", "relevance_map"):
            original = getattr(Dataset, name)
            monkeypatch.setattr(Dataset, name, lambda self, *a, _o=original, _n=name:
                                lookups.append(_n) or _o(self, *a))
        model = build_scorer("linear", {"feature_dim": 6}, scale=0.3, seed=1)
        single_d_epoch(model, dataset, TrainConfig(learning_rate=0.1),
                       np.random.default_rng(0))
        evaluate_model(model, dataset)
        assert lookups == []

    def test_sampler_table_builds_one_cdf_per_usable_query(self, monkeypatch):
        pools = {f"q{i}": [Document(f"q{i}_d{j}", np.array([float(j)])) for j in range(3)]
                 for i in range(4)}
        judgments = [Judgment("q0", "q0_d0", 1), Judgment("q1", "q1_d2", 2)]
        judgments += [Judgment("q2", f"q2_d{j}", 1) for j in range(3)]  # no negative
        dataset = build_dataset(pools, judgments, "synthetic")  # q3: no positive
        calls = []
        monkeypatch.setattr(trainers, "_sampling_cdf",
                            lambda probs: calls.append(len(probs)) or _sampling_cdf(probs))
        entries, skipped = trainers._negative_entries(dataset, TrainConfig())
        table = trainers._sampler_table(build_scorer("linear", {"feature_dim": 1}, scale=0.5,
                                                     seed=0), entries)
        assert skipped == 2
        assert sorted(table) == ["q0", "q1"]
        assert calls == [2, 2]
        for cdf in table.values():
            assert np.all(np.diff(cdf) >= 0) and cdf[-1] == 1.0
