"""Ranking metrics against hand values and an independent brute-force oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ranklab.core import Document, Judgment, build_dataset
from ranklab.metrics import (
    RankedList,
    evaluate_model,
    ndcg_at_k,
    precision_at_k,
    rank,
    write_eval_csv,
)
from ranklab.scorers import LinearScorer, ParamVector, build_scorer, layout_for
from ranklab._util import read_csv

from conftest import make_docs


def oracle_dcg(grades, k):
    """Independent direct-summation DCG; deliberately naive."""
    total = 0.0
    for position in range(1, min(k, len(grades)) + 1):
        gain = 2 ** grades[position - 1] - 1
        total += gain / math.log2(position + 1)
    return total


def oracle_ndcg(grades_in_rank_order, k):
    best = sorted(grades_in_rank_order, reverse=True)
    ideal = oracle_dcg(best, k)
    return oracle_dcg(grades_in_rank_order, k) / ideal


def oracle_precision(grades_in_rank_order, k):
    return sum(1 for g in grades_in_rank_order[:k] if g > 0) / k


def ranked(doc_grades):
    """RankedList from (doc, grade) pairs already in rank order."""
    docs = tuple(f"d{i}" for i in range(len(doc_grades)))
    scores = tuple(float(len(doc_grades) - i) for i in range(len(doc_grades)))
    relevance = {f"d{i}": g for i, g in enumerate(doc_grades)}
    return RankedList("q", docs, scores), relevance


class TestRank:
    def test_orders_by_score(self):
        params = ParamVector(np.array([1.0, 0.0]), layout_for("linear", {"feature_dim": 1}))
        scorer = LinearScorer(params)
        pool = [Document("a", np.array([1.0])), Document("b", np.array([3.0])),
                Document("c", np.array([2.0]))]
        out = rank(scorer, None, pool)
        assert out.docs == ("b", "c", "a")

    def test_ties_break_lexicographically(self):
        scorer = build_scorer("linear", {"feature_dim": 1}, zero=True)
        pool = [Document(x, np.array([1.0])) for x in ("c", "a", "b")]
        assert rank(scorer, None, pool).docs == ("a", "b", "c")

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        scorer = build_scorer("linear", {"feature_dim": 2}, scale=1.0, seed=8)
        pool = [Document(f"d{i}", rng.normal(size=2)) for i in range(6)]
        base = rank(scorer, None, pool)
        for perm_seed in range(5):
            shuffled = list(pool)
            np.random.default_rng(perm_seed).shuffle(shuffled)
            assert rank(scorer, None, shuffled) == base


class TestPrecisionAtK:
    def test_all_relevant(self):
        r, rel = ranked([1, 1, 1, 1, 1])
        assert precision_at_k(r, rel, 5) == 1.0

    def test_half_relevant_top2(self):
        r, rel = ranked([0, 1, 1])
        assert precision_at_k(r, rel, 2) == 0.5

    def test_short_list_denominator_is_k(self):
        r, rel = ranked([1])
        assert precision_at_k(r, rel, 5) == pytest.approx(0.2)


class TestNdcgAtK:
    def test_ideal_ordering(self):
        r, rel = ranked([2, 1, 0])
        assert ndcg_at_k(r, rel, 3) == 1.0

    def test_hand_value_binary_swap(self):
        # ranking (0, 1), k=2: DCG = 1/log2(3), IDCG = 1
        r, rel = ranked([0, 1])
        expected = 1.0 / math.log2(3.0)
        assert ndcg_at_k(r, rel, 2) == pytest.approx(expected, abs=1e-12)
        assert ndcg_at_k(r, rel, 2) == pytest.approx(0.63093, abs=1e-5)

    def test_no_relevant_doc_raises(self):
        r, rel = ranked([0, 0])
        with pytest.raises(ValueError):
            ndcg_at_k(r, rel, 2)

    def test_exhaustive_permutation_oracle(self):
        grades = [2, 1, 1, 0, 0]
        for perm in itertools.permutations(grades):
            r, rel = ranked(list(perm))
            assert ndcg_at_k(r, rel, 5) == pytest.approx(oracle_ndcg(list(perm), 5), abs=1e-12)
            assert precision_at_k(r, rel, 5) == pytest.approx(oracle_precision(list(perm), 5), abs=1e-12)

    def test_one_iff_ideal_prefix(self):
        for perm in itertools.permutations([1, 1, 0, 0]):
            r, rel = ranked(list(perm))
            is_ideal_prefix = list(perm[:2]) == [1, 1]
            assert (ndcg_at_k(r, rel, 2) == 1.0) == is_ideal_prefix

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=7),
           st.integers(min_value=1, max_value=7))
    def test_range_and_relabel_invariance(self, grades, k):
        if not any(g > 0 for g in grades):
            grades = grades + [1]
        r, rel = ranked(grades)
        value = ndcg_at_k(r, rel, k)
        assert 0.0 <= value <= 1.0
        # consistent relabeling of doc ids after ranking leaves the value unchanged
        relabeled = RankedList("q", tuple("x" + d for d in r.docs), r.scores)
        rel2 = {"x" + d: g for d, g in rel.items()}
        assert ndcg_at_k(relabeled, rel2, k) == value

    def test_precision_monotone_under_bad_swap(self):
        r, rel = ranked([1, 1, 0, 0])
        before = precision_at_k(r, rel, 2)
        swapped, rel_swapped = ranked([0, 1, 1, 0])
        assert precision_at_k(swapped, rel_swapped, 2) <= before


class TestPAt1:
    def test_top_relevant(self):
        r, rel = ranked([1, 0])
        assert precision_at_k(r, rel, 1) == 1.0

    def test_top_irrelevant(self):
        r, rel = ranked([0, 1])
        assert precision_at_k(r, rel, 1) == 0.0


class TestEvaluateModel:
    def test_perfect_scorer_on_planted_task(self, planted_dataset):
        dataset, truth = planted_dataset
        dim = truth.weights.size
        params = ParamVector(np.concatenate([truth.weights, [0.0]]),
                             layout_for("linear", {"feature_dim": dim}))
        report = evaluate_model(LinearScorer(params), dataset, ("ndcg@5", "p@1"))
        assert report.values["ndcg@5"] == 1.0
        assert report.values["p@1"] == 1.0
        assert report.queries_skipped == 0

    def test_deterministic(self, planted_dataset):
        dataset, _ = planted_dataset
        scorer = build_scorer("linear", {"feature_dim": dataset.feature_dim},
                              scale=0.3, seed=2)
        a = evaluate_model(scorer, dataset)
        b = evaluate_model(scorer, dataset)
        assert a == b

    def test_queries_without_relevant_are_skipped(self):
        docs_a = make_docs([[1.0], [0.5]], prefix="a")
        docs_b = make_docs([[1.0], [0.5]], prefix="b")
        ds = build_dataset({"q1": docs_a, "q2": docs_b},
                           [Judgment("q1", "a0", 1)], "synthetic")
        scorer = build_scorer("linear", {"feature_dim": 1}, zero=True)
        report = evaluate_model(scorer, ds, ("p@5",))
        assert report.queries_counted == 1
        assert report.queries_skipped == 1

    def test_csv_round_trip(self, tmp_path, tiny_dataset):
        scorer = build_scorer("linear", {"feature_dim": 4}, scale=0.2, seed=0)
        report = evaluate_model(scorer, tiny_dataset)
        path = tmp_path / "eval.csv"
        write_eval_csv({"model": report}, path)
        header, rows = read_csv(path)
        assert header == ["model", "metric", "value", "queries_counted", "queries_skipped"]
        assert len(rows) == len(report.values)
        for row in rows:
            assert float(row[2]) == report.values[row[1]]
