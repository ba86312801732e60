"""Ranking evaluation: Precision@k, NDCG@k, P@1, and whole-dataset means.

NDCG uses the LETOR convention: gain 2^rel - 1 and discount 1/log2(i+1) at
position i (1-based).  On binary labels this coincides with gain = rel.
Ties in scores are broken lexicographically by document id so every metric
value is reproducible: pools are ranked by one stable sort on descending
score over the id-sorted pool (``_ranking``).  Queries with no relevant
document are excluded from dataset means (their NDCG is undefined) and
reported as skipped.  ``evaluate_model`` reads each query's grades from the
dataset's query groups and never builds a RankedList.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Dataset, Document, EmptyPoolError, Query
from .scorers import Scorer
from ._util import _fold_sum, write_csv


@dataclass(frozen=True)
class RankedList:
    query: str
    docs: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(set(self.docs)) != len(self.docs):
            raise ValueError("ranked list contains duplicate documents")
        if any(a < b for a, b in zip(self.scores, self.scores[1:])):
            raise ValueError("ranked list scores must be non-increasing")


def _ranking(scores: np.ndarray) -> np.ndarray:
    """Positions of an id-sorted pool in rank order: descending score, ties
    kept in pool order, i.e. broken by ascending doc id."""
    return np.argsort(-scores, kind="stable")


def rank(scorer: Scorer, query: Query | None, pool: Sequence[Document]) -> RankedList:
    """Sort a pool by score descending; ties broken by ascending doc id."""
    if len(pool) == 0:
        raise EmptyPoolError("cannot rank an empty pool")
    pool = sorted(pool, key=lambda d: d.id)
    scores = scorer.score_many(query, pool)
    order = _ranking(scores)
    qid = query.id if query is not None else ""
    return RankedList(
        query=qid,
        docs=tuple(pool[i].id for i in order),
        scores=tuple(float(scores[i]) for i in order),
    )


def _ranked_grades(ranked: RankedList, relevance: Mapping[str, int]) -> list[int]:
    return [relevance.get(d, 0) for d in ranked.docs]


def _precision(grades: Sequence[int], k: int) -> float:
    return sum(1 for g in grades[:k] if g > 0) / k


def _ndcg(grades: Sequence[int], k: int, query: str) -> float:
    if not any(g > 0 for g in grades):
        raise ValueError(f"query {query!r} has no relevant document")
    dcg = _fold_sum(
        (2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(grades[:k])
    )
    ideal = sorted(grades, reverse=True)
    idcg = _fold_sum(
        (2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(ideal[:k])
    )
    return dcg / idcg


def precision_at_k(ranked: RankedList, relevance: Mapping[str, int], k: int) -> float:
    """(# relevant in the top min(k, len)) / k.  Denominator is always k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _precision(_ranked_grades(ranked, relevance), k)


def ndcg_at_k(ranked: RankedList, relevance: Mapping[str, int], k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    return _ndcg(_ranked_grades(ranked, relevance), k, ranked.query)


def _parse_metric(name: str):
    name = name.strip().lower()
    if name == "p@1":
        return ("p", 1)
    kind, _, k = name.partition("@")
    if kind in ("p", "ndcg") and k.isdigit() and int(k) >= 1:
        return (kind, int(k))
    raise ValueError(f"unknown metric {name!r}")


def _grade_metric(metric: tuple[str, int], grades: Sequence[int], query: str) -> float:
    """A parsed metric over the grades of one ranked list, in rank order."""
    kind, k = metric
    if kind == "p":
        return _precision(grades, k)
    return _ndcg(grades, k, query)


def compute_metric(name: str, ranked: RankedList, relevance: Mapping[str, int]) -> float:
    return _grade_metric(_parse_metric(name), _ranked_grades(ranked, relevance), ranked.query)


@dataclass(frozen=True)
class EvalReport:
    values: dict[str, float]
    queries_counted: int
    queries_skipped: int


def evaluate_model(scorer: Scorer, dataset: Dataset,
                   metric_names: Sequence[str] = ("p@5", "ndcg@5")) -> EvalReport:
    """Per-query metrics averaged over queries that have >= 1 relevant doc.

    A metric named twice is reported once."""
    parsed = {n: _parse_metric(n) for n in (n.strip().lower() for n in metric_names)}
    sums = {n: 0.0 for n in parsed}
    counted = skipped = 0
    for g in dataset.groups.values():
        if not g.positives:
            skipped += 1
            continue
        order = _ranking(scorer.score_many(g.query, g.pool))
        grades = g.grades[order].tolist()
        for n, metric in parsed.items():
            sums[n] += _grade_metric(metric, grades, g.query.id)
        counted += 1
    values = {n: (sums[n] / counted if counted else float("nan")) for n in parsed}
    return EvalReport(values=values, queries_counted=counted, queries_skipped=skipped)


def pairwise_accuracy(scorer: Scorer, dataset: Dataset) -> float:
    """Fraction of (more-relevant, less-relevant) pairs the scorer orders correctly."""
    correct = 0
    total = 0
    for g in dataset.groups.values():
        scores = scorer.score_many(g.query, g.pool)
        pairs = g.grades[:, None] > g.grades[None, :]
        total += int(pairs.sum())
        correct += int((pairs & (scores[:, None] > scores[None, :])).sum())
    return correct / total if total else float("nan")


def write_eval_csv(reports: Mapping[str, EvalReport], path) -> None:
    """One row per (model, metric): model,metric,value,queries_counted,queries_skipped."""
    rows = []
    for model in sorted(reports):
        rep = reports[model]
        for metric in rep.values:
            rows.append(
                (model, metric, rep.values[metric], rep.queries_counted, rep.queries_skipped)
            )
    write_csv(path, ("model", "metric", "value", "queries_counted", "queries_skipped"), rows)
