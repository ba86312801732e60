"""Dataset parsers and the planted-relevance synthetic generator.

Three on-disk formats are supported:

* LETOR text: ``<rel> qid:<q> 1:<v> 2:<v> ... # <docid>`` with dense,
  1-indexed features.  A writer is provided so parsed datasets round-trip.
* Interaction TSV: ``user<TAB>item<TAB>rating``; ratings at or above the
  threshold (default 4) become relevance 1.  Every user's pool is the full
  item catalog, and items are represented as single-token documents.
* QA JSON-lines: one record per question with fields ``question`` (tokens),
  ``candidates`` (list of token sequences) and ``correct`` (index list).
  Tokens may be vocabulary strings or ids; anything unknown maps to the
  reserved unknown id and is counted.

Real corpora are optional inputs and never bundled; all acceptance-level
training runs use the synthetic generator, which plants a hidden linear
relevance model and returns it for oracle evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    Dataset,
    DatasetError,
    DatasetKind,
    Document,
    Judgment,
    build_dataset,
)
from ._util import atomic_write


class ParseError(DatasetError):
    """Malformed input file; message carries the offending line number."""


def _lines(path):
    """Yield (file line number, stripped text) for each non-blank line of ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if line := raw.strip():
                yield line_no, line


@dataclass(frozen=True)
class SyntheticSpec:
    num_queries: int
    pool_size: int
    relevant_fraction: float
    feature_dim: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_queries", "pool_size", "feature_dim"):
            if getattr(self, name) < 1:
                raise DatasetError(f"{name} must be >= 1")
        if not 0.0 < self.relevant_fraction <= 1.0:
            raise DatasetError("relevant_fraction must lie in (0, 1]")
        if not 0 <= self.noise_sigma < math.inf:
            raise DatasetError("noise_sigma must be non-negative and finite")
        if math.ceil(self.relevant_fraction * self.pool_size) < 1:
            raise DatasetError("spec yields zero relevant docs per query")


class PlantedTruth(NamedTuple):
    weights: np.ndarray


def synth_retrieval(spec: SyntheticSpec) -> tuple[Dataset, PlantedTruth]:
    """Generate a closed-pool retrieval task with a planted linear scorer.

    Per query, the top ceil(relevant_fraction * pool_size) documents by
    w* . x + noise are labeled relevant.  With noise_sigma == 0 the task is
    perfectly separable by the returned weights.
    """
    rng = np.random.default_rng(spec.seed)
    w_star = rng.normal(size=spec.feature_dim)
    n_rel = math.ceil(spec.relevant_fraction * spec.pool_size)
    q_digits = max(3, len(str(spec.num_queries - 1)))
    d_digits = max(3, len(str(spec.pool_size - 1)))
    doc_suffixes = [f"_d{di:0{d_digits}d}" for di in range(spec.pool_size)]

    pools: dict[str, Sequence[Document]] = {}
    judgments: list[Judgment] = []
    for qi in range(spec.num_queries):
        qid = f"q{qi:0{q_digits}d}"
        X = rng.normal(size=(spec.pool_size, spec.feature_dim))
        X.flags.writeable = False
        noisy = X @ w_star + (
            rng.normal(scale=spec.noise_sigma, size=spec.pool_size)
            if spec.noise_sigma > 0
            else 0.0
        )
        pools[qid] = docs = Document.rows([qid + suffix for suffix in doc_suffixes], X)
        judgments += [Judgment(qid, docs[di].id, 1) for di in np.argsort(-noisy)[:n_rel]]

    dataset = build_dataset(pools, judgments, DatasetKind.SYNTHETIC)
    return dataset, PlantedTruth(weights=w_star)


# -- LETOR ------------------------------------------------------------------


def _letor_doc_id(comment: str, qid: str, line_no: int) -> str:
    tokens = comment.split()
    if len(tokens) >= 3 and tokens[0] == "docid" and tokens[1] == "=":
        return tokens[2]
    if len(tokens) >= 1 and tokens[0].startswith("docid="):
        return tokens[0].split("=", 1)[1]
    if len(tokens) == 1:
        return tokens[0]
    return f"q{qid}_line{line_no}"


def parse_letor(path) -> Dataset:
    """Parse a LETOR-format feature file into a validated Dataset."""
    pools: dict[str, list[Document]] = {}
    judgments: list[Judgment] = []
    for line_no, line in _lines(path):
        body, _, comment = line.partition("#")
        parts = body.split()
        if len(parts) < 2 or not parts[1].startswith("qid:"):
            raise ParseError(f"{path}:{line_no}: expected '<rel> qid:<q> ...'")
        try:
            rel = int(parts[0])
        except ValueError:
            raise ParseError(f"{path}:{line_no}: bad relevance {parts[0]!r}") from None
        qid = parts[1][len("qid:") :]
        feats: dict[int, float] = {}
        for tok in parts[2:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                feats[int(idx_s)] = value = float(val_s)
            except ValueError:
                raise ParseError(f"{path}:{line_no}: bad feature pair {tok!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"{path}:{line_no}: feature value {tok!r} is not finite")
        if sorted(feats) != list(range(1, len(feats) + 1)):
            raise ParseError(f"{path}:{line_no}: feature indices must be contiguous from 1")
        vector = np.array([feats[i] for i in range(1, len(feats) + 1)])
        doc_id = _letor_doc_id(comment.strip(), qid, line_no)
        if not qid or not doc_id:
            raise ParseError(f"{path}:{line_no}: empty {'document' if qid else 'query'} id")
        pools.setdefault(qid, []).append(Document(id=doc_id, features=vector))
        judgments.append(Judgment(qid, doc_id, rel))
    if not pools:
        raise DatasetError(f"{path}: no queries found")
    return build_dataset(pools, judgments, DatasetKind.WEB_SEARCH)


def serialize_letor(dataset: Dataset, path) -> None:
    """Write a dataset in LETOR format; parse_letor(serialize_letor(ds)) == ds."""
    with atomic_write(path) as fh:
        for qid, g in dataset.groups.items():
            for doc, rel in zip(g.pool, g.grades.tolist()):
                if doc.features is None:
                    raise DatasetError(f"doc {doc.id!r} has no features to serialize")
                feats = " ".join(
                    f"{i + 1}:{float(v)!r}" for i, v in enumerate(doc.features)
                )
                fh.write(f"{rel} qid:{qid} {feats} # {doc.id}\n")


# -- interaction triples ------------------------------------------------------


def parse_interactions(path, threshold: float = 4.0) -> Dataset:
    """Parse ``user<TAB>item<TAB>rating`` triples into a recommendation dataset.

    Users become queries, items become single-token documents shared across
    every user's pool (the full catalog), and ratings >= threshold become
    relevance 1 (else 0).
    """
    ratings: dict[tuple[str, str], float] = {}
    items: set[str] = set()
    users: set[str] = set()
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if len(parts) < 3:
            parts = line.split()
        if len(parts) < 3:
            raise ParseError(f"{path}:{line_no}: expected 'user item rating'")
        user, item = parts[0], parts[1]
        if not item:
            raise ParseError(f"{path}:{line_no}: empty item id")
        try:
            rating = float(parts[2])
        except ValueError:
            raise ParseError(f"{path}:{line_no}: non-numeric rating {parts[2]!r}") from None
        if not math.isfinite(rating):
            raise ParseError(f"{path}:{line_no}: rating {parts[2]!r} is not finite")
        key = (user, item)
        if key in ratings:
            raise ParseError(
                f"{path}:{line_no}: duplicate interaction for user {user!r}, item {item!r}"
            )
        ratings[key] = rating
        users.add(user)
        items.add(item)
    if not ratings:
        raise DatasetError(f"{path}: no interactions found")

    docs = tuple(Document(id=item, tokens=(idx,)) for idx, item in enumerate(sorted(items)))
    pools = {user: docs for user in sorted(users)}
    judgments = [
        Judgment(user, item, 1 if rating >= threshold else 0)
        for (user, item), rating in ratings.items()
    ]
    return build_dataset(pools, judgments, DatasetKind.RECOMMENDATION)


# -- QA pairs -----------------------------------------------------------------


class Vocab:
    """Token-to-id map with a reserved unknown id (== len(vocab))."""

    def __init__(self, tokens: Sequence[str]):
        self.index = {tok: i for i, tok in enumerate(tokens)}
        if len(self.index) != len(tokens):
            raise DatasetError("vocabulary contains duplicate tokens")

    @property
    def unknown_id(self) -> int:
        return len(self.index)

    @property
    def size(self) -> int:
        """Embedding-table size: all known ids plus the unknown slot."""
        return len(self.index) + 1

    def map_token(self, token) -> tuple[int, bool]:
        """Return (id, was_unknown)."""
        if isinstance(token, bool) or not isinstance(token, (int, str)):
            return self.unknown_id, True
        if isinstance(token, int):
            if 0 <= token < len(self.index):
                return token, False
            return self.unknown_id, True
        mapped = self.index.get(token)
        if mapped is None:
            return self.unknown_id, True
        return mapped, False


class ParsedQA(NamedTuple):
    dataset: Dataset
    unknown_tokens: int


def parse_qa_pairs(path, vocab: Vocab) -> ParsedQA:
    """Parse JSON-lines QA records; returns the dataset and the unknown-token count."""
    pools: dict[str, list[Document]] = {}
    judgments: list[Judgment] = []
    query_tokens: dict[str, tuple[int, ...]] = {}
    unknown = 0

    def map_seq(tokens, what):
        nonlocal unknown
        if not isinstance(tokens, list) or not tokens:
            raise ParseError(f"{path}:{line_no}: {what} must be a non-empty token list")
        out = []
        for tok in tokens:
            mapped, was_unknown = vocab.map_token(tok)
            unknown += was_unknown
            out.append(mapped)
        return tuple(out)

    records = list(_lines(path))
    if not records:
        raise DatasetError(f"{path}: no records found")
    q_digits = max(5, len(str(len(records) - 1)))
    for index, (line_no, line) in enumerate(records):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{line_no}: bad JSON ({exc.msg})") from None
        if not isinstance(rec, dict):
            raise ParseError(f"{path}:{line_no}: expected a JSON object")
        for key in ("question", "candidates", "correct"):
            if key not in rec:
                raise ParseError(f"{path}:{line_no}: missing field {key!r}")
        qid = str(rec.get("id", f"q{index:0{q_digits}d}"))
        if not qid:
            raise ParseError(f"{path}:{line_no}: empty question id")
        if qid in pools:
            raise ParseError(f"{path}:{line_no}: question id {qid!r} used twice")
        query_tokens[qid] = map_seq(rec["question"], "question")
        candidates = rec["candidates"]
        if not isinstance(candidates, list) or not candidates:
            raise ParseError(f"{path}:{line_no}: candidates must be a non-empty list")
        a_digits = max(2, len(str(len(candidates) - 1)))
        docs = [
            Document(id=f"{qid}_a{j:0{a_digits}d}", tokens=map_seq(cand, f"candidate {j}"))
            for j, cand in enumerate(candidates)
        ]
        pools[qid] = docs
        if not isinstance(rec["correct"], list):
            raise ParseError(f"{path}:{line_no}: correct must be a list of indices")
        for j in rec["correct"]:
            if type(j) is not int or not 0 <= j < len(candidates):
                raise ParseError(f"{path}:{line_no}: correct index {j!r} out of range")
            judgments.append(Judgment(qid, docs[j].id, 1))
    dataset = build_dataset(pools, judgments, DatasetKind.QA, query_tokens=query_tokens)
    return ParsedQA(dataset, unknown)


# -- transforms ---------------------------------------------------------------


def normalize_features_minmax(dataset: Dataset) -> Dataset:
    """Optional per-query min-max feature normalization pass (off by default).

    Constant features within a query map to 0.  Every document needs features.
    """
    pools: dict[str, Sequence[Document]] = {}
    for qid, g in dataset.groups.items():
        X = g.features
        if X is None:
            raise DatasetError(f"query {qid!r} has documents without features")
        lo, hi = X.min(axis=0), X.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        X = np.where(hi > lo, (X - lo) / span, 0.0)
        X.flags.writeable = False
        pools[qid] = Document.rows([d.id for d in g.pool], X, [d.tokens for d in g.pool])
    _, judgments, kind, tokens = dataset.records()
    return build_dataset(pools, judgments, kind, query_tokens=tokens)


def split_queries(dataset: Dataset, holdout_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic query-level split into (train, held-out) datasets, both
    selected from ``dataset`` without validating or grouping again."""
    if not 0.0 < holdout_fraction < 1.0:
        raise DatasetError("holdout_fraction must lie in (0, 1)")
    qids = dataset.query_ids()
    n_held = max(1, int(round(holdout_fraction * len(qids))))
    if n_held >= len(qids):
        raise DatasetError("holdout would leave no training queries")
    rng = np.random.default_rng(seed)
    held_ids = [qids[i] for i in rng.choice(len(qids), size=n_held, replace=False)]
    return dataset.select(set(qids) - set(held_ids)), dataset.select(held_ids)
