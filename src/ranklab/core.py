"""Immutable domain model: queries, documents, relevance judgments, datasets.

A Dataset is a closed-pool retrieval problem: every query owns an explicit
candidate pool, and graded relevance judgments mark which pooled documents
are correct.  Ordering of queries and pools is lexicographic by id so that
every downstream run is reproducible from a seed alone.  Datasets are
immutable after construction and safe for concurrent readers.

Each query is one QueryGroup, made once by ``build_dataset`` while it
validates: the query, its pool, the grade of every pool position in pool
order, the positives, the negative pool and the pool's feature matrix.
Trainers and metrics iterate ``Dataset.groups``; ``Dataset.select`` keeps some.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import attrgetter, is_
from typing import Iterable, Mapping, Sequence

import numpy as np

QueryId = str


class DatasetError(ValueError):
    """Base class for dataset construction and lookup failures."""


class DuplicateJudgmentError(DatasetError):
    pass


class JudgedDocNotInPoolError(DatasetError):
    pass


class FeatureDimensionError(DatasetError):
    pass


class UnknownQueryError(DatasetError):
    pass


class EmptyPoolError(DatasetError):
    pass


class DatasetKind(str, Enum):
    WEB_SEARCH = "web-search"
    RECOMMENDATION = "recommendation"
    QA = "qa"
    SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class Query:
    """A query; `tokens` is only populated for text (QA) tasks."""

    id: QueryId
    tokens: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.id:
            raise DatasetError("query id must be non-empty")


@dataclass(frozen=True, eq=False)
class Document:
    """A candidate document, represented by dense features, token ids, or both."""

    id: str
    features: np.ndarray | None = None
    tokens: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.id:
            raise DatasetError("document id must be non-empty")
        if self.features is None and self.tokens is None:
            raise DatasetError(f"document {self.id!r} needs features or tokens")
        if self.features is not None:
            arr = np.asarray(self.features, dtype=np.float64)
            if arr.ndim != 1:
                raise DatasetError(f"document {self.id!r} features must be a flat vector")
            object.__setattr__(self, "features", arr)
        if self.tokens is not None and len(self.tokens) == 0:
            raise DatasetError(f"document {self.id!r} has an empty token sequence")

    @classmethod
    def rows(cls, ids: Sequence[str], matrix: np.ndarray,
             tokens: Sequence[tuple[int, ...] | None] | None = None) -> GroupDocs:
        """One document per row of a read-only 2-D float64 ``matrix``, each
        viewing its row, with one token tuple or None per row in ``tokens``;
        the matrix, ids and tokens are checked once, not per row."""
        if matrix.ndim != 2 or matrix.dtype != np.float64 or matrix.flags.writeable:
            raise DatasetError("document rows need a read-only 2-D float64 matrix")
        if len(ids) != len(matrix) or not all(ids):
            raise DatasetError("document rows need one non-empty id per matrix row")
        if tokens is not None and (len(tokens) != len(ids)
                                   or any(t is not None and not t for t in tokens)):
            raise DatasetError("document rows need one non-empty token tuple or None per row")
        docs = []
        # Set up each document before making the next, so their dicts share one key table.
        for doc_id, row, doc_tokens in zip(ids, matrix, tokens or repeat(None)):
            docs.append(doc := object.__new__(cls))
            object.__setattr__(doc, "id", doc_id)
            object.__setattr__(doc, "features", row)
            object.__setattr__(doc, "tokens", doc_tokens)
        return GroupDocs(docs, matrix)

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        if self.id != other.id or self.tokens != other.tokens:
            return False
        if (self.features is None) != (other.features is None):
            return False
        return self.features is None or np.array_equal(self.features, other.features)

    def __hash__(self):
        return hash(self.id)


@dataclass(frozen=True)
class Judgment:
    """Graded relevance of one (query, document) pair; grade > 0 means correct."""

    query: QueryId
    doc: str
    relevance: int

    def __post_init__(self):
        if self.relevance < 0:
            raise DatasetError(
                f"judgment ({self.query!r},{self.doc!r}) has negative relevance"
            )


class GroupDocs(tuple):
    """Documents of one query group and their feature rows: ``matrix[positions]``,
    or all of ``matrix`` when ``positions`` is None (``matrix`` may be None)."""

    def __new__(cls, docs, matrix=None, positions=None):
        self = super().__new__(cls, docs)
        self.matrix, self.positions = matrix, positions
        return self


def take(docs: Sequence[Document], idx) -> Sequence[Document]:
    """``docs[i]`` for each i in ``idx``; a group's documents keep their rows."""
    if not isinstance(docs, GroupDocs):
        return [docs[i] for i in idx]
    rows = idx if docs.positions is None else docs.positions[idx]
    return GroupDocs([docs[i] for i in idx], docs.matrix, rows)


@dataclass(frozen=True, eq=False)
class QueryGroup:
    """One query's closed candidate pool, split by relevance in pool order.

    ``grades[i]`` is the grade of ``pool[i]`` (0 when unjudged, read only);
    ``positives`` are the pool documents with grade > 0 and ``negatives``
    those with grade <= 0.
    """

    query: Query
    pool: tuple[Document, ...]
    grades: np.ndarray
    positives: tuple[Document, ...]
    negatives: tuple[Document, ...]

    @property
    def features(self) -> np.ndarray | None:
        """The pool's read-only feature matrix; None unless every document has features."""
        return getattr(self.pool, "matrix", None)


@dataclass(frozen=True, eq=False)
class Dataset:
    """The query groups by id, in id order, and the judgments they came from."""

    kind: DatasetKind
    groups: Mapping[QueryId, QueryGroup]
    judgments: tuple[Judgment, ...]
    feature_dim: int | None

    @property
    def queries(self) -> tuple[Query, ...]:
        return tuple(g.query for g in self.groups.values())

    @property
    def num_queries(self) -> int:
        return len(self.groups)

    def query_ids(self) -> tuple[QueryId, ...]:
        return tuple(self.groups)

    def query(self, query_id: QueryId) -> Query:
        return self.group(query_id).query

    def pool(self, query_id: QueryId) -> tuple[Document, ...]:
        return self.group(query_id).pool

    def relevance_map(self, query_id: QueryId) -> dict[str, int]:
        """The query's judgments by document id, grade-0 judgments included."""
        self.group(query_id)  # raise on unknown query
        return {j.doc: j.relevance for j in self.judgments if j.query == query_id}

    def positives(self, query_id: QueryId) -> tuple[Document, ...]:
        return self.group(query_id).positives

    def group(self, query_id: QueryId) -> QueryGroup:
        """The query's group, made when the dataset was built."""
        try:
            return self.groups[query_id]
        except KeyError:
            raise UnknownQueryError(f"unknown query {query_id!r}") from None

    def select(self, query_ids: Iterable[QueryId]) -> Dataset:
        """The dataset of the given queries only, in this dataset's order.

        The groups and judgments are this dataset's own, so nothing is
        sorted, validated or grouped again.  ``feature_dim`` is that of the
        selected documents.
        """
        keep = {self.query(qid).id for qid in query_ids}  # raises on an unknown id
        if not keep:
            raise DatasetError("dataset has no queries")
        groups = {qid: g for qid, g in self.groups.items() if qid in keep}
        features = (d.features for g in groups.values() for d in g.pool
                    if d.features is not None)
        return Dataset(
            self.kind, groups,
            judgments=tuple(j for j in self.judgments if j.query in keep),
            feature_dim=next((len(f) for f in features), None),
        )

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.queries == other.queries
            and self.judgments == other.judgments
            and all(g.pool == other.groups[qid].pool for qid, g in self.groups.items())
        )


def build_dataset(
    pools: Mapping[QueryId, Sequence[Document]],
    judgments: Iterable[Judgment],
    kind: DatasetKind | str,
    query_tokens: Mapping[QueryId, Sequence[int]] | None = None,
) -> Dataset:
    """Validate raw records and assemble an immutable Dataset.

    Queries and pools are sorted lexicographically by id.  Raises a distinct
    error naming the offending id for: duplicate (query, doc) judgments,
    judged documents missing from their pool, and inconsistent feature
    dimensionality.  No given document is changed.  A pool that is a whole
    read-only ``Document.rows`` group in id order keeps its matrix and
    documents; any other pool whose documents all have features gets new
    documents on a new read-only matrix.
    """
    kind = DatasetKind(kind)
    if not pools:
        raise DatasetError("dataset has no queries")
    query_tokens = dict(query_tokens or {})

    sorted_pools: dict[QueryId, GroupDocs] = {}
    pool_ids: dict[QueryId, set[str]] = {}
    feature_dim: int | None = None
    for qid in sorted(pools):
        docs = sorted(pools[qid], key=attrgetter("id"))
        if not docs:
            raise EmptyPoolError(f"query {qid!r} has an empty pool")
        ids = {d.id for d in docs}
        if len(ids) < len(docs):
            twice = next(a.id for a, b in zip(docs, docs[1:]) if a.id == b.id)
            raise DatasetError(f"query {qid!r} pool lists document {twice!r} twice")
        given = pools[qid]
        matrix = None
        if (isinstance(given, GroupDocs) and given.positions is None and given.matrix is not None
                and not given.matrix.flags.writeable and all(map(is_, given, docs))):
            matrix = given.matrix
        # Every row of a kept matrix has its width, so its first document stands for all.
        for d in docs if matrix is None else docs[:1]:
            # Features are flat vectors, so len() is the feature count.
            if d.features is not None and len(d.features) != feature_dim:
                if feature_dim is not None:
                    raise FeatureDimensionError(
                        f"document {d.id!r} has {len(d.features)} features, "
                        f"expected {feature_dim}"
                    )
                feature_dim = len(d.features)
        if matrix is None and all(d.features is not None for d in docs):
            matrix = np.array([d.features for d in docs])
            matrix.flags.writeable = False
            docs = Document.rows([d.id for d in docs], matrix, [d.tokens for d in docs])
        sorted_pools[qid] = GroupDocs(docs, matrix)
        pool_ids[qid] = ids

    relevance: dict[QueryId, dict[str, int]] = {}
    ordered: list[Judgment] = []
    for j in sorted(judgments, key=lambda j: (j.query, j.doc)):
        if j.query not in sorted_pools:
            raise UnknownQueryError(f"judgment references unknown query {j.query!r}")
        per_query = relevance.setdefault(j.query, {})
        if j.doc in per_query:
            raise DuplicateJudgmentError(
                f"duplicate judgment for query {j.query!r}, doc {j.doc!r}"
            )
        if j.doc not in pool_ids[j.query]:
            raise JudgedDocNotInPoolError(
                f"judged doc {j.doc!r} missing from pool of query {j.query!r}"
            )
        per_query[j.doc] = j.relevance
        ordered.append(j)

    groups = {}
    for qid, pool in sorted_pools.items():
        judged = relevance.get(qid, {})
        grades = np.array([judged.get(d.id, 0) for d in pool], dtype=np.int64)
        grades.flags.writeable = False
        groups[qid] = QueryGroup(
            query=Query(qid, tuple(query_tokens[qid]) if qid in query_tokens else None),
            pool=pool, grades=grades,
            positives=take(pool, np.flatnonzero(grades > 0)),
            negatives=take(pool, np.flatnonzero(grades <= 0)),
        )
    return Dataset(kind, groups, judgments=tuple(ordered), feature_dim=feature_dim)


def candidate_pool(
    dataset: Dataset, query_id: QueryId, exclude_positives: bool = False
) -> tuple[Document, ...]:
    """The query's candidate documents, optionally minus known-relevant ones.

    Order is the dataset's deterministic pool order.  May be empty when every
    pooled document is relevant and exclusion is on; callers must handle that.
    """
    if not exclude_positives:
        return dataset.pool(query_id)
    return dataset.group(query_id).negatives


def relevant_fraction(dataset: Dataset) -> float:
    """Mean over queries of (#relevant docs in pool) / (pool size)."""
    fractions = [len(g.positives) / len(g.pool) for g in dataset.groups.values()]
    return float(np.mean(fractions))
