"""Immutable domain model: queries, documents, relevance judgments, datasets.

A Dataset is a closed-pool retrieval problem: every query owns an explicit
candidate pool, and graded relevance judgments mark which pooled documents
are correct.  Ordering of queries and pools is lexicographic by id so that
every downstream run is reproducible from a seed alone.  Datasets are
immutable after construction and safe for concurrent readers.

Each query is one QueryGroup, made once by ``build_dataset`` while it
validates: the query, its pool, the grade of every pool position in pool
order, the positives and the negative pool.  A pool whose documents all
have features is a ``GroupDocs``: positions in a ``RowSpace``, a read-only
matrix the dataset's feature pools share, so its features are rows of it and
its documents are made only when it is indexed or iterated.  Any other pool is a tuple of the
documents it was given.  Trainers and metrics iterate ``Dataset.groups``;
``Dataset.select`` keeps some.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, lt

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
        """Every row of a read-only 2-D float64 ``matrix`` as one group, with
        one id per row in ``ids`` and one token tuple or None per row in
        ``tokens``; the matrix, ids and tokens are checked once, not per row,
        and each row's document is made when the group is indexed or iterated."""
        if matrix.ndim != 2 or matrix.dtype != np.float64 or matrix.flags.writeable:
            raise DatasetError("document rows need a read-only 2-D float64 matrix")
        if len(ids) != len(matrix) or not all(ids):
            raise DatasetError("document rows need one non-empty id per matrix row")
        if tokens is not None and (len(tokens) != len(ids)
                                   or any(t is not None and not t for t in tokens)):
            raise DatasetError("document rows need one non-empty token tuple or None per row")
        base = RowSpace(list(ids), matrix, None if tokens is None else list(tokens))
        return GroupDocs(base, np.arange(len(ids)), matrix)

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


class RowSpace:
    """Rows of documents: per row an id, a row of the read-only 2-D float64
    ``matrix`` and a token tuple or None (all None when ``tokens`` is None),
    and in ``docs`` the row's document once made.  A dataset built from
    records or by ``synth_retrieval`` keeps its feature pools in one."""

    __slots__ = ("ids", "matrix", "tokens", "docs")

    def __init__(self, ids, matrix, tokens=None):
        self.ids, self.matrix, self.tokens = ids, matrix, tokens
        self.docs = [None] * len(ids)

    def doc(self, row) -> Document:
        """The document of ``row``, made on first use as a view of its row."""
        doc = self.docs[row]
        if doc is None:
            doc = self.docs[row] = object.__new__(Document)
            object.__setattr__(doc, "id", self.ids[row])
            object.__setattr__(doc, "features", self.matrix[row])
            object.__setattr__(doc, "tokens", None if self.tokens is None else self.tokens[row])
        return doc


class GroupDocs(Sequence):
    """Documents of one query group as ``positions`` in a row space ``base``.

    ``len``, ``take``, ``join`` and ``features`` read positions and rows
    only; a document is made when the group is indexed or iterated, once per
    row of ``base``, so ``g[i] is g[i]``.  ``features`` is
    ``base.matrix[positions]``: for a span of rows the read-only view
    ``span`` given, else a gathered copy.
    """

    __slots__ = ("base", "positions", "_span")

    def __init__(self, base: RowSpace, positions: np.ndarray, span=None):
        self.base, self.positions, self._span = base, positions, span

    @property
    def features(self) -> np.ndarray:
        return self.base.matrix[self.positions] if self._span is None else self._span

    def ids(self) -> list[str]:
        return list(map(self.base.ids.__getitem__, self.positions.tolist()))

    def __len__(self):
        return len(self.positions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            span = self._span[i] if self._span is not None and i.step in (None, 1) else None
            return GroupDocs(self.base, self.positions[i], span)
        return self.base.doc(self.positions[i])

    def __iter__(self):
        return map(self.base.doc, self.positions.tolist())

    def __eq__(self, other):
        if not isinstance(other, (tuple, GroupDocs)):
            return NotImplemented
        return tuple(self) == tuple(other)


def take(docs: Sequence[Document], idx) -> Sequence[Document]:
    """``docs[i]`` for each i in ``idx``, as a tuple, or for a group as
    positions in the group's row space."""
    if not isinstance(docs, GroupDocs):
        return tuple([docs[i] for i in idx])
    return GroupDocs(docs.base, docs.positions[idx])


def join(seqs: Sequence[Sequence[Document]]) -> Sequence[Document]:
    """The documents of ``seqs``, in order, as one sequence: positions in
    their row space when all are groups of one, else a plain list."""
    if len(seqs) == 1:
        return seqs[0]
    try:
        (base,) = {s.base for s in seqs}
    except (AttributeError, ValueError):
        return [d for s in seqs for d in s]
    return GroupDocs(base, np.concatenate([s.positions for s in seqs]))


@dataclass(frozen=True, eq=False)
class QueryGroup:
    """One query's closed candidate pool, split by relevance in pool order.

    ``grades[i]`` is the grade of ``pool[i]`` (0 when unjudged, read only);
    ``positives`` are the pool documents with grade > 0 and ``negatives``
    those with grade <= 0.
    """

    query: Query
    pool: Sequence[Document]
    grades: np.ndarray
    positives: Sequence[Document]
    negatives: Sequence[Document]

    @property
    def features(self) -> np.ndarray | None:
        """The pool's read-only feature rows; None unless every document has features."""
        return getattr(self.pool, "features", None)


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

    def pool(self, query_id: QueryId) -> Sequence[Document]:
        return self.group(query_id).pool

    def relevance_map(self, query_id: QueryId) -> dict[str, int]:
        """The query's judgments by document id, grade-0 judgments included."""
        self.group(query_id)  # raise on unknown query
        return {j.doc: j.relevance for j in self.judgments if j.query == query_id}

    def positives(self, query_id: QueryId) -> Sequence[Document]:
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
    dimensionality.  No given document is changed.  A pool that is a span of
    a read-only row space (``Document.rows`` or a slice of it) in id order is
    kept as it is; every other pool whose documents all have features is
    stacked into one new read-only matrix, the row space of the dataset's
    other feature pools.  Any other pool is the tuple of its documents, one
    tuple for pools given as one object.
    """
    kind = DatasetKind(kind)
    if not pools:
        raise DatasetError("dataset has no queries")
    query_tokens = dict(query_tokens or {})

    sorted_pools: dict[QueryId, tuple[list[str], Sequence[Document]]] = {}
    stacked, shared = [], {}
    feature_dim: int | None = None
    for qid in sorted(pools):
        pool = pools[qid]
        span = (isinstance(pool, GroupDocs) and pool._span is not None
                and not pool._span.flags.writeable)
        ids = pool.ids() if span else None
        if not span or not all(map(lt, ids, ids[1:])):
            span, pool = False, sorted(pool, key=attrgetter("id"))
            ids = [d.id for d in pool]
        if not ids:
            raise EmptyPoolError(f"query {qid!r} has an empty pool")
        if not all(map(lt, ids, ids[1:])):
            twice = next(a for a, b in zip(ids, ids[1:]) if not a < b)
            raise DatasetError(f"query {qid!r} pool lists document {twice!r} twice")
        # Every row of a span has its width, so its first document stands for all.
        widths = ([(ids[0], pool.features.shape[1])] if span else
                  [(d.id, len(d.features)) for d in pool if d.features is not None])
        for doc_id, width in widths:
            if width != feature_dim:
                if feature_dim is not None:
                    raise FeatureDimensionError(
                        f"document {doc_id!r} has {width} features, expected {feature_dim}")
                feature_dim = width
        if not span and len(widths) == len(pool):
            stacked.append(qid)
        elif not span:
            pool = shared.setdefault(id(pools[qid]), tuple(pool))
        sorted_pools[qid] = ids, pool
    if stacked:
        docs = [d for qid in stacked for d in sorted_pools[qid][1]]
        matrix = np.array([d.features for d in docs])
        matrix.flags.writeable = False
        rows = Document.rows([d.id for d in docs], matrix, [d.tokens for d in docs])
        start = 0
        for qid in stacked:
            ids = sorted_pools[qid][0]
            sorted_pools[qid], start = (ids, rows[start:start + len(ids)]), start + len(ids)

    relevance: dict[QueryId, dict[str, tuple[int, int]]] = {}
    ordered: list[Judgment] = []
    for j in sorted(judgments, key=lambda j: (j.query, j.doc)):
        if j.query not in sorted_pools:
            raise UnknownQueryError(f"judgment references unknown query {j.query!r}")
        per_query = relevance.setdefault(j.query, {})
        if j.doc in per_query:
            raise DuplicateJudgmentError(
                f"duplicate judgment for query {j.query!r}, doc {j.doc!r}"
            )
        ids = sorted_pools[j.query][0]
        row = bisect_left(ids, j.doc)
        if row == len(ids) or ids[row] != j.doc:
            raise JudgedDocNotInPoolError(
                f"judged doc {j.doc!r} missing from pool of query {j.query!r}"
            )
        per_query[j.doc] = row, j.relevance
        ordered.append(j)

    groups = {}
    for qid, (ids, pool) in sorted_pools.items():
        grades = np.zeros(len(ids), dtype=np.int64)
        for row, grade in relevance.get(qid, {}).values():
            grades[row] = grade
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
) -> Sequence[Document]:
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
