"""Parameterized scoring functions f(d, q) with exact analytic gradients.

Four scorer kinds cover the three task families:

* ``linear``  -- w . x + b over joint query-document features (LETOR style).
* ``mlp1``    -- one tanh hidden layer with scalar output; tanh keeps scores
  bounded, which matters because downstream rewards pass through a sigmoid.
* ``matfac``  -- matrix factorization u_q . v_d + b_d with a per-item bias
  (without the bias, hardest-negative sampling degenerates on cold items).
* ``text``    -- mean token embeddings of query and document combined through
  a bilinear form, a lightweight stand-in for convolutional text encoders.

Each kind defines one kernel pair (see ``Scorer``): ``forward``, a pure
function of (params, input), and ``backward``, which adds a gradient into a
buffer the caller owns.  Two more kernels read a forward's per-document
gradients without stacking them: ``jvp`` projects each onto a parameter
vector and ``grad_sq_norms`` gives their squared norms.  Training code
mutates ``scorer.params.values`` in place, which the segment views a scorer
binds at construction see; ``clone()`` hands out an independent copy.

The discriminator map is ``sigmoid(f)``.  Scores are clamped to [-30, 30]
inside the sigmoid so probabilities never reach exact 0 or 1; the same clamp
is applied everywhere a sigmoid is taken.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import Document, GroupDocs, Query
from ._util import atomic_write

SIGMOID_CLAMP = 30.0


class RepresentationError(ValueError):
    """Document or query representation does not match the scorer kind."""


class CheckpointError(ValueError):
    pass


class NumericError(RuntimeError):
    """Scores or parameters left the finite range."""


def sigmoid(x):
    """Clamped logistic function; never underflows to 0 or saturates to 1."""
    # np.minimum(np.maximum(...)) is np.clip's value without its wrapper calls.
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -SIGMOID_CLAMP), SIGMOID_CLAMP)))


def log_sigmoid(x):
    """log(sigmoid(x)) computed as -softplus(-x); stable for any magnitude."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def softplus(x):
    """log(1 + exp(x)) without overflow; equals x + log1p(exp(-x)) for large x."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class Layout:
    """Named contiguous segments of a flat parameter vector."""

    segments: tuple[tuple[str, int, int], ...]  # (name, offset, length)

    @property
    def size(self) -> int:
        return sum(length for _, _, length in self.segments)

    def slice_of(self, name: str) -> slice:
        for seg_name, offset, length in self.segments:
            if seg_name == name:
                return slice(offset, offset + length)
        raise KeyError(name)


@dataclass
class ParamVector:
    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.shape[0] != self.layout.size:
            raise ValueError(
                f"parameter vector has {self.values.shape[0]} entries, "
                f"layout expects {self.layout.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter vector contains non-finite entries")

    def segment(self, name: str) -> np.ndarray:
        return self.values[self.layout.slice_of(name)]

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)


def _layout(*segments: tuple[str, int]) -> Layout:
    out, offset = [], 0
    for name, length in segments:
        out.append((name, offset, length))
        offset += length
    return Layout(tuple(out))


def layout_for(kind: str, dims: Mapping) -> Layout:
    if kind == "linear":
        return _layout(("w", dims["feature_dim"]), ("b", 1))
    if kind == "mlp1":
        d, h = dims["feature_dim"], dims["hidden"]
        return _layout(("hidden_w", h * d), ("hidden_b", h), ("out_w", h), ("out_b", 1))
    if kind == "matfac":
        nq = len(dims["query_ids"])
        nd = len(dims["doc_ids"])
        k = dims["embed_dim"]
        return _layout(("query_embed", nq * k), ("doc_embed", nd * k), ("doc_bias", nd))
    if kind == "text":
        v, k = dims["vocab_size"], dims["embed_dim"]
        return _layout(("embed", v * k), ("bilinear", k * k))
    raise ValueError(f"unknown scorer kind {kind!r}")


def check_init_scale(scale: float) -> None:
    """An initialization scale is a positive finite number."""
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"init_scale must be a positive number, got {scale!r}")


def init_params(kind: str, dims: Mapping, scale: float, seed: int, *, zero: bool = False) -> ParamVector:
    """Draw parameters i.i.d. uniform in [-scale, scale] from a seeded stream.

    ``zero=True`` produces the all-zeros vector and ignores ``scale``.
    """
    layout = layout_for(kind, dims)
    if zero:
        return ParamVector(np.zeros(layout.size), layout)
    check_init_scale(scale)
    rng = np.random.default_rng(seed)
    return ParamVector(rng.uniform(-scale, scale, size=layout.size), layout)


class Forward(NamedTuple):
    """One forward pass over a list of documents: their scores, and in
    ``saved`` what the kind's ``backward`` needs: X for ``linear``, (X, H)
    for ``mlp1``, (query row, doc rows) for ``matfac``, and (query token ids,
    query mean, doc token ids, doc means) for ``text``.  It holds only at the
    parameters it was computed at, so no forward outlives an update."""

    scores: np.ndarray
    saved: tuple


class Scorer:
    """Base scoring function.  Each kind implements one kernel pair:

    ``forward(query, docs)`` returns a ``Forward`` with f(d, query) for every
    document, and ``backward(fwd, weights, out)`` adds sum_i weights[i] *
    grad f(docs[i], query) from that forward into ``out`` (a flat float64
    array of ``params.layout.size`` entries) in one vectorized pass and
    returns ``out``.  It writes only the entries the gradient can reach:
    ``text`` and ``matfac`` leave every table row their forward did not see
    untouched.  The pair is the workhorse for log-softmax gradients and
    discriminator updates, which need scores and a gradient at the same
    parameters from one forward.  ``score_many``, ``grad_weighted_sum``,
    ``score``, ``gradient`` and ``gradient_matrix`` are views of that pair.

    ``jvp(fwd, v)`` gives grad f(docs[i], query) . v and ``grad_sq_norms(fwd)``
    ||grad f(docs[i], query)||^2 for every document of a forward; the base
    class runs one ``backward`` per document into one reused buffer.
    ``uses_query`` is False for kinds that score joint query-document
    features and ignore the query argument; batch updates may then lump
    documents across queries.
    """

    kind: str
    uses_query = True

    def __init__(self, params: ParamVector):
        self.params = params

    # -- kernels ---------------------------------------------------------
    def forward(self, query: Query | None, docs: Sequence[Document]) -> Forward:
        raise NotImplementedError

    def backward(self, fwd: Forward, weights, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jvp(self, fwd: Forward, v: np.ndarray) -> np.ndarray:
        return np.array([row @ v for row in self._gradient_rows(fwd)])

    def grad_sq_norms(self, fwd: Forward) -> np.ndarray:
        return np.array([row @ row for row in self._gradient_rows(fwd)])

    def _gradient_rows(self, fwd: Forward):
        """Each document's gradient in turn, from a one-hot ``backward`` into
        one buffer that the next row overwrites."""
        out, onehot = np.empty(self.params.layout.size), np.zeros(len(fwd.scores))
        for i in range(len(onehot)):
            out[:] = 0.0
            onehot[i - 1], onehot[i] = 0.0, 1.0
            yield self.backward(fwd, onehot, out)

    def score_many(self, query: Query | None, docs: Sequence[Document]) -> np.ndarray:
        return self.forward(query, docs).scores

    def grad_weighted_sum(self, query, docs, weights) -> np.ndarray:
        return self.backward(self.forward(query, docs), weights,
                             np.zeros(self.params.layout.size))

    def score(self, query: Query | None, doc: Document) -> float:
        return float(self.score_many(query, [doc])[0])

    def gradient(self, query: Query | None, doc: Document) -> np.ndarray:
        return self.grad_weighted_sum(query, [doc], np.ones(1))

    def gradient_matrix(self, query, docs) -> np.ndarray:
        """Stacked per-document gradients, shape (len(docs), n_params), in a
        new array the caller may overwrite."""
        return np.stack([self.gradient(query, d) for d in docs])

    # -- bookkeeping -----------------------------------------------------
    @property
    def dims(self) -> dict:
        raise NotImplementedError

    def clone(self) -> "Scorer":
        return build_scorer(self.kind, self.dims, self.params.copy())

    def checksum(self) -> bytes:
        import hashlib

        return hashlib.sha1(self.params.values.tobytes()).digest()


def _feature_matrix(docs: Sequence[Document], kind: str) -> np.ndarray:
    """Document features as rows, shape (len(docs), feature_dim)."""
    if isinstance(docs, GroupDocs):
        return docs.features
    for doc in docs:
        if doc.features is None:
            raise RepresentationError(f"{kind} scorer needs features; doc {doc.id!r} has none")
    return np.array([doc.features for doc in docs])


class LinearScorer(Scorer):
    kind = "linear"
    uses_query = False

    def __init__(self, params: ParamVector):
        super().__init__(params)
        self._w = params.segment("w")
        self._b = params.segment("b")

    @property
    def dims(self):
        return {"feature_dim": len(self._w)}

    def forward(self, query, docs):
        X = _feature_matrix(docs, self.kind)
        return Forward(X @ self._w + self._b[0], (X,))

    def backward(self, fwd, weights, out):
        (X,) = fwd.saved
        w = np.asarray(weights, dtype=np.float64)
        d = len(self._w)
        out[:d] += X.T @ w
        out[d] += w.sum()
        return out

    def jvp(self, fwd, v):
        (X,) = fwd.saved
        return X @ v[:-1] + v[-1]

    def grad_sq_norms(self, fwd):
        (X,) = fwd.saved
        return np.einsum("nd,nd->n", X, X) + 1.0

    def gradient_matrix(self, query, docs):
        X = _feature_matrix(docs, self.kind)
        return np.hstack([X, np.ones((len(docs), 1))])


class Mlp1Scorer(Scorer):
    """f = out_w . tanh(hidden_w x + hidden_b) + out_b."""

    kind = "mlp1"
    uses_query = False

    def __init__(self, params: ParamVector):
        super().__init__(params)
        self._hidden_b = params.segment("hidden_b")
        self._hidden_w = params.segment("hidden_w").reshape(len(self._hidden_b), -1)
        self._out_w = params.segment("out_w")
        self._out_b = params.segment("out_b")

    @property
    def dims(self):
        return {"feature_dim": self._hidden_w.shape[1], "hidden": len(self._hidden_b)}

    def forward(self, query, docs):
        X = _feature_matrix(docs, self.kind)
        H = X @ self._hidden_w.T
        H += self._hidden_b
        np.tanh(H, out=H)
        return Forward(H @ self._out_w + self._out_b[0], (X, H))

    def backward(self, fwd, weights, out):
        X, H = fwd.saved
        w = np.asarray(weights, dtype=np.float64)
        aw = self._pre_activation_grads(H)
        aw *= w[:, None]
        hd, h = self._hidden_w.size, len(self._hidden_b)
        out[:hd] += (aw.T @ X).ravel()
        out[hd:hd + h] += aw.sum(axis=0)
        out[hd + h:hd + 2 * h] += H.T @ w
        out[-1] += w.sum()
        return out

    def _pre_activation_grads(self, H):
        """A = (1 - H^2) * out_w, d f / d(hidden pre-activation) per document,
        with the bits of that expression and no temporary beside A."""
        A = H * H
        np.subtract(1.0, A, out=A)
        A *= self._out_w
        return A

    # A row's gradient is (a x, a, h, 1) in layout order.
    def jvp(self, fwd, v):
        X, H = fwd.saved
        A = self._pre_activation_grads(H)
        hd, h = self._hidden_w.size, len(self._hidden_b)
        projected = X @ v[:hd].reshape(h, -1).T
        projected *= A
        return projected.sum(axis=1) + A @ v[hd:hd + h] + H @ v[hd + h:hd + 2 * h] + v[-1]

    def grad_sq_norms(self, fwd):
        X, H = fwd.saved
        A = self._pre_activation_grads(H)
        a2 = np.einsum("nh,nh->n", A, A)
        return a2 * np.einsum("nd,nd->n", X, X) + a2 + np.einsum("nh,nh->n", H, H) + 1.0

    def gradient_matrix(self, query, docs):
        # Each block is written into one preallocated matrix, in layout order.
        X, H = self.forward(query, docs).saved
        A = self._pre_activation_grads(H)
        (n, h), d = A.shape, X.shape[1]
        out = np.empty((n, h * d + 2 * h + 1))
        np.einsum("nh,nd->nhd", A, X, out=out[:, :h * d].reshape(n, h, d))
        out[:, h * d:h * d + h] = A
        out[:, h * d + h:-1] = H
        out[:, -1] = 1.0
        return out


class MatFacScorer(Scorer):
    """f = u_query . v_doc + bias_doc over id-indexed embedding tables."""

    kind = "matfac"

    def __init__(self, params: ParamVector, query_ids: Sequence[str], doc_ids: Sequence[str]):
        super().__init__(params)
        self.query_ids = tuple(query_ids)
        self.doc_ids = tuple(doc_ids)
        self._q_index = {q: i for i, q in enumerate(self.query_ids)}
        self._d_index = {d: i for i, d in enumerate(self.doc_ids)}
        self._query_embed = params.segment("query_embed").reshape(len(self.query_ids), -1)
        self._doc_embed = params.segment("doc_embed").reshape(len(self.doc_ids), -1)
        self._doc_bias = params.segment("doc_bias")

    @property
    def dims(self):
        return {
            "query_ids": self.query_ids,
            "doc_ids": self.doc_ids,
            "embed_dim": self._query_embed.shape[1],
        }

    def forward(self, query, docs):
        if query is None or query.id not in self._q_index:
            qid = None if query is None else query.id
            raise RepresentationError(f"query {qid!r} not in factorization vocabulary")
        qi = self._q_index[query.id]
        try:
            rows = np.array([self._d_index[doc.id] for doc in docs])  # doc-table rows
        except KeyError as exc:
            raise RepresentationError(
                f"doc {exc.args[0]!r} not in factorization vocabulary") from None
        scores = self._doc_embed[rows] @ self._query_embed[qi] + self._doc_bias[rows]
        return Forward(scores, (qi, rows))

    def backward(self, fwd, weights, out):
        qi, rows = fwd.saved
        w = np.asarray(weights, dtype=np.float64)
        (nq, k), nd = self._query_embed.shape, len(self._doc_bias)
        out[qi * k:(qi + 1) * k] += self._doc_embed[rows].T @ w
        each = np.arange(len(rows))
        _add_rows(out[nq * k:(nq + nd) * k].reshape(nd, k), rows,
                  np.outer(w, self._query_embed[qi]), each)
        _add_rows(out[(nq + nd) * k:], rows, w, each)
        return out

    # A row's gradient holds v_doc in the query's row, u_query in the doc's
    # row and 1 at the doc's bias.
    def jvp(self, fwd, v):
        qi, rows = fwd.saved
        (nq, k), nd = self._query_embed.shape, len(self._doc_bias)
        return (self._doc_embed[rows] @ v[qi * k:(qi + 1) * k]
                + v[nq * k:(nq + nd) * k].reshape(nd, k)[rows] @ self._query_embed[qi]
                + v[(nq + nd) * k:][rows])

    def grad_sq_norms(self, fwd):
        qi, rows = fwd.saved
        u = self._query_embed[qi]
        return np.einsum("nk,nk->n", self._doc_embed[rows], self._doc_embed[rows]) + u @ u + 1.0


class TextAvgEmbedScorer(Scorer):
    """Bilinear similarity of mean token embeddings: mean(E[q]) . M . mean(E[d])."""

    kind = "text"

    def __init__(self, params: ParamVector, vocab_size: int):
        super().__init__(params)
        self.vocab_size = vocab_size
        self._embed = params.segment("embed").reshape(vocab_size, -1)
        self._bilinear = params.segment("bilinear").reshape(self._embed.shape[1], -1)

    @property
    def dims(self):
        return {"vocab_size": self.vocab_size, "embed_dim": self._embed.shape[1]}

    def _token_ids(self, tokens, who) -> np.ndarray:
        if tokens is None or len(tokens) == 0:
            raise RepresentationError(f"text scorer needs tokens; {who} has none")
        idx = np.asarray(tokens)
        if idx.min() < 0 or idx.max() >= self.vocab_size:
            raise RepresentationError(f"{who} has token id outside vocabulary")
        return idx

    def _pool_token_ids(self, docs) -> tuple[np.ndarray, list[int]]:
        """Every document's token ids in one array, range-checked once, and
        each document's token count.  When a document has no tokens or an id
        is out of range, the per-document check names the first at fault."""
        tokens = [d.tokens for d in docs]
        lengths = [0 if t is None else len(t) for t in tokens]
        flat = [t for toks in tokens if toks is not None for t in toks]
        ids = np.array(flat) if flat else np.empty(0, np.intp)
        if 0 in lengths or (len(ids) and (ids.min() < 0 or ids.max() >= self.vocab_size)):
            for d in docs:
                self._token_ids(d.tokens, f"doc {d.id!r}")
        return ids, lengths

    def forward(self, query, docs):
        if query is None:
            raise RepresentationError("text scorer needs a query with tokens")
        q_idx = self._token_ids(query.tokens, f"query {query.id!r}")
        ids, lengths = self._pool_token_ids(docs)
        eq = self._embed[q_idx].mean(axis=0)
        # Each document's mean is its rows' sum along axis 0 over its count,
        # the bits of ``.mean(axis=0)``, taken from one gather of every row.
        rows = self._embed[ids]
        eds = np.empty((len(lengths), rows.shape[1]))
        d_ids, start = [], 0
        for i, n in enumerate(lengths):
            d_ids.append(ids[start:start + n])
            np.add.reduce(rows[start:start + n], axis=0, out=eds[i])
            start += n
        eds /= np.array(lengths, dtype=np.float64)[:, None]
        lhs = self._bilinear.T @ eq
        return Forward(np.array([ed @ lhs for ed in eds]), (q_idx, eq, d_ids, eds))

    def backward(self, fwd, weights, out):
        q_idx, eq, d_ids, eds = fwd.saved
        M = self._bilinear
        w = np.asarray(weights, dtype=np.float64)
        v, k = self._embed.shape
        ed_weighted = eds.T @ w  # sum_i w_i ed_i
        # Each query token receives (M sum_i w_i ed_i) / len(q) (row 0 of
        # ``rows``), then each token of doc i receives w_i M^T eq / len(d_i)
        # (row i + 1).
        lengths = [len(q_idx)] + [len(idx) for idx in d_ids]
        rows = np.vstack([(M @ ed_weighted) / len(q_idx),
                          (w[:, None] * (M.T @ eq)) / np.array(lengths[1:])[:, None]])
        _add_rows(out[:v * k].reshape(v, k), np.concatenate([q_idx, *d_ids]),
                  rows, np.repeat(np.arange(len(rows)), lengths))
        out[v * k:] += np.outer(eq, ed_weighted).ravel()
        return out


_ROW_CHUNK = 128


def _add_rows(table, ids, values, which) -> None:
    """``table[ids[j]] += values[which[j]]`` for each j, writing only the
    rows in ``ids``, with the bits of a dense ``np.add.at`` into zeros
    followed by ``table += dense``: each row's contributions are summed from
    +0.0 in order, then added to the row once.  The dense add's +0.0 on the
    other rows could only turn a -0.0 into +0.0, and a buffer summed from
    +0.0 holds none (round-to-nearest gives -0.0 only for -0.0 + -0.0).
    Layer j of the sums adds every row's j-th contribution at once; the sums
    go into ``table`` ``_ROW_CHUNK`` rows at a time, which bounds the copy
    that a fancy-indexed add gathers."""
    unique, inverse = np.unique(ids, return_inverse=True)
    order = np.argsort(inverse, kind="stable")  # each row's occurrences, in order
    counts = np.bincount(inverse)
    first = np.cumsum(counts) - counts
    local = values[which[order[first]]]
    local += 0.0  # 0.0 + c, as in the zeroed buffer: -0.0 becomes +0.0
    for j in range(1, counts.max()):
        rows = np.flatnonzero(counts > j)
        local[rows] += values[which[order[first[rows] + j]]]
    for start in range(0, len(unique), _ROW_CHUNK):
        part = slice(start, start + _ROW_CHUNK)
        table[unique[part]] += local[part]


def build_scorer(kind: str, dims: Mapping, params: ParamVector | None = None, *,
                 scale: float | None = None, seed: int | None = None,
                 zero: bool = False) -> Scorer:
    """Construct a scorer of the given kind; initialize params if not supplied.
    Supplied params must have exactly the layout that ``kind`` and ``dims`` give."""
    if params is None:
        params = init_params(kind, dims, scale if scale is not None else 0.1,
                             seed if seed is not None else 0, zero=zero)
    elif params.layout != (expected := layout_for(kind, dims)):
        raise ValueError(f"parameter layout {params.layout.segments} does not match "
                         f"the {kind} layout {expected.segments} of its dims")
    if kind == "linear":
        return LinearScorer(params)
    if kind == "mlp1":
        return Mlp1Scorer(params)
    if kind == "matfac":
        return MatFacScorer(params, dims["query_ids"], dims["doc_ids"])
    if kind == "text":
        return TextAvgEmbedScorer(params, dims["vocab_size"])
    raise ValueError(f"unknown scorer kind {kind!r}")


# -- checkpoints ----------------------------------------------------------
# Text format, version marker first:
#   line 1: "2"
#   line 2: JSON {"kind": ..., "dims": {...}}
#   then:   "segment <name> <offset> <length>" per layout segment
#   then:   "values" and one line of standard base64 (RFC 4648) of the
#           values' little-endian float64 bytes (version 1: one repr per line).

CHECKPOINT_VERSION = "2"
_CHECKPOINT_SLICE = 3 * 8192  # values per write: whole 24-byte groups, no padding mid-line
_CHECKPOINT_READ = 32 * 2048  # base64 characters decoded per read: whole values


def save_checkpoint(scorer: Scorer, path) -> None:
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_VERSION + "\n")
        fh.write(json.dumps({"kind": scorer.kind, "dims": scorer.dims}, sort_keys=True) + "\n")
        for name, offset, length in scorer.params.layout.segments:
            fh.write(f"segment {name} {offset} {length}\n")
        fh.write("values\n")
        values = scorer.params.values.astype("<f8", copy=False)
        for i in range(0, len(values), _CHECKPOINT_SLICE):
            fh.write(base64.b64encode(values[i:i + _CHECKPOINT_SLICE].tobytes()).decode("ascii"))
        fh.write("\n")


def _read_base64_values(fh, size: int) -> np.ndarray:
    """The version-2 values line, decoded ``_CHECKPOINT_READ`` characters at
    a time into one preallocated array."""
    raw, filled, padded, chunk = np.empty(8 * size, np.uint8), 0, False, ""
    while not chunk.endswith("\n") and (chunk := fh.readline(_CHECKPOINT_READ)):
        data = base64.b64decode(chunk.rstrip("\n"), validate=True)
        if padded and data:
            raise ValueError("base64 padding before the end of the values line")
        if filled + len(data) > raw.size:
            raise ValueError(f"values line decodes to more than 8 x {size} bytes")
        raw[filled:filled + len(data)] = np.frombuffer(data, np.uint8)
        filled, padded = filled + len(data), chunk.endswith("=")
    if filled != raw.size:
        raise ValueError(f"values line decodes to {filled} bytes, not 8 x {size}")
    return raw.view("<f8")


def load_checkpoint(path) -> Scorer:
    """Read a checkpoint written by ``save_checkpoint``, or a version-1 file.
    The values are read as a stream from the open file, so no string of them
    all is kept.  A file that is not UTF-8 or of another version, a truncated
    file, a malformed line, too few or too many values, or segments and values
    that disagree with the header's kind and dims raise ``CheckpointError``
    naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            version = fh.readline().rstrip("\n")
            if version not in ("1", "2"):
                raise ValueError(f"unsupported version {version!r}; versions read: 1, 2")
            header = fh.readline()
            if not header:
                raise ValueError("missing header line")
            meta = json.loads(header)
            segments, lineno = [], 3
            line = fh.readline()
            while line.startswith("segment "):
                fields = line.split()
                if len(fields) != 4:
                    raise ValueError(f"line {lineno} is not 'segment <name> <offset> <length>'")
                segments.append((fields[1], int(fields[2]), int(fields[3])))
                line, lineno = fh.readline(), lineno + 1
            if line.rstrip("\n") != "values":
                raise ValueError("missing values block")
            layout = Layout(tuple(segments))
            size = max(layout.size, 0)
            values = (np.fromiter(map(float, fh), np.float64, count=size) if version == "1"
                      else _read_base64_values(fh, size))
            if fh.readline():
                raise ValueError(f"a line follows the layout's {layout.size} values")
            params = ParamVector(values, layout)
            return build_scorer(meta["kind"], meta["dims"], params)
        except KeyError as exc:
            raise CheckpointError(f"malformed checkpoint {path}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint {path}: {exc}") from None
