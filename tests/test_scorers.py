"""Scorer kernels against hand values and the finite-difference oracle."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranklab.core import Document, Query
from ranklab.scorers import (
    CheckpointError,
    Layout,
    LinearScorer,
    ParamVector,
    RepresentationError,
    build_scorer,
    init_params,
    layout_for,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
)

from conftest import fd_gradient, rel_error


def random_doc(rng, dim, prefix="d", i=0):
    return Document(id=f"{prefix}{i}", features=rng.normal(size=dim))


def random_token_doc(rng, vocab, i=0, max_len=5):
    length = int(rng.integers(1, max_len + 1))
    return Document(id=f"t{i}", tokens=tuple(int(t) for t in rng.integers(0, vocab, size=length)))


def make_kind(kind, rng, seed):
    """(scorer, query, doc) triple with random params and inputs."""
    if kind == "linear":
        scorer = build_scorer("linear", {"feature_dim": 6}, scale=0.5, seed=seed)
        return scorer, None, random_doc(rng, 6)
    if kind == "mlp1":
        scorer = build_scorer("mlp1", {"feature_dim": 5, "hidden": 4}, scale=0.5, seed=seed)
        return scorer, None, random_doc(rng, 5)
    if kind == "matfac":
        dims = {"query_ids": ("u1", "u2", "u3"), "doc_ids": ("i1", "i2", "i3", "i4"),
                "embed_dim": 3}
        scorer = build_scorer("matfac", dims, scale=0.5, seed=seed)
        q = Query(id=f"u{int(rng.integers(1, 4))}")
        d = Document(id=f"i{int(rng.integers(1, 5))}", tokens=(0,))
        return scorer, q, d
    if kind == "text":
        scorer = build_scorer("text", {"vocab_size": 7, "embed_dim": 3}, scale=0.5, seed=seed)
        q = Query(id="q", tokens=tuple(int(t) for t in rng.integers(0, 7, size=3)))
        return scorer, q, random_token_doc(rng, 7, i=0)
    raise ValueError(kind)


ALL_KINDS = ("linear", "mlp1", "matfac", "text")


def reference_score(scorer, q, d):
    """f(d, q) from each kind's defining formula, one document at a time:
    w.x + b, out_w.tanh(W x + b1) + out_b, u_q.v_d + b_d and
    mean(E[q]) M mean(E[d])."""
    p, dims = scorer.params, scorer.dims
    if scorer.kind == "linear":
        return float(p.segment("w") @ d.features + p.segment("b")[0])
    if scorer.kind == "mlp1":
        W1 = p.segment("hidden_w").reshape(dims["hidden"], dims["feature_dim"])
        h = np.tanh(W1 @ d.features + p.segment("hidden_b"))
        return float(p.segment("out_w") @ h + p.segment("out_b")[0])
    if scorer.kind == "matfac":
        k = dims["embed_dim"]
        qi, di = dims["query_ids"].index(q.id), dims["doc_ids"].index(d.id)
        u = p.segment("query_embed").reshape(-1, k)[qi]
        v = p.segment("doc_embed").reshape(-1, k)[di]
        return float(u @ v + p.segment("doc_bias")[di])
    k = dims["embed_dim"]
    E = p.segment("embed").reshape(-1, k)
    M = p.segment("bilinear").reshape(k, k)
    return float(E[list(q.tokens)].mean(axis=0) @ M @ E[list(d.tokens)].mean(axis=0))


def reference_gradient(scorer, q, d):
    """grad f(d, q) written out by hand per kind, one document at a time."""
    p, dims = scorer.params, scorer.dims
    grad = {name: np.zeros(length) for name, _, length in p.layout.segments}
    if scorer.kind == "linear":
        grad["w"][:] = d.features
        grad["b"][0] = 1.0
    elif scorer.kind == "mlp1":
        W1 = p.segment("hidden_w").reshape(dims["hidden"], dims["feature_dim"])
        h = np.tanh(W1 @ d.features + p.segment("hidden_b"))
        a = p.segment("out_w") * (1.0 - h ** 2)
        grad["hidden_w"][:] = np.outer(a, d.features).ravel()
        grad["hidden_b"][:] = a
        grad["out_w"][:] = h
        grad["out_b"][0] = 1.0
    elif scorer.kind == "matfac":
        k = dims["embed_dim"]
        qi, di = dims["query_ids"].index(q.id), dims["doc_ids"].index(d.id)
        qe = p.segment("query_embed").reshape(-1, k)
        de = p.segment("doc_embed").reshape(-1, k)
        grad["query_embed"].reshape(-1, k)[qi] = de[di]
        grad["doc_embed"].reshape(-1, k)[di] = qe[qi]
        grad["doc_bias"][di] = 1.0
    else:
        k = dims["embed_dim"]
        E = p.segment("embed").reshape(-1, k)
        M = p.segment("bilinear").reshape(k, k)
        eq, ed = E[list(q.tokens)].mean(axis=0), E[list(d.tokens)].mean(axis=0)
        embed = grad["embed"].reshape(-1, k)
        for t in q.tokens:
            embed[t] += M @ ed / len(q.tokens)
        for t in d.tokens:
            embed[t] += M.T @ eq / len(d.tokens)
        grad["bilinear"][:] = np.outer(eq, ed).ravel()
    return np.concatenate([grad[name] for name, _, _ in p.layout.segments])


def edge_pool(kind, shape, rng, seed):
    """(scorer, query, docs, weights) for one edge shape of a kernel input."""
    scorer, q, d = make_kind(kind, rng, seed)
    other = make_kind(kind, rng, seed)[2]
    docs = {
        "single": [d],
        "repeated_doc": [d, other, d],
        "zero_weights": [d, other],
        "one_token": [Document("t1", tokens=(int(rng.integers(0, 7)),)), other],
        "repeated_token": [Document("t2", tokens=(2, 5, 2, 2)), d],
    }[shape]
    weights = np.zeros(len(docs)) if shape == "zero_weights" else rng.normal(size=len(docs))
    return scorer, q, docs, weights


EDGE_CASES = [(kind, shape) for kind in ALL_KINDS
              for shape in ("single", "repeated_doc", "zero_weights")]
EDGE_CASES += [("text", "one_token"), ("text", "repeated_token")]


class TestInitParams:
    def test_mlp1_layout_sizes(self):
        layout = layout_for("mlp1", {"feature_dim": 46, "hidden": 46})
        sizes = {name: length for name, _, length in layout.segments}
        assert sizes == {"hidden_w": 46 * 46, "hidden_b": 46, "out_w": 46, "out_b": 1}
        assert layout.size == 46 * 46 + 46 + 46 + 1

    def test_seed_determinism(self):
        a = init_params("linear", {"feature_dim": 8}, 0.3, seed=9)
        b = init_params("linear", {"feature_dim": 8}, 0.3, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_zero_init_flag(self):
        p = init_params("linear", {"feature_dim": 4}, 0.3, seed=0, zero=True)
        assert np.all(p.values == 0.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            init_params("linear", {"feature_dim": 4}, 0.0, seed=0)

    def test_within_scale(self):
        p = init_params("mlp1", {"feature_dim": 5, "hidden": 3}, 0.2, seed=1)
        assert np.all(np.abs(p.values) <= 0.2)


class TestScore:
    def test_linear_zero_params(self):
        scorer = build_scorer("linear", {"feature_dim": 3}, zero=True)
        assert scorer.score(None, Document("d", np.array([4.0, -1.0, 2.0]))) == 0.0

    def test_linear_unit_weight(self):
        params = ParamVector(np.array([1.0, 0.0, 0.0, 0.0]), layout_for("linear", {"feature_dim": 3}))
        scorer = LinearScorer(params)
        assert scorer.score(None, Document("d", np.array([2.0, 0.0, 0.0]))) == 2.0

    def test_matfac_hand_value(self):
        dims = {"query_ids": ("u",), "doc_ids": ("i",), "embed_dim": 2}
        values = np.array([1.0, 1.0, 1.0, 1.0, 0.5])  # u=(1,1), v=(1,1), bias=0.5
        scorer = build_scorer("matfac", dims, ParamVector(values, layout_for("matfac", dims)))
        assert scorer.score(Query("u"), Document("i", tokens=(0,))) == pytest.approx(2.5)

    def test_score_many_matches_score(self):
        rng = np.random.default_rng(0)
        for kind in ALL_KINDS:
            scorer, q, _ = make_kind(kind, rng, seed=3)
            docs = [make_kind(kind, rng, seed=3)[2] for _ in range(4)]
            batch = scorer.score_many(q, docs)
            singles = [reference_score(scorer, q, d) for d in docs]
            np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_representation_mismatch(self):
        scorer = build_scorer("linear", {"feature_dim": 3}, zero=True)
        with pytest.raises(RepresentationError):
            scorer.score(None, Document("d", tokens=(1, 2)))

    @pytest.mark.parametrize("kernel", ["score", "score_many", "grad_weighted_sum",
                                        "gradient_matrix", "forward"])
    def test_text_missing_query_rejected(self, kernel):
        scorer, _, d = make_kind("text", np.random.default_rng(1), seed=1)
        args = {"score": (d,), "score_many": ([d],), "grad_weighted_sum": ([d], [1.0]),
                "gradient_matrix": ([d],), "forward": ([d],)}[kernel]
        with pytest.raises(RepresentationError):
            getattr(scorer, kernel)(None, *args)


class TestScoreGradient:
    def test_linear_gradient_is_features_and_one(self):
        scorer = build_scorer("linear", {"feature_dim": 3}, scale=0.5, seed=2)
        x = np.array([1.0, -2.0, 0.5])
        grad = scorer.gradient(None, Document("d", x))
        np.testing.assert_allclose(grad, np.concatenate([x, [1.0]]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_finite_difference_check(self, kind):
        rng = np.random.default_rng(42)
        for trial in range(10):
            scorer, q, d = make_kind(kind, rng, seed=100 + trial)
            analytic = scorer.gradient(q, d)

            def f(values):
                fresh = build_scorer(kind, scorer.dims,
                                     ParamVector(values, scorer.params.layout))
                return fresh.score(q, d)

            numeric = fd_gradient(f, scorer.params.values)
            assert rel_error(analytic, numeric) < 1e-4

    def test_zero_init_mlp1_cuts_hidden_weight_gradient(self):
        scorer = build_scorer("mlp1", {"feature_dim": 4, "hidden": 3}, zero=True)
        grad = scorer.gradient(None, Document("d", np.ones(4)))
        layout = scorer.params.layout
        # tanh(0) = 0 and out_w = 0, so d f / d hidden_w = 0 and d f / d out_w = 0
        np.testing.assert_array_equal(grad[layout.slice_of("hidden_w")], 0.0)
        np.testing.assert_array_equal(grad[layout.slice_of("hidden_b")], 0.0)
        np.testing.assert_array_equal(grad[layout.slice_of("out_w")], 0.0)
        assert grad[layout.slice_of("out_b")][0] == 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_weighted_sum_matches_loop(self, kind):
        rng = np.random.default_rng(7)
        scorer, q, _ = make_kind(kind, rng, seed=5)
        docs = [make_kind(kind, rng, seed=5)[2] for _ in range(5)]
        weights = rng.normal(size=5)
        fast = scorer.grad_weighted_sum(q, docs, weights)
        slow = sum(w * reference_gradient(scorer, q, d) for w, d in zip(weights, docs))
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @settings(max_examples=60)
    @given(case=st.sampled_from(EDGE_CASES), seed=st.integers(0, 10_000))
    def test_kernels_match_reference_on_edge_shapes(self, case, seed):
        rng = np.random.default_rng(seed)
        scorer, q, docs, weights = edge_pool(*case, rng, seed)
        ref_scores = [reference_score(scorer, q, d) for d in docs]
        ref_grads = np.stack([reference_gradient(scorer, q, d) for d in docs])
        fwd = scorer.forward(q, docs)
        for scores in (scorer.score_many(q, docs), fwd.scores):
            np.testing.assert_allclose(scores, ref_scores, atol=1e-12)
        out = np.zeros(scorer.params.layout.size)
        assert scorer.backward(fwd, weights, out) is out
        for grad in (scorer.grad_weighted_sum(q, docs, weights), out):
            np.testing.assert_allclose(grad, weights @ ref_grads, atol=1e-10)
        np.testing.assert_allclose(scorer.gradient_matrix(q, docs), ref_grads, atol=1e-12)
        assert scorer.score(q, docs[0]) == pytest.approx(ref_scores[0], abs=1e-12)
        np.testing.assert_allclose(scorer.gradient(q, docs[0]), ref_grads[0], atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gradient_matrix_rows(self, kind):
        rng = np.random.default_rng(8)
        scorer, q, _ = make_kind(kind, rng, seed=6)
        docs = [make_kind(kind, rng, seed=6)[2] for _ in range(3)]
        mat = scorer.gradient_matrix(q, docs)
        for row, d in zip(mat, docs):
            np.testing.assert_allclose(row, scorer.gradient(q, d), atol=1e-12)


class TestDiscriminatorProb:
    def test_zero_score_gives_half(self):
        scorer = build_scorer("linear", {"feature_dim": 2}, zero=True)
        assert float(sigmoid(scorer.score(None, Document("d", np.ones(2))))) == 0.5

    def test_log3_gives_three_quarters(self):
        # sigmoid(ln 3) = 3 / (3 + 1)
        params = ParamVector(np.array([0.0, 0.0, math.log(3.0)]),
                             layout_for("linear", {"feature_dim": 2}))
        scorer = LinearScorer(params)
        p = float(sigmoid(scorer.score(None, Document("d", np.zeros(2)))))
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_extreme_scores_stay_in_open_interval(self):
        params = ParamVector(np.array([0.0, -1000.0]), layout_for("linear", {"feature_dim": 1}))
        scorer = LinearScorer(params)
        p = float(sigmoid(scorer.score(None, Document("d", np.zeros(1)))))
        assert 0.0 < p < 1.0
        params.values[1] = 1000.0
        p = float(sigmoid(scorer.score(None, Document("d", np.zeros(1)))))
        assert 0.0 < p < 1.0

    def test_sigmoid_symmetry_by_parameter_negation(self):
        rng = np.random.default_rng(3)
        scorer = build_scorer("linear", {"feature_dim": 4}, scale=1.0, seed=12)
        negated = scorer.clone()
        negated.params.values *= -1.0
        for i in range(20):
            d = Document("d", rng.normal(size=4))
            total = sigmoid(scorer.score(None, d)) + sigmoid(negated.score(None, d))
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-500, max_value=500))
    def test_sigmoid_complement(self, x):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)


class TestPairwiseProb:
    def setup_method(self):
        self.scorer = build_scorer("linear", {"feature_dim": 2}, scale=1.0, seed=4)
        rng = np.random.default_rng(9)
        self.di = Document("di", rng.normal(size=2))
        self.dj = Document("dj", rng.normal(size=2))

    def test_same_doc_is_half(self):
        f = self.scorer.score(None, self.di)
        assert float(sigmoid(f - f)) == 0.5

    def test_log3_margin(self):
        params = ParamVector(np.array([1.0, 0.0]), layout_for("linear", {"feature_dim": 1}))
        scorer = LinearScorer(params)
        hi = Document("hi", np.array([math.log(3.0)]))
        lo = Document("lo", np.array([0.0]))
        p = sigmoid(scorer.score(None, hi) - scorer.score(None, lo))
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_swap_complements(self):
        fi, fj = self.scorer.score(None, self.di), self.scorer.score(None, self.dj)
        p, q = sigmoid(fi - fj), sigmoid(fj - fi)
        assert p + q == pytest.approx(1.0, abs=1e-12)


def bound_views(scorer):
    """The arrays a scorer holds that are views of its parameter vector."""
    return [v for v in vars(scorer).values()
            if isinstance(v, np.ndarray) and np.shares_memory(v, scorer.params.values)]


class TestSnapshots:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bound_views_see_updates_and_freeze_in_snapshots(self, kind):
        scorer, q, d = make_kind(kind, np.random.default_rng(13), seed=23)
        views = bound_views(scorer)
        assert len(views) == len(scorer.params.layout.segments)
        before = [v.copy() for v in views]
        scorer.params.values += 0.25
        for view, old in zip(views, before):
            np.testing.assert_array_equal(view, old + 0.25)
        assert scorer.score(q, d) == pytest.approx(reference_score(scorer, q, d), abs=1e-12)

    def test_clone_is_independent(self):
        scorer = build_scorer("linear", {"feature_dim": 2}, scale=0.1, seed=1)
        twin = scorer.clone()
        twin.params.values[0] += 1.0
        assert scorer.params.values[0] != twin.params.values[0]


def whole_file_load(path):
    """The checkpoint reader as it was before the values block was streamed:
    every line of the file read into a list of strings first."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines and lines[0] == "1"
    meta = json.loads(lines[1])
    segments, i = [], 2
    while lines[i].startswith("segment "):
        _, name, offset, length = lines[i].split()
        segments.append((name, int(offset), int(length)))
        i += 1
    assert lines[i] == "values"
    values = np.fromiter(map(float, lines[i + 1:]), np.float64, count=len(lines) - i - 1)
    return build_scorer(meta["kind"], meta["dims"], ParamVector(values, Layout(tuple(segments))))


class TestCheckpoints:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip(self, kind, tmp_path):
        rng = np.random.default_rng(11)
        scorer, q, d = make_kind(kind, rng, seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        loaded = load_checkpoint(path)
        assert loaded.kind == scorer.kind
        np.testing.assert_array_equal(loaded.params.values, scorer.params.values)
        assert loaded.score(q, d) == scorer.score(q, d)

    def test_version_marker_first(self, tmp_path):
        scorer = build_scorer("linear", {"feature_dim": 2}, scale=0.1, seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        assert path.read_text().splitlines()[0] == "1"

    def saved_lines(self, tmp_path, kind):
        scorer = make_kind(kind, np.random.default_rng(11), seed=21)[0]
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        return path, path.read_text().splitlines()

    def assert_rejected(self, path, lines):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "linear")
        lines[-2] = "0.1x"
        self.assert_rejected(path, lines)

    def test_values_match_per_value_repr(self, tmp_path):
        # 2 * 8192 + 101 values: the writer's slices end mid-file, and the
        # special values sit on both sides of a slice boundary.
        scorer = build_scorer("linear", {"feature_dim": 2 * 8192 + 100}, seed=3)
        values = scorer.params.values
        special = {8190: -0.0, 8191: 1e-300, 8192: 5e-324, 16383: 2.5e-310, 16384: -1.0}
        for i, v in special.items():
            values[i] = v
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        assert load_checkpoint(path).params.values.tobytes() == values.tobytes()
        assert whole_file_load(path).params.values.tobytes() == values.tobytes()
        values[[0, 8193, len(values) - 1]] = [float("nan"), float("inf"), float("-inf")]
        save_checkpoint(scorer, path)
        expected = ["1", json.dumps({"kind": "linear", "dims": scorer.dims}, sort_keys=True),
                    *(f"segment {n} {o} {k}" for n, o, k in scorer.params.layout.segments),
                    "values", *(repr(float(v)) for v in values)]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_extra_value_line_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "linear")
        self.assert_rejected(path, lines + ["0.5"])

    def test_missing_value_line_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "linear")
        self.assert_rejected(path, lines[:-1])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_stream_matches_whole_file_reader(self, kind, tmp_path):
        scorer = make_kind(kind, np.random.default_rng(11), seed=21)[0]
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        loaded, reference = load_checkpoint(path), whole_file_load(path)
        assert (loaded.kind, loaded.dims) == (reference.kind, reference.dims)
        assert loaded.params.values.tobytes() == reference.params.values.tobytes()

    def test_load_peak_stays_near_the_values(self, tmp_path):
        # The QA benchmark's text model: 2001 x 100 embeddings and a 100 x 100
        # bilinear form, 210,100 values.  Each value kept as a line string
        # would peak near 12x the values' bytes.
        scorer = build_scorer("text", {"vocab_size": 2001, "embed_dim": 100}, seed=7)
        path = tmp_path / "text.ckpt"
        save_checkpoint(scorer, path)
        load_checkpoint(path)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.params.values.tobytes() == scorer.params.values.tobytes()
        assert peak < 3 * scorer.params.values.nbytes, peak / scorer.params.values.nbytes

    def test_version_line_only_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "linear")
        self.assert_rejected(path, lines[:1])

    def test_short_segment_line_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "linear")
        assert lines[2].startswith("segment w ")
        lines[2] = lines[2].rsplit(" ", 1)[0]
        self.assert_rejected(path, lines)

    def test_swapped_mlp1_segment_names_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "mlp1")
        # hidden_b and out_w have the same length, so only the names differ.
        i, j = (lines.index(line) for line in lines
                if line.startswith(("segment hidden_b ", "segment out_w ")))
        name_i, name_j = lines[i].split()[1], lines[j].split()[1]
        lines[i] = lines[i].replace(name_i, name_j)
        lines[j] = lines[j].replace(name_j, name_i)
        self.assert_rejected(path, lines)

    def test_header_dims_disagreeing_with_segments_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "linear")
        assert '"feature_dim": 6' in lines[1]
        lines[1] = lines[1].replace('"feature_dim": 6', '"feature_dim": 5')
        self.assert_rejected(path, lines)
