"""Parsers, the LETOR round-trip, and the synthetic generator."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ranklab.core import DatasetError, DatasetKind, Document, Judgment, build_dataset
from ranklab.dataio import (
    ParseError,
    SyntheticSpec,
    Vocab,
    normalize_features_minmax,
    parse_interactions,
    parse_letor,
    parse_qa_pairs,
    serialize_letor,
    split_queries,
    synth_retrieval,
)
from ranklab.metrics import evaluate_model
from ranklab.scorers import LinearScorer, ParamVector, layout_for


class TestParseLetor:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("1 qid:10 1:0.5 2:0.1 # doc7\n0 qid:10 1:0.2 2:0.9 # doc8\n")
        ds = parse_letor(path)
        assert ds.query_ids() == ("10",)
        assert ds.relevance("10", "doc7") == 1
        doc = next(d for d in ds.pool("10") if d.id == "doc7")
        np.testing.assert_allclose(doc.features, [0.5, 0.1])

    def test_docid_comment_form(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("2 qid:3 1:1.0 #docid = GX000-00-0000000 inc = 1\n")
        ds = parse_letor(path)
        assert ds.relevance("3", "GX000-00-0000000") == 2

    def test_synthesized_doc_id(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0 qid:3 1:1.0\n")
        ds = parse_letor(path)
        assert [d.id for d in ds.pool("3")] == ["q3_line1"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DatasetError):
            parse_letor(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 qid:1 1:0.5 # a\nbogus line\n")
        with pytest.raises(ParseError, match=":2"):
            parse_letor(path)

    def test_noncontiguous_features_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 qid:1 1:0.5 3:0.2 # a\n")
        with pytest.raises(ParseError, match="contiguous"):
            parse_letor(path)

    def test_round_trip(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text(
            "2 qid:7 1:0.25 2:-1.5 # dA\n"
            "0 qid:7 1:0.125 2:3.0 # dB\n"
            "1 qid:2 1:0.1 2:0.2 # dC\n"
        )
        ds = parse_letor(src)
        out = tmp_path / "out.txt"
        serialize_letor(ds, out)
        assert parse_letor(out) == ds

    def test_featureless_doc_leaves_previous_file(self, tmp_path):
        pools = {"q1": [Document("a", features=np.ones(2)), Document("b", tokens=(1,))]}
        ds = build_dataset(pools, [Judgment("q1", "a", 1)], DatasetKind.WEB_SEARCH)
        out = tmp_path / "out.txt"
        out.write_text("previous\n")
        with pytest.raises(DatasetError):
            serialize_letor(ds, out)
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestParseInteractions:
    def test_threshold(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text("1\t50\t5\n1\t51\t3\n2\t50\t4\n")
        ds = parse_interactions(path)
        assert ds.kind == DatasetKind.RECOMMENDATION
        assert ds.relevance("1", "50") == 1
        assert ds.relevance("1", "51") == 0  # judged, below threshold
        assert ds.relevance("2", "50") == 1

    def test_full_catalog_pools(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text("1\t50\t5\n2\t60\t4\n")
        ds = parse_interactions(path)
        for user in ("1", "2"):
            assert [d.id for d in ds.pool(user)] == ["50", "60"]

    def test_items_are_single_token_docs(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text("1\t50\t5\n1\t60\t1\n")
        ds = parse_interactions(path)
        tokens = {d.id: d.tokens for d in ds.pool("1")}
        assert tokens == {"50": (0,), "60": (1,)}

    def test_non_numeric_rating(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text("1\t50\tfive\n")
        with pytest.raises(ParseError, match=":1"):
            parse_interactions(path)


class TestParseQaPairs:
    def write_records(self, tmp_path, records):
        import json

        path = tmp_path / "qa.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_basic(self, tmp_path):
        vocab = Vocab(["what", "is", "rain", "water", "dirt"])
        path = self.write_records(tmp_path, [
            {"question": ["what", "is", "rain"],
             "candidates": [["water"], ["dirt"]],
             "correct": [0]},
        ])
        parsed = parse_qa_pairs(path, vocab)
        ds = parsed.dataset
        assert parsed.unknown_tokens == 0
        assert ds.num_queries == 1
        q = ds.queries[0]
        assert q.tokens == (0, 1, 2)
        assert len(ds.pool(q.id)) == 2
        assert len([j for j in ds.judgments if j.relevance > 0]) == 1

    def test_unknown_tokens_counted(self, tmp_path):
        vocab = Vocab(["known"])
        path = self.write_records(tmp_path, [
            {"question": ["alien", "words"], "candidates": [["also", "alien"], [{"x": 1}, [2]]],
             "correct": [0]},
        ])
        parsed = parse_qa_pairs(path, vocab)
        assert parsed.unknown_tokens == 6
        q = parsed.dataset.queries[0]
        assert q.tokens == (vocab.unknown_id, vocab.unknown_id)

    def test_integer_tokens_pass_through(self, tmp_path):
        vocab = Vocab(["a", "b", "c"])
        path = self.write_records(tmp_path, [
            {"question": [0, 2], "candidates": [[1], [99]], "correct": [1]},
        ])
        parsed = parse_qa_pairs(path, vocab)
        assert parsed.unknown_tokens == 1  # 99 outside vocab

    def test_correct_index_out_of_range(self, tmp_path):
        vocab = Vocab(["a"])
        path = self.write_records(tmp_path, [
            {"question": [0], "candidates": [[0]], "correct": [5]},
        ])
        with pytest.raises(ParseError, match="out of range"):
            parse_qa_pairs(path, vocab)

    def test_missing_field(self, tmp_path):
        vocab = Vocab(["a"])
        path = self.write_records(tmp_path, [{"question": [0], "candidates": [[0]]}])
        with pytest.raises(ParseError, match="correct"):
            parse_qa_pairs(path, vocab)

    def test_raw_line_separator_inside_a_token(self, tmp_path):
        # A JSON string may hold a raw U+2028; only a newline ends a record.
        import json

        token = "a\u2028b"
        path = tmp_path / "qa.jsonl"
        path.write_text(json.dumps({"question": [token], "candidates": [["a"], [token]],
                                    "correct": [1]}, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        assert "\u2028" in path.read_text(encoding="utf-8")
        parsed = parse_qa_pairs(path, Vocab(["a", token]))
        assert parsed.unknown_tokens == 0
        assert parsed.dataset.queries[0].tokens == (1,)


class TestSynthRetrieval:
    def test_planted_separability(self):
        spec = SyntheticSpec(num_queries=6, pool_size=30, relevant_fraction=0.1,
                             feature_dim=5, noise_sigma=0.0, seed=4)
        dataset, truth = synth_retrieval(spec)
        params = ParamVector(np.concatenate([truth.weights, [0.0]]),
                             layout_for("linear", {"feature_dim": 5}))
        report = evaluate_model(LinearScorer(params), dataset, ("ndcg@5",))
        assert report.values["ndcg@5"] == 1.0

    def test_exact_relevant_count(self):
        spec = SyntheticSpec(num_queries=3, pool_size=200, relevant_fraction=0.005,
                             feature_dim=4, seed=0)
        dataset, _ = synth_retrieval(spec)
        for q in dataset.queries:
            assert len(dataset.positives(q.id)) == 1
        assert math.ceil(0.005 * 200) == 1

    def test_ceil_labeling(self):
        spec = SyntheticSpec(num_queries=2, pool_size=10, relevant_fraction=0.25,
                             feature_dim=3, seed=1)
        dataset, _ = synth_retrieval(spec)
        for q in dataset.queries:
            assert len(dataset.positives(q.id)) == math.ceil(0.25 * 10)

    def test_seed_determinism(self):
        spec = SyntheticSpec(num_queries=4, pool_size=15, relevant_fraction=0.2,
                             feature_dim=3, noise_sigma=0.5, seed=9)
        a, wa = synth_retrieval(spec)
        b, wb = synth_retrieval(spec)
        assert a == b
        np.testing.assert_array_equal(wa.weights, wb.weights)

    def test_invalid_spec(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(num_queries=0, pool_size=5, relevant_fraction=0.5, feature_dim=2)
        with pytest.raises(DatasetError):
            SyntheticSpec(num_queries=1, pool_size=5, relevant_fraction=0.0, feature_dim=2)

    def test_non_finite_noise_rejected(self):
        with pytest.raises(DatasetError, match="noise_sigma"):
            SyntheticSpec(num_queries=1, pool_size=5, relevant_fraction=0.5, feature_dim=2,
                          noise_sigma=math.inf)


class TestTransforms:
    def test_minmax_normalization(self, tiny_dataset):
        normalized = normalize_features_minmax(tiny_dataset)
        for q in normalized.queries:
            X = np.stack([d.features for d in normalized.pool(q.id)])
            assert X.min() >= 0.0 and X.max() <= 1.0

    def test_minmax_normalization_keeps_tokens_and_its_matrix(self):
        docs = [Document(i, np.array([k, 2.0 * k, 1.0]), tokens=(k + 1,))
                for k, i in enumerate(["d2", "d0", "d1"])]
        g = normalize_features_minmax(build_dataset({"q": docs}, [], "qa")).group("q")
        want = np.array([[0.5, 0.5, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])  # d0, d1, d2
        assert g.features.tobytes() == want.tobytes() and not g.features.flags.writeable
        assert [d.tokens for d in g.pool] == [(2,), (3,), (1,)]
        assert all(d.features.base is g.features for d in g.pool)

    def test_minmax_normalization_needs_features(self):
        docs = [Document("d0", np.array([1.0])), Document("d1", tokens=(1,))]
        dataset = build_dataset({"q": docs}, [Judgment("q", "d0", 1)], "qa")
        with pytest.raises(DatasetError, match="'q' has documents without features"):
            normalize_features_minmax(dataset)

    def test_split_queries_partition(self, planted_dataset):
        dataset, _ = planted_dataset
        train, held = split_queries(dataset, 0.25, seed=3)
        assert set(train.query_ids()) | set(held.query_ids()) == set(dataset.query_ids())
        assert set(train.query_ids()) & set(held.query_ids()) == set()
        assert held.num_queries == 3
        train2, held2 = split_queries(dataset, 0.25, seed=3)
        assert train2 == train and held2 == held


def rebuild_half(parent, keep):
    """Reference for one half of a split: the half rebuilt from raw records."""
    pools = {qid: list(parent.pool(qid)) for qid in keep}
    judgments = [j for j in parent.judgments if j.query in keep]
    tokens = {q.id: q.tokens for q in parent.queries
              if q.tokens is not None and q.id in keep}
    return build_dataset(pools, judgments, parent.kind, query_tokens=tokens)


# A query's pool: documents with features, with tokens, with both, or shared
# single-token catalog items; grades None (unjudged), 0, 1 or 2 each; and the
# label pattern forced to none relevant, all relevant, or free.
query_strategy = st.tuples(
    st.sampled_from(["features", "tokens", "mixed", "catalog"]),
    st.lists(st.sampled_from([None, 0, 1, 2]), min_size=1, max_size=5),
    st.sampled_from(["free", "none-relevant", "all-relevant"]),
    st.booleans(),
)
CATALOG = [Document(f"item{i}", tokens=(i,)) for i in range(5)]


def make_parent(specs):
    pools, judgments, query_tokens = {}, [], {}
    for qi, (mode, grades, labels, has_tokens) in enumerate(specs):
        qid = f"q{qi}"
        if labels == "none-relevant":
            grades = [None if g is None else 0 for g in grades]
        elif labels == "all-relevant":
            grades = [g or 1 for g in grades]
        docs = []
        for di in range(len(grades)):
            form = mode if mode != "mixed" else ("features", "tokens", "both")[di % 3]
            if form == "catalog":
                docs.append(CATALOG[di])
                continue
            features = [float(qi), float(di)] if form in ("features", "both") else None
            tokens = (qi, di + 1) if form in ("tokens", "both") else None
            docs.append(Document(f"{qid}_d{di}", features=features, tokens=tokens))
        pools[qid] = docs[::-1]  # build_dataset sorts pools by id
        judgments += [Judgment(qid, d.id, g) for d, g in zip(docs, grades) if g is not None]
        if has_tokens:
            query_tokens[qid] = (qi, 7)
    return build_dataset(pools, judgments[::-1], "synthetic", query_tokens=query_tokens)


class TestSplitBySelection:
    """split_queries selects both halves from the validated parent; each must
    equal the half rebuilt through build_dataset in every observable way."""

    @given(st.lists(query_strategy, min_size=2, max_size=6),
           st.floats(min_value=0.05, max_value=0.95), st.integers(0, 1000))
    def test_matches_rebuilt_halves(self, specs, fraction, seed):
        parent = make_parent(specs)
        assume(int(round(fraction * parent.num_queries)) < parent.num_queries)
        halves = split_queries(parent, fraction, seed)
        assert set(halves[0].query_ids()) | set(halves[1].query_ids()) == \
            set(parent.query_ids())
        for half in halves:
            reference = rebuild_half(parent, set(half.query_ids()))
            assert half == reference
            assert half.feature_dim == reference.feature_dim
            assert half.kind == reference.kind
            assert half.judgments == reference.judgments
            assert [q.tokens for q in half.queries] == [q.tokens for q in reference.queries]
            for qid in reference.query_ids():
                assert all(a is b for a, b in zip(half.pool(qid), reference.pool(qid)))
                assert half.relevance_map(qid) == reference.relevance_map(qid)
                got, want = half.group(qid), reference.group(qid)
                assert got.grades.dtype == want.grades.dtype
                np.testing.assert_array_equal(got.grades, want.grades)
                assert got.positives == want.positives
                assert got.negatives == want.negatives

    def test_halves_share_the_parents_groups(self, planted_dataset):
        dataset, _ = planted_dataset
        for half in split_queries(dataset, 0.25, seed=3):
            for qid in half.query_ids():
                assert half.group(qid) is dataset.group(qid)
                assert half.pool(qid) is dataset.pool(qid)
