"""Domain-model construction, validation errors, and set invariants."""

import copy

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ranklab.core import (
    DatasetError,
    Document,
    DuplicateJudgmentError,
    FeatureDimensionError,
    Judgment,
    JudgedDocNotInPoolError,
    UnknownQueryError,
    build_dataset,
    candidate_pool,
    relevant_fraction,
)
from ranklab.dataio import split_queries

from conftest import make_docs


def one_query_dataset():
    docs = make_docs([[1.0, 0.0]])
    return build_dataset({"q": docs}, [Judgment("q", "d0", 1)], "synthetic")


class TestBuildDataset:
    def test_minimal_case(self):
        ds = one_query_dataset()
        assert ds.num_queries == 1
        assert len(ds.pool("q")) == 1
        assert ds.relevance_map("q")["d0"] == 1

    def test_judged_doc_missing_from_pool(self):
        docs = make_docs([[1.0]])
        with pytest.raises(JudgedDocNotInPoolError, match="ghost"):
            build_dataset({"q": docs}, [Judgment("q", "ghost", 1)], "synthetic")

    def test_duplicate_judgment(self):
        docs = make_docs([[1.0]])
        with pytest.raises(DuplicateJudgmentError, match="d0"):
            build_dataset(
                {"q": docs},
                [Judgment("q", "d0", 1), Judgment("q", "d0", 0)],
                "synthetic",
            )

    def test_inconsistent_feature_dims(self):
        docs = [Document("a", np.array([1.0])), Document("b", np.array([1.0, 2.0]))]
        with pytest.raises(FeatureDimensionError, match="'b'"):
            build_dataset({"q": docs}, [], "synthetic")

    def test_unknown_judged_query(self):
        docs = make_docs([[1.0]])
        with pytest.raises(UnknownQueryError, match="nope"):
            build_dataset({"q": docs}, [Judgment("nope", "d0", 1)], "synthetic")

    def test_empty_records_rejected(self):
        with pytest.raises(DatasetError):
            build_dataset({}, [], "synthetic")

    def test_negative_relevance_rejected(self):
        with pytest.raises(DatasetError):
            Judgment("q", "d", -1)

    def test_document_needs_representation(self):
        with pytest.raises(DatasetError):
            Document("d")

    def test_lexicographic_ordering(self):
        docs = make_docs([[1.0], [2.0], [3.0]])
        ds = build_dataset(
            {"q2": list(reversed(docs)), "q1": docs}, [], "synthetic"
        )
        assert ds.query_ids() == ("q1", "q2")
        assert [d.id for d in ds.pool("q2")] == ["d0", "d1", "d2"]

    def test_idempotent_rebuild(self, tiny_dataset):
        def rebuild(dataset):
            return build_dataset({qid: g.pool for qid, g in dataset.groups.items()},
                                 dataset.judgments, dataset.kind)

        rebuilt = rebuild(tiny_dataset)
        assert rebuilt == tiny_dataset
        again = rebuild(rebuilt)
        assert again == rebuilt

    def test_equality_sees_query_tokens(self):
        docs = make_docs([[1.0]])
        one, two = (build_dataset({"q": docs}, [], "synthetic", query_tokens={"q": tokens})
                    for tokens in ((1,), (2,)))
        assert one != two
        assert one == build_dataset({"q": docs}, [], "synthetic", query_tokens={"q": (1,)})


def read_only(matrix):
    matrix.flags.writeable = False
    return matrix


class TestDocumentRows:
    def test_each_document_views_its_row(self):
        m = read_only(np.arange(6.0).reshape(3, 2).copy())
        docs = Document.rows(["a", "b", "c"], m)
        assert docs.matrix is m and docs.positions is None
        assert list(docs) == [Document(i, features=row) for i, row in zip("abc", m)]
        assert all(d.features.base is m and d.tokens is None for d in docs)

    @pytest.mark.parametrize("ids,matrix,match", [
        (["a", "b"], np.zeros((2, 2)), "read-only"),
        (["a", "b"], read_only(np.zeros((2, 2), dtype=np.float32)), "float64"),
        (["a", "b"], read_only(np.zeros(2)), "2-D"),
        (["a"], read_only(np.zeros((2, 2))), "one non-empty id per matrix row"),
        (["a", ""], read_only(np.zeros((2, 2))), "one non-empty id per matrix row"),
    ], ids=["writeable", "float32", "one-dimensional", "id-count", "empty-id"])
    def test_rejected(self, ids, matrix, match):
        with pytest.raises(DatasetError, match=match):
            Document.rows(ids, matrix)

    def test_each_document_keeps_its_tokens(self):
        m = read_only(np.arange(6.0).reshape(3, 2).copy())
        docs = Document.rows(["a", "b", "c"], m, [(1, 2), None, (3,)])
        assert [d.tokens for d in docs] == [(1, 2), None, (3,)]
        assert all(d.features.base is m for d in docs)

    @pytest.mark.parametrize("tokens", [[(1,)], [(1,), ()]], ids=["token-count", "empty-tokens"])
    def test_tokens_rejected(self, tokens):
        with pytest.raises(DatasetError, match="one non-empty token tuple or None per row"):
            Document.rows(["a", "b"], read_only(np.zeros((2, 2))), tokens)


class TestRelevanceLookups:
    def setup_method(self):
        docs = make_docs([[1.0], [2.0], [3.0]])
        self.ds = build_dataset({"q": docs}, [Judgment("q", "d0", 2), Judgment("q", "d1", 0)],
                                "synthetic")

    def test_map_keeps_grade_zero_judgments_and_leaves_out_unjudged(self):
        assert self.ds.relevance_map("q") == {"d0": 2, "d1": 0}
        assert self.ds.relevance_map("q").get("d2", 0) == 0

    def test_unknown_query(self):
        with pytest.raises(UnknownQueryError, match="zzz"):
            self.ds.relevance_map("zzz")


class TestImmutability:
    def snapshot(self, dataset):
        return {key: copy.copy(value) for key, value in vars(dataset).items()}

    def test_lookups_never_write_to_the_dataset(self, tiny_dataset):
        halves = split_queries(tiny_dataset, 0.5, seed=0)
        for ds in (tiny_dataset, *halves):
            before = self.snapshot(ds)
            for qid in ds.query_ids():
                ds.group(qid)
                ds.positives(qid)
                candidate_pool(ds, qid, exclude_positives=True)
            assert self.snapshot(ds) == before

    def test_group_of_unknown_query(self, tiny_dataset):
        with pytest.raises(UnknownQueryError, match="zzz"):
            tiny_dataset.group("zzz")


class TestSelect:
    def test_keeps_dataset_order(self, tiny_dataset):
        assert tiny_dataset.select(["qb", "qa"]).query_ids() == ("qa", "qb")

    def test_unknown_query(self, tiny_dataset):
        with pytest.raises(UnknownQueryError, match="zzz"):
            tiny_dataset.select(["qa", "zzz"])

    def test_empty_selection(self, tiny_dataset):
        with pytest.raises(DatasetError, match="no queries"):
            tiny_dataset.select([])


class TestCandidatePool:
    def setup_method(self):
        docs = make_docs([[1.0], [2.0]])
        self.ds = build_dataset({"q": docs}, [Judgment("q", "d0", 1)], "synthetic")

    def test_exclude_positives(self):
        assert [d.id for d in candidate_pool(self.ds, "q", exclude_positives=True)] == ["d1"]

    def test_include_positives(self):
        assert [d.id for d in candidate_pool(self.ds, "q")] == ["d0", "d1"]

    def test_all_relevant_gives_empty(self):
        docs = make_docs([[1.0]])
        ds = build_dataset({"q": docs}, [Judgment("q", "d0", 2)], "synthetic")
        assert candidate_pool(ds, "q", exclude_positives=True) == ()

    def test_unknown_query(self):
        with pytest.raises(UnknownQueryError):
            candidate_pool(self.ds, "zzz")

    def test_union_property(self, tiny_dataset):
        for q in tiny_dataset.queries:
            full = {d.id for d in candidate_pool(tiny_dataset, q.id)}
            neg = {d.id for d in candidate_pool(tiny_dataset, q.id, exclude_positives=True)}
            pos = {d.id for d in tiny_dataset.positives(q.id)}
            assert neg | pos == full
            assert neg & pos == set()


class TestRelevantFraction:
    def test_all_relevant(self):
        docs = make_docs([[1.0], [2.0]])
        ds = build_dataset(
            {"q": docs}, [Judgment("q", "d0", 1), Judgment("q", "d1", 1)], "synthetic"
        )
        assert relevant_fraction(ds) == 1.0

    def test_mean_of_per_query_fractions(self):
        docs_a = make_docs([[1.0], [2.0]], prefix="a")
        docs_b = make_docs([[3.0], [4.0]], prefix="b")
        ds = build_dataset(
            {"q1": docs_a, "q2": docs_b}, [Judgment("q2", "b0", 1)], "synthetic"
        )
        assert relevant_fraction(ds) == pytest.approx(0.25)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
    def test_fraction_in_unit_interval(self, pool_size, n_rel):
        n_rel = min(n_rel, pool_size)
        docs = make_docs([[float(i)] for i in range(pool_size)])
        judgments = [Judgment("q", f"d{i}", 1) for i in range(n_rel)]
        ds = build_dataset({"q": docs}, judgments, "synthetic")
        assert 0.0 <= relevant_fraction(ds) <= 1.0
