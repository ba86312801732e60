"""Differential tests: each fast path against a reference path, on edge shapes.

The fast paths are the per-query groups (``Dataset.groups``) and the
feature matrix each group's documents read their rows from, sampling
with replacement from a precomputed CDF (``policy._sampling_cdf`` /
``policy._draw_from_cdf``), the argsort ranking of ``evaluate_model``,
the variance lab's two-sweep state pass, the synthetic generator's pools
as slices of one dataset matrix (``Document.rows``), ``build_dataset``'s
one decision per pool of the matrix it keeps or makes, made once for a pool
given to several queries, a contrastive step's one gather per side (``take``
keeps positions, ``discriminator_step`` joins them), dns scoring a query's
hardest-of-k candidates in one forward, the ``text`` forward's one token
array per pool, and each scorer's ``backward`` adding into a caller's buffer
(the ``text`` and ``matfac`` kinds touching only the rows their forward saw).
Each reference here is written from the definitions: each document's grade
looked up in ``judgments``, features stacked from plain lists of documents,
a synthetic task built from one ``Document`` per row copy, pools checked and
stacked document by document, a copy of a shared pool per query, draws and
steps over plain tuples of documents, ``Generator.choice`` with ``p=``,
``sorted(..., key=(-score, id))`` over RankedLists, and exact enumeration
over a list that holds every visited state's policy and grad-log-prob
matrix at once, one k-row forward per dns positive, one token array and one
``mean`` per text document, and a dense gradient of every table.  The edge
shapes are pools of one document, all-relevant pools, queries with no
relevant document, ``dns_k`` above the size of the negative pool, repeated
documents that tie a dns row, unvisited states, partitions with no action
below the baseline, and tokens or document rows repeated within one
backward.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranklab import pgvar, trainers
from ranklab.baselines import ConstantBaseline, ValueFunctionBaseline
from ranklab.core import (
    Dataset,
    Document,
    FeatureDimensionError,
    GroupDocs,
    Judgment,
    Query,
    QueryGroup,
    RowSpace,
    build_dataset,
    candidate_pool,
    join,
    relevant_fraction,
    take,
)
from ranklab.dataio import SyntheticSpec, synth_retrieval
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
from ranklab.scorers import (
    Forward,
    LinearScorer,
    ParamVector,
    RepresentationError,
    build_scorer,
    layout_for,
)
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
    """(grades, positives, negatives) by one lookup in ``judgments`` per document."""
    judged = {(j.query, j.doc): j.relevance for j in dataset.judgments}
    pool = dataset.pool(qid)
    grades = [judged.get((qid, d.id), 0) for d in pool]
    return (grades,
            tuple(d for d, g in zip(pool, grades) if g > 0),
            tuple(d for d, g in zip(pool, grades) if g <= 0))


def reference_group(dataset, qid):
    """The query's group rebuilt from ``reference_split``, as plain tuples
    without a feature matrix, so scorers stack each call's rows."""
    grades, positives, negatives = reference_split(dataset, qid)
    return QueryGroup(query=dataset.query(qid), pool=tuple(dataset.pool(qid)),
                      grades=np.array(grades, dtype=np.int64),
                      positives=positives, negatives=negatives)


def reference_dataset(dataset):
    """The dataset with every group rebuilt from its judgments."""
    groups = {qid: reference_group(dataset, qid) for qid in dataset.query_ids()}
    return Dataset(dataset.kind, groups, dataset.judgments, dataset.feature_dim)


def choice_draw(probs, size, rng):
    """The reference sampler: the probabilities themselves stand in for the
    CDF, and ``Generator.choice`` draws from them."""
    return rng.choice(len(probs), size=size, replace=True, p=probs)


def reference_evaluate(scorer, dataset, names):
    sums = {n: 0.0 for n in names}
    counted = skipped = 0
    for q in dataset.queries:
        pool = dataset.pool(q.id)
        judged = dataset.relevance_map(q.id)
        relevance = {d.id: judged.get(d.id, 0) for d in pool}
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
            assert list(sample_docs(policy, q, pool, k, rng)) == [pool[i] for i in idx]
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
    if any(g.positives for g in dataset.groups.values()):
        pretrain_mle(SoftmaxPolicy(models[4]), dataset, cfg)
    return [m.params.values.copy() for m in models]


class TestTrainersOnReferencePaths:
    """The epochs read groups, their feature matrices and CDFs; rerun on a
    dataset whose groups were rebuilt from its judgments without a matrix
    and on ``Generator.choice``, they must end with the same parameter bits."""

    @settings(max_examples=40)
    @given(datasets(), st.integers(0, 1000), st.integers(1, 9))
    def test_same_parameters(self, dataset, seed, dns_k):
        fast = run_epochs(dataset, seed, dns_k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainers, "_sampling_cdf", lambda probs: probs)
            patch.setattr(trainers, "_draw_from_cdf", choice_draw)
            reference = run_epochs(reference_dataset(dataset), seed, dns_k)
        for a, b in zip(fast, reference):
            assert np.array_equal(a, b)


def reference_dns_epoch(model, dataset, cfg, rng):
    """``dns_epoch`` as one k-row forward per positive, each pick the argmax
    of its own forward."""
    entries, _ = trainers._negative_entries(dataset, cfg)

    def draw(q, pos, neg_pool):
        k = min(cfg.dns_k, len(neg_pool))
        hardest = []
        for _ in range(len(pos)):
            cand = rng.choice(len(neg_pool), size=k, replace=False)
            hardest.append(cand[np.argmax(model.score_many(q, take(neg_pool, cand)))])
        return take(neg_pool, hardest)

    return trainers._negative_epoch(model, entries, draw, cfg)


@st.composite
def dns_cases(draw):
    """(model, dataset) of one kind.  Feature pools hold small integer
    features, so documents repeat and scores tie; a matfac catalog repeats
    one item's embedding row and bias under another id."""
    kind = draw(st.sampled_from(["linear", "mlp1", "matfac"]))
    seed = draw(st.integers(0, 10_000))
    if kind != "matfac":
        dims = {"feature_dim": FEATURE_DIM, **({"hidden": 3} if kind == "mlp1" else {})}
        return build_scorer(kind, dims, scale=0.8, seed=seed), draw(datasets())
    users, items = ("u0", "u1", "u2"), tuple(f"i{i}" for i in range(draw(st.integers(2, 10))))
    catalog = [Document(i, tokens=(0,)) for i in items]
    judgments = [Judgment(u, i, 1) for u in users for i in items if draw(st.booleans())]
    dataset = build_dataset({u: catalog for u in users}, judgments, "recommendation")
    model = build_scorer("matfac", {"query_ids": users, "doc_ids": items, "embed_dim": 3},
                         scale=0.8, seed=seed)
    a, b = draw(st.permutations(range(len(items))))[:2]
    doc_embed = model.params.segment("doc_embed").reshape(len(items), -1)
    doc_embed[b] = doc_embed[a]
    model.params.segment("doc_bias")[b] = model.params.segment("doc_bias")[a]
    return model, dataset


class TestDnsOneForwardPerQuery:
    """A query's hardest-of-k candidates are scored in one forward; the picks,
    objectives, parameters and generator state must be those of one k-row
    forward per positive."""

    @staticmethod
    def check(model, dataset, cfg, epochs=3):
        reference = model.clone()
        rng, expected_rng = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
        for _ in range(epochs):
            got = dns_epoch(model, dataset, cfg, rng)[0].value
            assert got == reference_dns_epoch(reference, dataset, cfg, expected_rng)
            assert model.params.values.tobytes() == reference.params.values.tobytes()
        assert rng.random() == expected_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(dns_cases(), st.integers(0, 1000), st.integers(1, 9), st.booleans())
    def test_matches_per_positive_forwards(self, case, seed, dns_k, exclude_positives):
        model, dataset = case
        cfg = TrainConfig(learning_rate=0.3, batch_size=2, dns_k=dns_k, seed=seed,
                          exclude_positives=exclude_positives)
        self.check(model, dataset, cfg)

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_tied_rows_are_scored_again_alone(self, kind, monkeypatch):
        # Every negative is one repeated document, so each positive's row
        # ties and is scored again: one stacked forward per query, then one
        # k-row forward per positive.
        docs = [Document("p0", np.array([1.0, 2.0])), Document("p1", np.array([0.0, 1.0]))]
        docs += [Document(f"n{i}", np.array([-1.0, 0.5])) for i in range(6)]
        dataset = build_dataset({"q": docs}, [Judgment("q", "p0", 1), Judgment("q", "p1", 2)],
                                "synthetic")
        dims = {"feature_dim": 2, **({"hidden": 3} if kind == "mlp1" else {})}
        model = build_scorer(kind, dims, scale=0.8, seed=4)
        cfg = TrainConfig(learning_rate=0.3, dns_k=4, seed=5)
        sizes = []
        forward = type(model).forward
        monkeypatch.setattr(type(model), "forward",
                            lambda self, q, d: sizes.append(len(d)) or forward(self, q, d))
        dns_epoch(model.clone(), dataset, cfg, np.random.default_rng(5))
        assert sizes[:3] == [8, 4, 4]
        monkeypatch.undo()
        self.check(model, dataset, cfg)


@st.composite
def mixed_datasets(draw):
    """(dataset, scorers) over one to three queries of one to five documents.
    A pool holds feature documents, token documents, or a mix of feature,
    token and feature-and-token documents, and any dataset may be a ``select``
    of some of its queries."""
    shape = draw(st.sampled_from(["features", "tokens", "mixed"]))
    has = {"features": ["f"], "tokens": ["t"], "mixed": ["f", "t", "ft"]}[shape]
    pools, judgments, query_tokens = {}, [], {}
    for qi in range(draw(st.integers(1, 3))):
        qid = f"q{qi}"
        query_tokens[qid] = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
        pools[qid] = []
        for di in range(draw(st.integers(1, 5))):
            what = draw(st.sampled_from(has))
            features = draw(st.lists(st.floats(-3, 3), min_size=FEATURE_DIM,
                                     max_size=FEATURE_DIM)) if "f" in what else None
            tokens = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)) \
                if "t" in what else None
            pools[qid].append(Document(f"{qid}_d{di}", features and np.array(features),
                                       tokens and tuple(tokens)))
            if draw(st.booleans()):
                judgments.append(Judgment(qid, pools[qid][-1].id, 1))
    dataset = build_dataset(pools, judgments, "qa", query_tokens=query_tokens)
    keep = draw(st.lists(st.sampled_from(dataset.query_ids()), min_size=1, unique=True))
    if draw(st.booleans()):
        dataset = dataset.select(keep)
    seed = draw(st.integers(0, 1000))
    scorers = [build_scorer("linear", {"feature_dim": FEATURE_DIM}, scale=0.8, seed=seed),
               build_scorer("mlp1", {"feature_dim": FEATURE_DIM, "hidden": 3}, scale=0.8,
                            seed=seed),
               build_scorer("text", {"vocab_size": 5, "embed_dim": 2}, scale=0.8, seed=seed)]
    return dataset, scorers


def views_its_rows(g):
    """Each document of the group is a read-only view of its row of the
    pool's features."""
    return all(np.shares_memory(d.features, g.pool.features[i])
               and not d.features.flags.writeable for i, d in enumerate(g.pool))


def outcome(call):
    """The bytes of a kernel's result, or the type of what it raised."""
    try:
        return call().tobytes()
    except RepresentationError as exc:
        return type(exc)


class TestGroupMatrix:
    """A group's documents and ``take`` subsets of them score, and give
    gradients, with the bits of plain lists of the same documents."""

    @settings(max_examples=150)
    @given(mixed_datasets(), st.data())
    def test_kernels_match_plain_lists(self, case, data):
        dataset, scorers = case
        for g in dataset.groups.values():
            pool_idx = data.draw(st.lists(st.integers(0, len(g.pool) - 1), max_size=7))
            seqs = [g.pool, g.positives, g.negatives, take(g.pool, pool_idx)]
            if g.negatives:
                neg_idx = data.draw(st.lists(st.integers(0, len(g.negatives) - 1),
                                             min_size=1, max_size=7))
                seqs.append(take(g.negatives, neg_idx))
                seqs.append(take(seqs[-1], list(reversed(range(len(neg_idx))))))
            for seq in filter(len, seqs):
                plain = list(seq)
                weights = np.linspace(-1.0, 2.0, len(seq))
                for model in scorers:
                    for kernel, args in (("score_many", ()), ("gradient_matrix", ()),
                                         ("grad_weighted_sum", (weights,))):
                        fn = getattr(model, kernel)
                        assert (outcome(lambda: fn(g.query, seq, *args))
                                == outcome(lambda: fn(g.query, plain, *args))), kernel

    @settings(max_examples=150)
    @given(mixed_datasets())
    def test_rows_are_read_only_views_of_the_group_matrix(self, case):
        dataset, _ = case
        for g in dataset.groups.values():
            assert isinstance(g.pool, GroupDocs) == all(d.features is not None for d in g.pool)
            if not isinstance(g.pool, GroupDocs):
                continue
            assert g.pool.features.shape == (len(g.pool), FEATURE_DIM)
            assert g.pool.features.dtype == np.float64 and not g.pool.features.flags.writeable
            for i, d in enumerate(g.pool):
                assert np.shares_memory(d.features, g.pool.features[i])
                assert not d.features.flags.writeable
                assert np.array_equal(d.features, g.pool.features[i])

    @settings(max_examples=100)
    @given(mixed_datasets(), st.data())
    def test_datasets_built_from_the_same_documents_view_their_own_matrix(self, case, data):
        """Building the documents of a built dataset again, whole pools or the
        first few documents of each, leaves every dataset's rows views of its
        own group matrices."""
        first, _ = case
        pools = {qid: g.pool for qid, g in first.groups.items()}
        tokens = {qid: g.query.tokens for qid, g in first.groups.items()}
        judgments, kind = first.judgments, first.kind
        again = build_dataset(pools, judgments, kind, tokens)
        heads = {qid: docs[:data.draw(st.integers(1, len(docs)))] for qid, docs in pools.items()}
        kept = {(qid, d.id) for qid, docs in heads.items() for d in docs}
        part = build_dataset(heads, [j for j in judgments if (j.query, j.doc) in kept],
                             kind, tokens)
        assert again == first
        for dataset in (first, again, part):
            for g in dataset.groups.values():
                if isinstance(g.pool, GroupDocs):
                    assert views_its_rows(g)

    @settings(max_examples=50)
    @given(mixed_datasets())
    def test_a_rebuild_from_records_keeps_every_matrix(self, case):
        dataset, _ = case
        again = build_dataset({qid: g.pool for qid, g in dataset.groups.items()},
                              dataset.judgments, dataset.kind,
                              query_tokens={qid: g.query.tokens
                                            for qid, g in dataset.groups.items()})
        for qid, g in dataset.groups.items():
            assert type(again.pool(qid)) is type(g.pool)
            assert not isinstance(g.pool, GroupDocs) or again.pool(qid).features is g.pool.features
            assert all(a is b for a, b in zip(again.pool(qid), g.pool))

    def test_rows_of_a_read_only_matrix_out_of_pool_order_get_a_new_matrix(self):
        m = np.array([[0.0, 1.0], [2.0, 3.0]])
        m.flags.writeable = False
        g = build_dataset({"q": [Document("a", m[1]), Document("b", m[0])]}, [],
                          "synthetic").groups["q"]
        assert g.pool.features is not m
        np.testing.assert_array_equal(g.pool.features, [[2.0, 3.0], [0.0, 1.0]])
        assert views_its_rows(g)

    @staticmethod
    def pools_that_do_not_view_their_matrix_in_id_order():
        """(pool, matrix it views, the rows of the pool in id order) per case."""
        m = np.arange(6.0).reshape(3, 2).copy()
        m.flags.writeable = False
        writeable = np.arange(6.0).reshape(3, 2).copy()
        g = build_dataset({"q": Document.rows(["a", "b", "c"], m)},
                          [Judgment("q", "a", 1), Judgment("q", "c", 1)], "synthetic").groups["q"]
        return {
            "out-of-id-order": (Document.rows(["c", "b", "a"], m), m, m[::-1]),
            "positions-set": (g.positives, m, m[[0, 2]]),
            "writeable-matrix": (GroupDocs(RowSpace(list("abc"), writeable), np.arange(3),
                                           writeable), writeable, writeable),
        }

    @pytest.mark.parametrize("case", ["out-of-id-order", "positions-set", "writeable-matrix"])
    def test_group_docs_not_whole_and_in_id_order_get_a_new_matrix(self, case):
        pool, matrix, rows = self.pools_that_do_not_view_their_matrix_in_id_order()[case]
        g = build_dataset({"q": pool}, [], "synthetic").groups["q"]
        assert g.pool.features is not matrix and not g.pool.features.flags.writeable
        np.testing.assert_array_equal(g.pool.features, rows)
        assert views_its_rows(g)

    def test_whole_group_docs_in_id_order_keep_their_matrix(self):
        m = np.arange(6.0).reshape(3, 2).copy()
        m.flags.writeable = False
        pool = Document.rows(["a", "b", "c"], m)
        g = build_dataset({"q": pool}, [Judgment("q", "b", 1)], "synthetic").groups["q"]
        assert g.pool.features is m
        assert all(a is b for a, b in zip(g.pool, pool))


def reference_build(pools, judgments):
    """``build_dataset``'s feature count and, per query in id order, the pool's
    ids, tokens, grades and stacked feature matrix (None unless every document
    has features), each found document by document.  Raises the
    ``FeatureDimensionError`` of the first document, in query and pool order,
    whose feature count differs from the first one seen."""
    grade = {(j.query, j.doc): j.relevance for j in judgments}
    feature_dim, groups = None, {}
    for qid in sorted(pools):
        docs = sorted(pools[qid], key=lambda d: d.id)
        for d in docs:
            if d.features is not None and len(d.features) != feature_dim:
                if feature_dim is not None:
                    raise FeatureDimensionError(f"document {d.id!r} has {len(d.features)} "
                                                f"features, expected {feature_dim}")
                feature_dim = len(d.features)
        matrix = (np.array([d.features for d in docs])
                  if all(d.features is not None for d in docs) else None)
        groups[qid] = ([d.id for d in docs], [d.tokens for d in docs],
                       [grade.get((qid, d.id), 0) for d in docs], matrix)
    return feature_dim, groups


POOL_SHAPES = ["rows", "rows-list", "rows-shuffled", "rows-subset", "letor", "with-tokens",
               "mixed"]


@st.composite
def raw_pools(draw):
    """Up to four pools, each one of: the documents ``Document.rows`` makes
    over a read-only matrix (whole, as a list in or out of id order, or a
    ``take`` of some of them), LETOR-style documents that each own a
    writeable vector, documents with features and tokens, and documents
    with features, tokens or both.  Feature counts are mostly the dataset's
    own, but a pool or a single document may have another, so some datasets
    are ragged.  Some documents are judged."""
    width = draw(st.integers(1, 2))

    def other_width_or(w):
        return 3 - w if draw(st.integers(0, 5)) == 0 else w

    def vector(w):
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=w, max_size=w)), dtype=float)

    def tokens():
        return tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))

    pools, judgments = {}, []
    for qi in range(draw(st.integers(1, 4))):
        qid = f"q{qi}"
        ids = [f"{qid}_d{i}" for i in range(draw(st.integers(1, 5)))]
        pool_width = other_width_or(width)
        shape = draw(st.sampled_from(POOL_SHAPES))
        if shape.startswith("rows"):
            matrix = np.array([vector(pool_width) for _ in ids])
            matrix.flags.writeable = False
            docs = Document.rows(ids, matrix)
            if shape == "rows-list":
                docs = list(docs)
            elif shape == "rows-shuffled":
                docs = draw(st.permutations(list(docs)))
            elif shape == "rows-subset":
                docs = take(docs, sorted(draw(st.sets(st.integers(0, len(ids) - 1),
                                                      min_size=1))))
        else:
            docs = []
            for doc_id in ids:
                has = (draw(st.sampled_from(["f", "t", "ft"])) if shape == "mixed"
                       else {"letor": "f", "with-tokens": "ft"}[shape])
                docs.append(Document(doc_id,
                                     vector(other_width_or(pool_width)) if "f" in has else None,
                                     tokens() if "t" in has else None))
        pools[qid] = docs
        for d in docs:
            g = draw(st.sampled_from([None, 0, 1, 2]))
            if g is not None:
                judgments.append(Judgment(qid, d.id, g))
    return pools, judgments


def caller_state(pools):
    """What a caller holds of its documents: each one, its features object and
    writeable flag, and its tokens."""
    return {qid: [(id(d), id(d.features), d.features is not None and d.features.flags.writeable,
                   d.tokens) for d in docs] for qid, docs in pools.items()}


class TestBuildDatasetPerDocument:
    """``build_dataset`` decides each pool's matrix once and never changes a
    document it is given; its results are those of a build that checks and
    stacks document by document."""

    @settings(max_examples=300)
    @given(raw_pools())
    def test_matches_per_document_reference(self, case):
        pools, judgments = case
        before = caller_state(pools)
        try:
            want_dim, want = reference_build(pools, judgments)
        except FeatureDimensionError as exc:
            with pytest.raises(FeatureDimensionError) as got:
                build_dataset(pools, judgments, "qa")
            assert str(got.value) == str(exc)
            assert caller_state(pools) == before
            return
        dataset = build_dataset(pools, judgments, "qa")
        assert caller_state(pools) == before
        assert dataset.feature_dim == want_dim
        assert list(dataset.groups) == list(want)
        for qid, (ids, tokens, grades, matrix) in want.items():
            g = dataset.group(qid)
            assert [d.id for d in g.pool] == ids
            assert [d.tokens for d in g.pool] == tokens
            assert g.grades.dtype == np.int64 and g.grades.tolist() == grades
            if matrix is None:
                assert not isinstance(g.pool, GroupDocs)
                continue
            assert g.pool.features.dtype == matrix.dtype
            assert g.pool.features.shape == matrix.shape
            assert g.pool.features.tobytes() == matrix.tobytes()
            assert not g.pool.features.flags.writeable
            assert views_its_rows(g)

    @staticmethod
    def caller_pools():
        m = np.arange(6.0).reshape(3, 2).copy()
        m.flags.writeable = False
        return {
            "letor-writeable": [Document(i, features=np.array([k, 1.0]))
                                for k, i in enumerate("cab")],
            "read-only-rows-out-of-order": list(Document.rows(["c", "b", "a"], m)),
            "read-only-rows-as-list": list(Document.rows(["a", "b", "c"], m)),
            "features-and-tokens": [Document(i, features=np.array([k, 1.0]), tokens=(k,))
                                    for k, i in enumerate("cab", start=1)],
        }

    @pytest.mark.parametrize("case", ["letor-writeable", "read-only-rows-out-of-order",
                                      "read-only-rows-as-list", "features-and-tokens"])
    def test_caller_documents_are_untouched(self, case):
        pool = self.caller_pools()[case]
        before = caller_state({"q": pool})
        g = build_dataset({"q": pool}, [Judgment("q", "a", 1)], "qa").groups["q"]
        assert caller_state({"q": pool}) == before
        by_id = {d.id: d for d in pool}
        assert [d.id for d in g.pool] == ["a", "b", "c"]
        for d in g.pool:
            assert d is not by_id[d.id] and d == by_id[d.id]
            assert d.tokens == by_id[d.id].tokens
        assert views_its_rows(g)
        assert not g.pool.features.flags.writeable


def shared_pool(kind, ids, rng):
    """A pool of ``kind`` over ``ids``, in their order, and a function that
    makes a copy of it: the same documents in a new list, or for rows of a
    read-only matrix new rows of that matrix."""
    if kind == "rows":
        matrix = rng.normal(size=(len(ids), 2))
        matrix.flags.writeable = False
        return Document.rows(ids, matrix), lambda: Document.rows(ids, matrix)
    has = {"features": ["f"], "tokens": ["t"], "mixed": ["f", "t"]}[kind]
    docs = [Document(i, rng.normal(size=2) if has[k % len(has)] == "f" else None,
                     (k,) if has[k % len(has)] == "t" else None)
            for k, i in enumerate(ids)]
    return docs, lambda: list(docs)


def row_space(g):
    """The ids, matrix bytes and tokens of the row space of a group's pool, or
    None for a tuple pool."""
    base = getattr(g.pool, "base", None)
    return base and (base.ids, base.matrix.tobytes(), base.tokens)


class TestSharedPoolObject:
    """A pool given as one object for several queries is checked once, and
    the dataset equals the one built from a copy of it per query."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["rows", "features", "tokens", "mixed"]),
           st.lists(st.booleans(), min_size=2, max_size=5), st.integers(1, 6),
           st.booleans(), st.integers(0, 2**32 - 1), st.data())
    def test_equals_a_copy_per_query(self, kind, shares, size, id_order, seed, data):
        """Rows of a read-only matrix in id order are a span the dataset keeps;
        out of id order they are stacked like any feature pool."""
        rng = np.random.default_rng(seed)
        ids = [f"d{i}" for i in range(size)]
        pool, copy = shared_pool(kind, ids if id_order else ids[::-1], rng)
        qids = [f"q{i}" for i in range(len(shares))]
        judgments = [Judgment(qid, f"d{i}", g) for qid in qids for i in range(size)
                     if (g := data.draw(st.sampled_from([None, 0, 1, 2]))) is not None]
        shared = build_dataset({q: pool if s else copy() for q, s in zip(qids, shares)},
                               judgments, "qa")
        copies = build_dataset({q: copy() for q in qids}, judgments, "qa")
        assert shared == copies and shared.judgments == copies.judgments
        assert shared.feature_dim == copies.feature_dim
        for qid, g in shared.groups.items():
            h = copies.group(qid)
            assert type(g.pool) is type(h.pool)
            assert isinstance(g.pool, GroupDocs) == isinstance(h.pool, GroupDocs)
            assert (not isinstance(g.pool, GroupDocs)
                    or g.pool.features.tobytes() == h.pool.features.tobytes())
            assert row_space(g) == row_space(h)
            assert g.grades.tolist() == h.grades.tolist()
            for part in ("positives", "negatives"):
                assert tuple(getattr(g, part)) == tuple(getattr(h, part)), part


def reference_synth(spec):
    """``synth_retrieval``'s task from the same draws in the same order, each
    document made on its own from a copy of its row and the pools built
    through ``build_dataset``'s per-document path."""
    rng = np.random.default_rng(spec.seed)
    w_star = rng.normal(size=spec.feature_dim)
    n_rel = math.ceil(spec.relevant_fraction * spec.pool_size)
    q_digits = max(3, len(str(spec.num_queries - 1)))
    d_digits = max(3, len(str(spec.pool_size - 1)))
    pools, judgments = {}, []
    for qi in range(spec.num_queries):
        qid = f"q{qi:0{q_digits}d}"
        X = rng.normal(size=(spec.pool_size, spec.feature_dim))
        noise = (rng.normal(scale=spec.noise_sigma, size=spec.pool_size)
                 if spec.noise_sigma > 0 else 0.0)
        pools[qid] = [Document(f"{qid}_d{di:0{d_digits}d}", features=x.copy())
                      for di, x in enumerate(X)]
        judgments += [Judgment(qid, pools[qid][di].id, 1)
                      for di in np.argsort(-(X @ w_star + noise))[:n_rel]]
    return build_dataset(pools, judgments, "synthetic"), w_star


synthetic_specs = st.builds(
    SyntheticSpec, num_queries=st.integers(1, 4), pool_size=st.integers(1, 300),
    relevant_fraction=st.floats(0.001, 1.0), feature_dim=st.integers(1, 6),
    noise_sigma=st.one_of(st.just(0.0), st.floats(0.01, 3.0)), seed=st.integers(0, 2**32 - 1))


class TestSynthRetrievalRows:
    """``synth_retrieval`` makes each query's documents as rows of one
    read-only matrix that ``build_dataset`` keeps; the task is the bits of
    one built from plain per-document lists."""

    @settings(max_examples=60, deadline=None)
    @given(synthetic_specs)
    def test_matches_per_document_reference(self, spec):
        dataset, truth = synth_retrieval(spec)
        reference, w_star = reference_synth(spec)
        assert truth.weights.tobytes() == w_star.tobytes()
        assert dataset.judgments == reference.judgments
        assert dataset.feature_dim == reference.feature_dim == spec.feature_dim
        assert list(dataset.groups) == list(reference.groups)
        for qid, g in dataset.groups.items():
            want = reference.group(qid)
            assert g.pool.features.dtype == want.pool.features.dtype == np.float64
            assert g.pool.features.shape == want.pool.features.shape
            assert g.pool.features.tobytes() == want.pool.features.tobytes()
            assert g.grades.dtype == want.grades.dtype
            np.testing.assert_array_equal(g.grades, want.grades)
            for part in ("pool", "positives", "negatives"):
                assert ([d.id for d in getattr(g, part)]
                        == [d.id for d in getattr(want, part)]), part
            assert not g.pool.features.flags.writeable
            assert views_its_rows(g)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.8])
    def test_equals_the_document_by_document_build(self, noise_sigma):
        spec = SyntheticSpec(num_queries=6, pool_size=40, relevant_fraction=0.1,
                             feature_dim=5, noise_sigma=noise_sigma, seed=7)
        dataset, _ = synth_retrieval(spec)
        reference, _ = reference_synth(spec)
        assert dataset == reference
        assert dataset.judgments == reference.judgments
        noiseless, _ = synth_retrieval(SyntheticSpec(**{**spec.__dict__, "noise_sigma": 0.0}))
        # The noise moves some labels, so the two cases test different draws.
        assert (dataset.judgments == noiseless.judgments) == (noise_sigma == 0.0)


def live_documents():
    gc.collect()
    return sum(isinstance(obj, Document) for obj in gc.get_objects())


class TestRowSpace:
    """A dataset's feature pools are positions in one row space: trainers
    gather a step side's rows at once and make no documents."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=10), st.integers(1, 8),
           st.integers(0, 2**32 - 1), st.data())
    def test_gathered_side_matches_the_stacked_list(self, sizes, dim, seed, data):
        """A side of a step is one group per batch query: some positions of
        the query's pool, or of a subset of it (a negative pool).  Joined, it
        gathers the rows the list of its documents stacks, and linear and
        mlp1 score it and take its gradient with the same bits."""
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(sum(sizes), dim))
        matrix.flags.writeable = False
        rows = Document.rows([f"d{i:03d}" for i in range(sum(sizes))], matrix)
        ends = np.cumsum(sizes)
        pools = [rows[end - size:end] for size, end in zip(sizes, ends)]
        side = []
        for _ in range(data.draw(st.integers(1, 8), label="batch size")):
            pool = pools[data.draw(st.integers(0, len(pools) - 1))]
            if data.draw(st.booleans()):
                pool = take(pool, data.draw(st.lists(st.integers(0, len(pool) - 1),
                                                     min_size=1, unique=True)))
            side.append(take(pool, data.draw(st.lists(st.integers(0, len(pool) - 1),
                                                      min_size=1, max_size=6))))
        gathered = join(side)
        documents = [d for docs in side for d in docs]
        assert gathered.features.tobytes() == np.array([d.features for d in documents]).tobytes()
        weights = rng.normal(size=len(documents))
        for kind, dims in (("linear", {"feature_dim": dim}),
                           ("mlp1", {"feature_dim": dim, "hidden": 5})):
            model = build_scorer(kind, dims, scale=0.7, seed=seed % 1000)
            for kernel, args in (("score_many", ()), ("grad_weighted_sum", (weights,))):
                fn = getattr(model, kernel)
                assert (fn(None, gathered, *args).tobytes()
                        == fn(None, documents, *args).tobytes()), (kind, kernel)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 40), st.floats(0.05, 0.6), st.integers(1, 8),
           st.sampled_from(["linear", "mlp1"]), st.integers(0, 2**32 - 1))
    def test_contrastive_epoch_matches_the_list_path(self, num_queries, pool_size, fraction,
                                                     batch_size, kind, seed):
        """An epoch on row-space pools, whose draws stay positions and whose
        step sides are gathered once, against the same pools as plain tuples,
        whose draws are tuples and whose sides are stacked lists: through the
        one sampled-negative loop, the same objective, parameters and
        generator state."""
        dataset, _ = synth_retrieval(SyntheticSpec(num_queries, pool_size, fraction, 3,
                                                   seed=seed))
        cfg = TrainConfig(learning_rate=0.3, batch_size=batch_size)
        entries, _ = trainers._negative_entries(dataset, cfg)
        plain = [e and (e[0], tuple(e[1]), tuple(e[2])) for e in entries]
        results = []
        for each in (entries, plain):
            model = build_scorer(kind, {"feature_dim": 3, "hidden": 4}, scale=0.6,
                                 seed=seed % 1000)
            rng = np.random.default_rng(seed)
            table = trainers._sampler_table(model, each)
            objective = trainers._contrastive_batches(model, table, each, cfg, rng)
            results.append((objective, model.params.values.tobytes(), rng.random()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("epoch", ["single-d", "dual-d"])
    def test_each_step_forward_gets_one_group_per_side(self, epoch, monkeypatch):
        """The sampled negatives of a query are positions in its pool's row
        space and a step joins each side's queries, so each step of a
        contrastive epoch makes one forward per side, over one group."""
        dataset, _ = synth_retrieval(SyntheticSpec(num_queries=10, pool_size=30,
                                                   relevant_fraction=0.1, feature_dim=4,
                                                   seed=5))
        cfg = TrainConfig(learning_rate=0.1, batch_size=3, epochs_inner=2)
        models = [build_scorer("mlp1", {"feature_dim": 4, "hidden": 3}, scale=0.3, seed=s)
                  for s in (1, 2)]
        steps, step = [], trainers.discriminator_step

        def recording_step(model, positives, negatives, lr):
            sides = []
            model.forward = lambda q, docs: sides.append(docs) or type(model).forward(
                model, q, docs)
            try:
                return step(model, positives, negatives, lr)
            finally:
                del model.forward
                steps.append(sides)

        monkeypatch.setattr(trainers, "discriminator_step", recording_step)
        rng = np.random.default_rng(0)
        if epoch == "single-d":
            single_d_epoch(models[0], dataset, cfg, rng)
        else:
            dual_d_outer_epoch(*models, dataset, cfg, rng)
        assert steps
        for sides in steps:
            assert len(sides) == 2
            assert all(isinstance(docs, GroupDocs) for docs in sides)

    def test_synthetic_build_and_single_d_epoch_make_no_more_documents_than_drawn(self):
        before = live_documents()
        dataset, _ = synth_retrieval(SyntheticSpec(num_queries=8, pool_size=60,
                                                   relevant_fraction=0.05, feature_dim=5,
                                                   seed=3))
        model = build_scorer("mlp1", {"feature_dim": 5, "hidden": 4}, scale=0.3, seed=1)
        single_d_epoch(model, dataset, TrainConfig(learning_rate=0.1, batch_size=3),
                       np.random.default_rng(0))
        drawn = sum(len(g.positives) for g in dataset.groups.values())
        assert 0 < drawn < 8 * 60
        assert live_documents() - before <= drawn

    def test_one_matrix_per_dataset(self):
        dataset, _ = synth_retrieval(SyntheticSpec(num_queries=4, pool_size=5,
                                                   relevant_fraction=0.2, feature_dim=3))
        base = dataset.group("q000").pool.base
        assert all(g.pool.base is base for g in dataset.groups.values())
        assert base.matrix.shape == (20, 3)
        assert all(g.pool.features.base is base.matrix for g in dataset.groups.values())
        rebuilt = build_dataset({qid: list(g.pool) for qid, g in dataset.groups.items()},
                                dataset.judgments, "synthetic")
        assert rebuilt == dataset
        assert len({id(g.pool.base) for g in rebuilt.groups.values()}) == 1


class TestNoRelevanceLookups:
    """Training and evaluation read the groups and never look a judgment up
    by document id."""

    def test_single_d_epoch_and_evaluate_model(self, planted_dataset, monkeypatch):
        dataset, _ = planted_dataset
        lookups = []
        original = Dataset.relevance_map
        monkeypatch.setattr(Dataset, "relevance_map",
                            lambda self, qid: lookups.append(qid) or original(self, qid))
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


# -- variance lab: the list-based enumeration the state pass replaced ---------
#
# The sweeps expand every squared distance instead of taking it on a stacked
# row, so they agree with this reference to rounding, not bit for bit.  The
# rounding scales with the size the expanded terms have before they cancel,
# not with the result: under a peaked policy a row's grad f_i nearly equals
# rbar, and its squared distance is a small difference of large terms.  So
# each reference value comes with that size, and a routine passes when it is
# within ENUMERATION_RTOL of it.  Row i's terms are at most reach_i =
# (||grad f_i|| + ||rbar||) / T, so ||scale_i * gradlog_i - c||^2 is expanded
# at size (|scale_i| reach_i + ||c||)^2.

ENUMERATION_RTOL = 1e-12


def reference_gradient_matrix(scorer, query, pool):
    """mlp1 rows assembled with einsum and hstack; linear rows as they are."""
    if scorer.kind != "mlp1":
        return scorer.gradient_matrix(query, pool)
    X, H = scorer.forward(query, pool).saved
    A = (1.0 - H * H) * scorer.params.segment("out_w")
    dW1 = np.einsum("nh,nd->nhd", A, X).reshape(len(pool), -1)
    return np.hstack([dW1, A, H, np.ones((len(pool), 1))])


def reference_states(instance, policy):
    """(s, rho, probs, gradlog, reach) of every visited state, all held at once."""
    states = []
    for s, rho in enumerate(instance.visitation):
        if rho != 0.0:
            query, pool = instance.states[s], instance.pools[s]
            probs = policy_probs(policy, query, pool)
            gmat = reference_gradient_matrix(policy.scorer, query, pool)
            rbar = probs @ gmat
            reach = (np.linalg.norm(gmat, axis=1) + np.linalg.norm(rbar)) / policy.temperature
            states.append((s, rho, probs, (gmat - rbar) / policy.temperature, reach))
    return states


def reference_b(instance, baseline, probs, s):
    if isinstance(baseline, ConstantBaseline):
        return baseline.value
    return float(probs @ instance.q_values[s])


def reference_mean(instance, states, baseline):
    """(mean gradient, the size of its terms)."""
    mean = size = 0.0
    for s, rho, probs, gradlog, reach in states:
        adv = instance.q_values[s] - reference_b(instance, baseline, probs, s)
        mean += rho * (gradlog.T @ (probs * adv))
        size += rho * float(probs @ (np.abs(adv) * reach))
    return mean, size


def reference_squared_deviations(instance, states, baseline):
    mean = reference_mean(instance, states, baseline)[0]
    for s, rho, probs, gradlog, reach in states:
        adv = instance.q_values[s] - reference_b(instance, baseline, probs, s)
        g = gradlog * adv[:, None]
        yield (s, rho, probs, ((g - mean) ** 2).sum(axis=1),
               (np.abs(adv) * reach + np.linalg.norm(mean)) ** 2)


def reference_variance(instance, states, baseline):
    """(exact variance, size)."""
    total = size = 0.0
    for _, rho, probs, sq, sizes in reference_squared_deviations(instance, states, baseline):
        total += rho * float(probs @ sq)
        size += rho * float(probs @ sizes)
    return total, size


def reference_decomposition(instance, states, part):
    """((below term, size), (above term, size))."""
    below_term = above_term = below_size = above_size = 0.0
    for s, rho, probs, sq, sizes in reference_squared_deviations(instance, states,
                                                                 ConstantBaseline(part.b)):
        lo, hi = part.below[s], part.above[s]
        below_term += rho * float(probs[lo] @ sq[lo])
        above_term += rho * float(probs[hi] @ sq[hi])
        below_size += rho * float(probs[lo] @ sizes[lo])
        above_size += rho * float(probs[hi] @ sizes[hi])
    return (below_term, below_size), (above_term, above_size)


def reference_lower_bound(states, b, part):
    """(lower bound at b, size)."""
    nu = 0.0
    for _, rho, probs, gradlog, _ in states:
        nu += rho * (gradlog.T @ probs)
    centered = uncentered = size = 0.0
    for s, rho, probs, gradlog, reach in states:
        lo = part.below[s]
        centered += rho * float(probs[lo] @ ((gradlog[lo] - nu) ** 2).sum(axis=1))
        uncentered += rho * float(probs[lo] @ (gradlog[lo] ** 2).sum(axis=1))
        size += rho * float(probs[lo] @ (reach[lo] + np.linalg.norm(nu)) ** 2)
    assert math.isclose(centered, uncentered, rel_tol=1e-9, abs_tol=1e-12)
    factor = (part.max_below - b) ** 2
    return factor * centered, factor * size


def reference_report(instance, states, b):
    """The report's fields; the float fields that the sweeps expand as
    (value, size) pairs."""
    part = pgvar.partition_actions(instance, b)
    below, above = reference_decomposition(instance, states, part)
    exact = (below[0] + above[0], below[1] + above[1])
    below_mass = 0.0
    for s, rho, probs, _, _ in states:
        below_mass += float(rho) * float(probs[part.below[s]].sum())
    report = {"b": b, "exact_var": exact, "below_term": below, "above_term": above,
              "below_mass": below_mass, "max_below": part.max_below, "lower_bound": None,
              "pointwise_ok": True, "holds_for_below_term": True, "holds_for_total": True}
    if part.defined:
        floor = (part.max_below - b) ** 2 - 1e-15
        bound = reference_lower_bound(states, b, part)
        report.update(
            lower_bound=bound,
            pointwise_ok=not any(np.any((q[lo] - b) ** 2 < floor)
                                 for q, lo in zip(instance.q_values, part.below)),
            holds_for_below_term=below[0] >= bound[0] - 1e-12,
            holds_for_total=exact[0] >= bound[0] - 1e-12)
    return report


def reference_mc(instance, policy, baseline, n, rng):
    """((estimate, size), (se^2 * n, size)): the standard error is compared
    through its square, since a square root magnifies rounding near 0."""
    policies = {s: (probs, gradlog, reach)
                for s, _, probs, gradlog, reach in reference_states(instance, policy)}
    state_counts = rng.multinomial(n, instance.visitation)
    per_state, g_sum = [], None
    for s, count in enumerate(state_counts):
        if count == 0:
            continue
        probs, gradlog, reach = policies[s]
        action_counts = rng.multinomial(count, probs)
        adv = instance.q_values[s] - reference_b(instance, baseline, probs, s)
        g = gradlog * adv[:, None]
        per_state.append((action_counts, g, np.abs(adv) * reach))
        contrib = action_counts @ g
        g_sum = contrib if g_sum is None else g_sum + contrib
    mean = g_sum / n
    sq_sum = quad_sum = sq_size = quad_size = 0.0
    for action_counts, g, reach in per_state:
        sq = ((g - mean) ** 2).sum(axis=1)
        sizes = (reach + np.linalg.norm(mean)) ** 2
        sq_sum += float(action_counts @ sq)
        quad_sum += float(action_counts @ sq**2)
        sq_size += float(action_counts @ sizes)
        quad_size += float(action_counts @ sizes**2)
    mean_sq = sq_sum / n
    var_of_sq = max(quad_sum / n - mean_sq**2, 0.0) * n / (n - 1)
    return ((float(sq_sum / (n - 1)), sq_size / (n - 1)),
            (var_of_sq, (quad_size / n + (sq_size / n) ** 2) * n / (n - 1)))


def assert_near(got, want_and_size, what=""):
    want, size = want_and_size
    assert np.all(np.abs(np.asarray(got) - want) <= ENUMERATION_RTOL * size), (what, got, want)


@st.composite
def enumeration_cases(draw):
    """(instance, policy, b): one to four states with pools of one to five
    documents, values in [0, 1], at least one state visited and possibly
    some not, under a linear or mlp1 softmax policy.  b sits below every
    value (no action below it, so the bound is undefined), inside the
    values, or above them all.  Temperature 0.05 and init scale 5 make
    peaked policies, where the sweeps' expansions cancel the most."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    visited = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    visited[draw(st.integers(0, len(sizes) - 1))] = True
    kind = draw(st.sampled_from(["linear", "mlp1"]))
    temperature = draw(st.sampled_from([0.05, 0.7, 1.0, 2.0]))
    scale = draw(st.sampled_from([0.8, 5.0]))
    b = draw(st.sampled_from([-0.5, 0.5, 1.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dim = 3
    dims = {"feature_dim": dim} if kind == "linear" else {"feature_dim": dim, "hidden": 4}
    policy = SoftmaxPolicy(build_scorer(kind, dims, scale=scale, seed=seed % 1000),
                           temperature=temperature)
    visitation = np.zeros(len(sizes))
    visitation[np.flatnonzero(visited)] = rng.dirichlet(np.ones(sum(visited)))
    instance = pgvar.MDPInstance(
        tuple(Query(f"s{s}") for s in range(len(sizes))),
        tuple(tuple(Document(f"s{s}d{a}", rng.normal(size=dim)) for a in range(size))
              for s, size in enumerate(sizes)),
        tuple(rng.uniform(0.0, 1.0, size=size) for size in sizes),
        visitation)
    return instance, policy, b


class TestStatePassMatchesListReference:
    """Every public enumeration agrees with the list-based reference within
    ENUMERATION_RTOL of the size of the terms it expands; the fields the
    sweeps do not expand (below-baseline mass, anchor, verdicts) are equal."""

    @settings(max_examples=150, deadline=None)
    @given(enumeration_cases())
    def test_exact_routines(self, case):
        instance, policy, b = case
        states = reference_states(instance, policy)
        for baseline in (ConstantBaseline(b), ValueFunctionBaseline()):
            assert_near(pgvar.exact_gradient_mean(instance, policy, baseline),
                        reference_mean(instance, states, baseline), "mean")
            assert_near(pgvar.exact_variance(instance, policy, baseline),
                        reference_variance(instance, states, baseline), "variance")
        part = pgvar.partition_actions(instance, b)
        for got, want in zip(pgvar.variance_decomposition(instance, policy, b),
                             reference_decomposition(instance, states, part)):
            assert_near(got, want, "decomposition")
        report = pgvar.verify_variance_bound(instance, policy, b)
        for field, value in reference_report(instance, states, b).items():
            if isinstance(value, tuple):
                assert_near(getattr(report, field), value, field)
            else:
                assert getattr(report, field) == value, field
        if part.defined:
            for b2 in (0.1, b, 0.9):
                expected = reference_lower_bound(states, b2, part)
                assert_near(pgvar.variance_lower_bound(instance, policy, b2, part), expected)
                assert_near(report.bound_at(b2), expected)
        else:
            with pytest.raises(pgvar.UndefinedBoundError):
                pgvar.variance_lower_bound(instance, policy, b, part)
            with pytest.raises(pgvar.UndefinedBoundError):
                report.bound_at(b)

    @settings(max_examples=100, deadline=None)
    @given(enumeration_cases(), st.sampled_from([2, 5, 300]), st.integers(0, 2**32 - 1))
    def test_mc_variance(self, case, n, seed):
        instance, policy, b = case
        for baseline in (ConstantBaseline(b), ValueFunctionBaseline()):
            rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            estimate, se = pgvar.mc_variance(instance, policy, baseline, n, rng)
            want_estimate, want_var = reference_mc(instance, policy, baseline, n, expected_rng)
            assert_near(estimate, want_estimate, "estimate")
            assert_near(se**2 * n, want_var, "se")
            assert rng.random() == expected_rng.random()


# -- backward into the step's gradient buffer ------------------------------------


def reference_backward(scorer, fwd, weights):
    """sum_i weights[i] * grad f(docs[i]) as one dense vector: each kind's
    tables zeroed, filled with ``np.add.at`` and concatenated in layout
    order, the way ``backward`` built its result before it added into a
    caller's buffer."""
    p, dims = scorer.params, scorer.dims
    w = np.asarray(weights, dtype=np.float64)
    if scorer.kind == "linear":
        (X,) = fwd.saved
        return np.concatenate([X.T @ w, [w.sum()]])
    if scorer.kind == "mlp1":
        X, H = fwd.saved
        aw = (1.0 - H * H) * p.segment("out_w") * w[:, None]
        return np.concatenate([(aw.T @ X).ravel(), aw.sum(axis=0), H.T @ w, [w.sum()]])
    k = dims["embed_dim"]
    if scorer.kind == "matfac":
        qi, rows = fwd.saved
        query_embed = p.segment("query_embed").reshape(-1, k)
        doc_embed = p.segment("doc_embed").reshape(-1, k)
        qe_grad = np.zeros_like(query_embed)
        qe_grad[qi] = doc_embed[rows].T @ w
        de_grad = np.zeros_like(doc_embed)
        np.add.at(de_grad, rows, np.outer(w, query_embed[qi]))
        bias_grad = np.zeros(len(dims["doc_ids"]))
        np.add.at(bias_grad, rows, w)
        return np.concatenate([qe_grad.ravel(), de_grad.ravel(), bias_grad])
    q_idx, eq, d_ids, eds = fwd.saved
    M = p.segment("bilinear").reshape(k, k)
    ed_weighted = np.stack(eds).T @ w
    embed_grad = np.zeros((dims["vocab_size"], k))
    np.add.at(embed_grad, q_idx, (M @ ed_weighted) / len(q_idx))
    lengths = np.array([len(idx) for idx in d_ids])
    per_doc = (w[:, None] * (M.T @ eq)) / lengths[:, None]
    np.add.at(embed_grad, np.concatenate(d_ids), np.repeat(per_doc, lengths, axis=0))
    return np.concatenate([embed_grad.ravel(), np.outer(eq, ed_weighted).ravel()])


def check_backward_matches_reference(scorer, query, docs, weights, seed):
    """``backward`` adds the reference sum into a random non-zero buffer and
    returns that buffer; ``grad_weighted_sum`` is the reference added to
    zeros (which turns a -0.0 entry into +0.0)."""
    fwd = scorer.forward(query, docs)
    reference = reference_backward(scorer, fwd, weights)
    out = np.random.default_rng(seed).normal(size=scorer.params.layout.size)
    expected = out + reference
    assert scorer.backward(fwd, weights, out) is out
    assert out.tobytes() == expected.tobytes()
    assert (scorer.grad_weighted_sum(query, docs, weights).tobytes()
            == (np.zeros(len(reference)) + reference).tobytes())


VOCAB, MATFAC_USERS, MATFAC_ITEMS = 6, 3, 5


def kind_scorer(kind, seed):
    dims = {"linear": {"feature_dim": 3},
            "mlp1": {"feature_dim": 3, "hidden": 2},
            "matfac": {"query_ids": tuple(f"u{i}" for i in range(MATFAC_USERS)),
                       "doc_ids": tuple(f"i{i}" for i in range(MATFAC_ITEMS)),
                       "embed_dim": 3},
            "text": {"vocab_size": VOCAB, "embed_dim": 3}}[kind]
    return build_scorer(kind, dims, scale=0.8, seed=seed)


@st.composite
def backward_cases(draw):
    """A scorer of each kind, a query and a pool of one to six documents.
    Small id spaces repeat tokens within a document, share tokens between
    the query and its documents and repeat matfac document rows; features
    hold zeros, so negative weights give -0.0 entries; weights may be all
    zero or partly zero."""
    kind = draw(st.sampled_from(["linear", "mlp1", "matfac", "text"]))
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(1, 6))
    small = st.integers(-1, 1).map(float)
    if kind in ("linear", "mlp1"):
        query = None
        docs = [Document(f"d{i}", np.array(draw(st.lists(small, min_size=3, max_size=3))))
                for i in range(n)]
    elif kind == "matfac":
        query = Query(f"u{draw(st.integers(0, MATFAC_USERS - 1))}")
        docs = [Document(f"i{draw(st.integers(0, MATFAC_ITEMS - 1))}", tokens=(0,))
                for _ in range(n)]
    else:
        tokens = st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=5).map(tuple)
        query = Query("q", tokens=draw(tokens))
        docs = [Document(f"d{i}", tokens=draw(tokens)) for i in range(n)]
    weights = np.array(draw(st.lists(st.sampled_from([0.0, -0.5, 1.25, -2.0]),
                                     min_size=n, max_size=n)))
    if draw(st.booleans()):
        weights = np.random.default_rng(seed).normal(size=n)
    return kind_scorer(kind, seed), query, docs, weights, seed


class TestBackwardIntoBuffer:
    @settings(max_examples=300, deadline=None)
    @given(backward_cases())
    def test_adds_the_dense_reference(self, case):
        check_backward_matches_reference(*case)

    @pytest.mark.parametrize("kind, query, docs, weights", [
        ("text", Query("q", tokens=(1, 4)),
         [Document("a", tokens=(2, 5, 2, 2)), Document("b", tokens=(4, 1, 2))], [0.7, -1.3]),
        ("text", Query("q", tokens=(3, 3)), [Document("a", tokens=(3,))], [0.0]),
        ("matfac", Query("u1"),
         [Document(f"i{i}", tokens=(0,)) for i in (2, 0, 2, 2)], [0.5, -1.0, 2.0, -0.25]),
        ("matfac", Query("u0"), [Document("i4", tokens=(0,))], [-1.0]),
        ("linear", None, [Document("a", np.zeros(3)), Document("b", np.ones(3))], [-1.0, 0.0]),
        ("mlp1", None, [Document("a", np.array([0.0, 1.0, -1.0]))], [0.0]),
    ], ids=["text-shared-and-repeated-tokens", "text-one-doc-zero-weight",
            "matfac-repeated-rows", "matfac-one-doc", "linear-zero-features",
            "mlp1-one-doc-zero-weight"])
    def test_named_edge_shapes(self, kind, query, docs, weights):
        check_backward_matches_reference(kind_scorer(kind, 5), query, docs,
                                         np.array(weights), 5)


def per_document_text_forward(scorer, query, docs):
    """The text forward with one token array and one ``mean`` per document."""
    k = scorer.dims["embed_dim"]
    E = scorer.params.segment("embed").reshape(-1, k)
    M = scorer.params.segment("bilinear").reshape(k, k)
    q_idx = np.asarray(query.tokens)
    d_ids = [np.asarray(d.tokens) for d in docs]
    eq = E[q_idx].mean(axis=0)
    eds = [E[idx].mean(axis=0) for idx in d_ids]
    lhs = M.T @ eq
    return Forward(np.array([ed @ lhs for ed in eds]), (q_idx, eq, d_ids, eds))


@st.composite
def text_pools(draw):
    """A text scorer, a query and a pool of zero to eight documents of one
    to sixteen tokens, parameters spread over several magnitudes."""
    vocab, k = draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 3, 100]))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-4, 4, size=(vocab + k, 1))
    values = (rng.normal(size=(vocab + k, k)) * scale).ravel()
    scorer = build_scorer("text", {"vocab_size": vocab, "embed_dim": k},
                          ParamVector(values, layout_for("text", {"vocab_size": vocab,
                                                                  "embed_dim": k})))
    tokens = st.lists(st.integers(0, vocab - 1), min_size=1, max_size=16).map(tuple)
    query = Query("q", tokens=draw(tokens))
    docs = [Document(f"d{i}", tokens=draw(tokens)) for i in range(draw(st.integers(0, 8)))]
    return scorer, query, docs, seed


class TestTextForwardOneTokenArray:
    """The text forward checks and gathers a pool's tokens once per call;
    scores, saved means and backward must be those of one ``mean`` per
    document."""

    @settings(max_examples=200, deadline=None)
    @given(text_pools())
    def test_matches_per_document_means(self, case):
        scorer, query, docs, seed = case
        fwd, reference = scorer.forward(query, docs), per_document_text_forward(scorer, query, docs)
        assert fwd.scores.dtype == reference.scores.dtype
        assert fwd.scores.tobytes() == reference.scores.tobytes()
        assert [i.tolist() for i in fwd.saved[2]] == [i.tolist() for i in reference.saved[2]]
        assert np.reshape(fwd.saved[3], -1).tobytes() == np.reshape(
            reference.saved[3], -1).tobytes()
        if docs:
            weights = np.random.default_rng(seed).normal(size=len(docs))
            out = np.random.default_rng(seed + 1).normal(size=scorer.params.layout.size)
            expected = out + reference_backward(scorer, reference, weights)
            assert scorer.backward(fwd, weights, out).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("tokens, message", [
        ([(1,), (7,), (-1,)], "doc 'd1' has token id outside vocabulary"),
        ([(1,), (2, -1), (9,)], "doc 'd1' has token id outside vocabulary"),
        ([(1,), None, (9,)], "text scorer needs tokens; doc 'd1' has none"),
    ], ids=["above-range", "below-range", "no-tokens"])
    def test_error_names_the_first_document_at_fault(self, tokens, message):
        scorer = kind_scorer("text", 3)
        docs = [Document(f"d{i}", np.zeros(1), tokens=t) for i, t in enumerate(tokens)]
        with pytest.raises(RepresentationError, match=message):
            scorer.forward(Query("q", tokens=(0,)), docs)


def peak_bytes(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBackwardAllocatesTouchedRowsOnly:
    """A ``text`` or ``matfac`` backward into an existing buffer allocates in
    proportion to the rows its forward saw, not to the table; the dense
    reference shows what the measure would read for a whole-table gradient."""

    def test_text_pool(self):
        # The QA benchmark's shape: vocabulary 2000, embedding 100, a
        # 20-candidate pool of 8-15 tokens each and a 5-9 token question.
        rng = np.random.default_rng(17)
        scorer = build_scorer("text", {"vocab_size": 2000, "embed_dim": 100}, seed=17)
        tokens = lambda lo, hi: tuple(rng.integers(2000, size=int(rng.integers(lo, hi))).tolist())
        query = Query("q", tokens=tokens(5, 10))
        docs = [Document(f"d{i}", tokens=tokens(8, 16)) for i in range(20)]
        fwd = scorer.forward(query, docs)
        weights, out = rng.normal(size=20), rng.normal(size=scorer.params.layout.size)
        table = scorer.params.segment("embed").nbytes
        assert peak_bytes(lambda: scorer.backward(fwd, weights, out)) < table / 4
        assert peak_bytes(lambda: reference_backward(scorer, fwd, weights)) >= 2 * table

    def test_matfac_pool(self):
        rng = np.random.default_rng(19)
        dims = {"query_ids": tuple(f"u{i}" for i in range(50)),
                "doc_ids": tuple(f"i{i}" for i in range(4000)), "embed_dim": 20}
        scorer = build_scorer("matfac", dims, seed=19)
        docs = [Document(f"i{i}", tokens=(0,)) for i in rng.integers(4000, size=20)]
        fwd = scorer.forward(Query("u7"), docs)
        weights, out = rng.normal(size=20), rng.normal(size=scorer.params.layout.size)
        table = scorer.params.segment("doc_embed").nbytes
        assert peak_bytes(lambda: scorer.backward(fwd, weights, out)) < table / 4
        assert peak_bytes(lambda: reference_backward(scorer, fwd, weights)) >= 2 * table
