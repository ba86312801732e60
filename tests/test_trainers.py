"""Training operations: rewards, baselines, gradient estimators, and the five
training regimes, checked against hand values, finite differences, and
exact enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranklab import trainers
from ranklab.baselines import (
    ConstantBaseline,
    MonteCarloValueBaseline,
    ValueFunctionBaseline,
    parse_baseline,
)
from ranklab.core import Document, Judgment, Query, build_dataset
from ranklab.dataio import SyntheticSpec, synth_retrieval
from ranklab.metrics import evaluate_model, pairwise_accuracy
from ranklab.policy import SoftmaxPolicy, policy_probs, log_prob_gradient, sample_docs
from ranklab.scorers import (
    LinearScorer,
    ParamVector,
    build_scorer,
    layout_for,
    sigmoid,
)
from ranklab.trainers import (
    DEFAULT_TRAIN_CONFIGS,
    InvalidConfigError,
    NumericError,
    RunRecord,
    TrainConfig,
    discriminator_step,
    dns_epoch,
    dual_d_outer_epoch,
    generator_gradient,
    irgan_objective,
    irgan_pairwise_epoch,
    irgan_pointwise_epoch,
    make_reward,
    pretrain_mle,
    resolve_baseline,
    run_trainer,
    single_d_epoch,
)

from conftest import make_docs


def fixed_score_scorer():
    """1-d linear scorer with unit weight and zero bias: feature == score."""
    params = ParamVector(np.array([1.0, 0.0]), layout_for("linear", {"feature_dim": 1}))
    return LinearScorer(params)


def doc_with_score(s, i=0):
    return Document(f"d{i}", np.array([float(s)]))


def count_forwards(monkeypatch, scorer):
    """Route this scorer's ``forward`` through a counter; returns the list that
    receives the query of each call."""
    calls = []
    original = scorer.forward

    def counted(query, docs):
        calls.append(query)
        return original(query, docs)

    monkeypatch.setattr(scorer, "forward", counted)
    return calls


class TestRewards:
    def setup_method(self):
        self.scorer = fixed_score_scorer()

    def reward_at(self, kind, score):
        rewards = make_reward(kind)(self.scorer, None, [doc_with_score(score)])
        assert rewards.shape == (1,)
        return float(rewards[0])

    def test_raw_at_zero(self):
        assert self.reward_at("raw", 0.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_raw_large_negative(self):
        r = self.reward_at("raw", -1000.0)
        assert math.isfinite(r) and 0.0 <= r < 1e-300

    def test_raw_large_positive(self):
        assert self.reward_at("raw", 1000.0) == pytest.approx(1000.0)

    def test_baselined_at_zero(self):
        assert self.reward_at("sigmoid-baselined", 0.0) == 0.0

    def test_baselined_hand_sigmoid(self):
        r = self.reward_at("sigmoid-baselined", math.log(3.0))
        assert r == pytest.approx(0.5, abs=1e-12)

    def test_baselined_saturates_at_one(self):
        r = self.reward_at("sigmoid-baselined", 1000.0)
        assert r == pytest.approx(1.0, abs=1e-10)


class TestValueFunctionBaseline:
    def test_single_doc_pool(self):
        scorer = fixed_score_scorer()
        pool = [doc_with_score(0.3)]
        policy = SoftmaxPolicy(scorer)
        reward = make_reward("sigmoid")
        value = resolve_baseline(ValueFunctionBaseline(), policy_probs(policy, None, pool),
                                 scorer, None, pool, reward, None)
        assert value == pytest.approx(reward(scorer, None, pool)[0])

    def test_uniform_two_docs(self):
        # equal policy scores, rewards approximately (0, 1) via saturated sigmoids
        model = fixed_score_scorer()
        uniform = SoftmaxPolicy(build_scorer("linear", {"feature_dim": 1}, zero=True))
        pool = [doc_with_score(-40.0, 0), doc_with_score(40.0, 1)]
        value = resolve_baseline(ValueFunctionBaseline(), policy_probs(uniform, None, pool),
                                 model, None, pool, make_reward("sigmoid"), None)
        assert value == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("n", [0, 1])
    def test_mc_baseline_needs_two_draws(self, n):
        with pytest.raises(ValueError, match="n >= 2"):
            MonteCarloValueBaseline(n)
        with pytest.raises(ValueError, match="n >= 2"):
            parse_baseline(f"value-mc:{n}")

    @pytest.mark.parametrize("text,spec", [
        ("constant", ConstantBaseline(0.5)), ("constant:0.25", ConstantBaseline(0.25)),
        ("value-exact", ValueFunctionBaseline()), ("value-mc", MonteCarloValueBaseline(1000)),
        ("value-mc:7", MonteCarloValueBaseline(7))])
    def test_parse_baseline(self, text, spec):
        assert parse_baseline(text) == spec

    def test_value_exact_takes_no_argument(self):
        with pytest.raises(ValueError, match="value-exact takes no argument"):
            parse_baseline("value-exact:5")

    def test_mc_within_three_se(self):
        rng = np.random.default_rng(31)
        model = build_scorer("linear", {"feature_dim": 3}, scale=1.0, seed=7)
        policy = SoftmaxPolicy(build_scorer("linear", {"feature_dim": 3}, scale=0.5, seed=8))
        pool = [Document(f"d{i}", rng.normal(size=3)) for i in range(6)]
        reward = make_reward("sigmoid")
        probs = policy_probs(policy, None, pool)
        rewards = reward(model, None, pool)
        exact = resolve_baseline(ValueFunctionBaseline(), probs, model, None, pool,
                                 reward, None)
        n = 100_000
        est = resolve_baseline(MonteCarloValueBaseline(n), probs, model, None, pool,
                               reward, np.random.default_rng(5))
        se = math.sqrt(probs @ (rewards - exact) ** 2 / n)
        assert abs(est - exact) <= 3.0 * se


class TestGeneratorGradient:
    def make_setup(self, n_docs=5, seed=0):
        rng = np.random.default_rng(seed)
        g_scorer = build_scorer("linear", {"feature_dim": 3}, scale=0.5, seed=seed)
        d_scorer = build_scorer("linear", {"feature_dim": 3}, scale=0.8, seed=seed + 1)
        pool = [Document(f"d{i}", rng.normal(size=3)) for i in range(n_docs)]
        return SoftmaxPolicy(g_scorer), d_scorer, pool

    @pytest.mark.parametrize("baseline", [ConstantBaseline(0.2), ValueFunctionBaseline(),
                                          MonteCarloValueBaseline(30)])
    def test_one_policy_pass_per_update(self, monkeypatch, baseline):
        # One generator forward gives both the policy and the gradient.
        policy, model, pool = self.make_setup()
        calls = count_forwards(monkeypatch, policy.scorer)
        generator_gradient(policy, model, None, pool, 3, make_reward("sigmoid"),
                           baseline, np.random.default_rng(0))
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_mc_baseline_draws_as_sample_docs(self, seed):
        policy, model, pool = self.make_setup(seed=seed)
        reward = make_reward("sigmoid")
        probs = policy_probs(policy, None, pool)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = resolve_baseline(MonteCarloValueBaseline(40), probs, model, None, pool,
                               reward, rng)
        want = float(reward(model, None, sample_docs(policy, None, pool, 40, ref_rng)).mean())
        assert got == want
        assert rng.random() == ref_rng.random()

    def test_pool_of_one_gives_zero(self):
        policy, model, pool = self.make_setup(n_docs=1)
        grad = generator_gradient(policy, model, None, pool, 4, make_reward("sigmoid"),
                                  ConstantBaseline(0.0), np.random.default_rng(0))
        np.testing.assert_array_equal(grad, 0.0)

    def test_reward_equal_to_baseline_gives_zero(self):
        policy, model, pool = self.make_setup()
        reward = make_reward("sigmoid")
        same = [pool[0]]  # single-doc pool: reward of every draw == baseline
        probs = policy_probs(policy, None, same)
        exact_value = resolve_baseline(ValueFunctionBaseline(), probs, model, None, same,
                                       reward, None)
        grad = generator_gradient(policy, model, None, same, 3, reward,
                                  ConstantBaseline(exact_value), np.random.default_rng(1))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_matches_enumeration_within_three_se(self):
        policy, model, pool = self.make_setup(n_docs=5, seed=3)
        reward = make_reward("sigmoid-baselined")
        baseline = ConstantBaseline(0.0)
        # independent enumeration oracle: E[g] = sum_d p_d grad log p(d) (r_d - b)
        probs = policy_probs(policy, None, pool)
        exact = sum(
            p * log_prob_gradient(policy, None, pool, d) * (r - 0.0)
            for p, d, r in zip(probs, pool, reward(model, None, pool))
        )
        rng = np.random.default_rng(11)
        n = 100_000
        samples = np.stack([
            generator_gradient(policy, model, None, pool, 1, reward, baseline, rng)
            for _ in range(n)
        ])
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12)

    def test_reward_form_equivalence(self):
        # 2(sigmoid - 0.5) with baseline 0 equals twice (sigmoid with baseline 0.5)
        policy, model, pool = self.make_setup(seed=9)
        a = generator_gradient(policy, model, None, pool, 6,
                               make_reward("sigmoid-baselined"), ConstantBaseline(0.0),
                               np.random.default_rng(42))
        b = generator_gradient(policy, model, None, pool, 6,
                               make_reward("sigmoid"), ConstantBaseline(0.5),
                               np.random.default_rng(42))
        np.testing.assert_allclose(a, 2.0 * b, atol=1e-12)


class TestDiscriminatorStep:
    def test_balanced_zero_scores_objective(self):
        model = build_scorer("linear", {"feature_dim": 2}, zero=True)
        docs = make_docs([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        pairs = [(None, d) for d in docs]
        obj = discriminator_step(model, pairs, pairs, lr=0.0)
        assert obj == pytest.approx(-2.0 * 3 * math.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        model = build_scorer("mlp1", {"feature_dim": 3, "hidden": 2}, scale=0.5, seed=3)
        pos = [(None, Document(f"p{i}", rng.normal(size=3))) for i in range(3)]
        neg = [(None, Document(f"n{i}", rng.normal(size=3))) for i in range(2)]
        lr = 1e-3
        before = model.params.values.copy()
        discriminator_step(model, pos, neg, lr)
        analytic = (model.params.values - before) / lr

        from ranklab.scorers import Mlp1Scorer
        from conftest import fd_gradient, rel_error

        def objective(values):
            fresh = Mlp1Scorer(ParamVector(values, model.params.layout))
            total = 0.0
            for _, d in pos:
                total += math.log(sigmoid(fresh.score(None, d)))
            for _, d in neg:
                total += math.log(1.0 - sigmoid(fresh.score(None, d)))
            return total

        numeric = fd_gradient(objective, before)
        assert rel_error(analytic, numeric) < 1e-4

    def test_single_positive_probability_increases(self):
        model = build_scorer("linear", {"feature_dim": 2}, scale=0.3, seed=4)
        doc = Document("p", np.array([0.4, -0.2]))
        before = float(sigmoid(model.score(None, doc)))
        discriminator_step(model, [(None, doc)], [], lr=0.5)
        assert float(sigmoid(model.score(None, doc))) > before

    def test_empty_step_rejected(self):
        model = build_scorer("linear", {"feature_dim": 2}, zero=True)
        with pytest.raises(ValueError):
            discriminator_step(model, [], [], lr=0.1)

    def test_one_forward_per_query_group(self, monkeypatch):
        # linear lumps every query into one group; matfac groups by query.
        rng = np.random.default_rng(2)
        linear = build_scorer("linear", {"feature_dim": 2}, scale=0.3, seed=4)
        docs = make_docs(rng.normal(size=(5, 2)).tolist())
        calls = count_forwards(monkeypatch, linear)
        discriminator_step(linear, [(None, d) for d in docs[:2]],
                           [(None, d) for d in docs[2:]], lr=0.1)
        assert len(calls) == 2
        dims = {"query_ids": ("u1", "u2", "u3"), "doc_ids": ("i1", "i2"), "embed_dim": 2}
        matfac = build_scorer("matfac", dims, scale=0.3, seed=5)
        users = {u: Query(u) for u in dims["query_ids"]}
        items = [Document(i, tokens=(0,)) for i in dims["doc_ids"]]
        positives = [(users["u1"], items[0]), (users["u2"], items[1]), (users["u1"], items[1])]
        negatives = [(users[u], items[0]) for u in ("u3", "u2", "u1", "u3")]
        calls = count_forwards(monkeypatch, matfac)
        discriminator_step(matfac, positives, negatives, lr=0.1)
        assert [q.id for q in calls] == ["u1", "u2", "u3", "u2", "u1"]


class TestTrainConfig:
    def test_zero_inner_epochs_rejected(self):
        with pytest.raises(InvalidConfigError, match="epochs_inner"):
            TrainConfig(epochs_inner=0)

    def test_negative_lr_rejected(self):
        with pytest.raises(InvalidConfigError, match="learning_rate"):
            TrainConfig(learning_rate=-0.1)

    def test_zero_lr_allowed_for_frozen_runs(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_bad_reward_rejected(self):
        with pytest.raises(InvalidConfigError, match="reward"):
            TrainConfig(reward="bogus")

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfigError, match="seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("name", ["learning_rate", "pretrain_lr", "temperature"])
    def test_non_finite_value_rejected(self, name):
        with pytest.raises(InvalidConfigError, match=f"{name} must be .* finite"):
            TrainConfig(**{name: math.inf})

    def test_default_dns_k_is_five(self):
        assert TrainConfig().dns_k == 5

    def test_pinned_defaults(self):
        web = DEFAULT_TRAIN_CONFIGS["web-single-d"]
        assert (web.learning_rate, web.batch_size, web.seed) == (0.004, 8, 40)
        dual = DEFAULT_TRAIN_CONFIGS["web-dual-d"]
        assert (dual.learning_rate, dual.epochs_outer, dual.epochs_inner) == (0.006, 50, 30)
        rec = DEFAULT_TRAIN_CONFIGS["recommendation"]
        assert (rec.learning_rate, rec.batch_size, rec.seed, rec.dns_k) == (0.02, 10, 70, 5)
        qa = DEFAULT_TRAIN_CONFIGS["qa"]
        assert (qa.learning_rate, qa.epochs_outer, qa.batch_size) == (0.05, 20, 100)


def small_planted(seed=11, num_queries=10, pool_size=12, fraction=0.25, dim=4):
    dataset, _ = synth_retrieval(SyntheticSpec(
        num_queries=num_queries, pool_size=pool_size, relevant_fraction=fraction,
        feature_dim=dim, noise_sigma=0.0, seed=seed))
    return dataset


class TestPretrainMle:
    def test_pool_of_one_relevant_doc_keeps_params(self):
        docs = make_docs([[0.5, 0.5]])
        ds = build_dataset({"q": docs}, [Judgment("q", "d0", 1)], "synthetic")
        scorer = build_scorer("linear", {"feature_dim": 2}, scale=0.2, seed=5)
        before = scorer.params.values.copy()
        pretrain_mle(SoftmaxPolicy(scorer), ds, TrainConfig(epochs_outer=3, learning_rate=0.5))
        np.testing.assert_array_equal(scorer.params.values, before)

    def test_monotone_loglik_on_planted_linear_task(self):
        dataset = small_planted(seed=40, num_queries=20, pool_size=20, fraction=0.1, dim=8)
        scorer = build_scorer("linear", {"feature_dim": 8}, scale=0.1, seed=40)
        cfg = TrainConfig(learning_rate=0.01, epochs_outer=50, seed=40)
        record = pretrain_mle(SoftmaxPolicy(scorer), dataset, cfg)
        series = [v for _, v in record.series("G", "log_likelihood")]
        assert len(series) == 50
        for a, b in zip(series, series[1:]):
            assert b >= a - 1e-9

    def test_seed_determinism_bitwise(self):
        dataset = small_planted()
        results = []
        for _ in range(2):
            scorer = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=3)
            pretrain_mle(SoftmaxPolicy(scorer), dataset,
                         TrainConfig(learning_rate=0.05, epochs_outer=10))
            results.append(scorer.params.values.copy())
        assert np.array_equal(results[0], results[1])

    def test_one_forward_and_one_scoring_pass_per_query_per_epoch(self, monkeypatch):
        docs = {q: make_docs([[1.0], [2.0], [0.5]], prefix=q) for q in ("a", "b", "c")}
        ds = build_dataset(docs, [Judgment("a", "a0", 1), Judgment("b", "b2", 1)],
                           "synthetic")
        scorer = build_scorer("linear", {"feature_dim": 1}, scale=0.2, seed=6)
        calls = count_forwards(monkeypatch, scorer)
        pretrain_mle(SoftmaxPolicy(scorer), ds, TrainConfig(epochs_outer=3))
        assert len(calls) == 2 * 2 * 3  # (step + likelihood) x usable queries x epochs

    def test_queries_without_positives_counted(self):
        docs_a = make_docs([[1.0], [2.0]], prefix="a")
        docs_b = make_docs([[1.0], [2.0]], prefix="b")
        ds = build_dataset({"q1": docs_a, "q2": docs_b},
                           [Judgment("q1", "a0", 1)], "synthetic")
        scorer = build_scorer("linear", {"feature_dim": 1}, zero=True)
        record = pretrain_mle(SoftmaxPolicy(scorer), ds, TrainConfig(epochs_outer=2))
        assert record.series("G", "queries_skipped")[0][1] == 1.0


def fresh_models(dataset, seed=1):
    dim = dataset.feature_dim
    return {
        "G": build_scorer("linear", {"feature_dim": dim}, scale=0.1, seed=seed),
        "D": build_scorer("linear", {"feature_dim": dim}, scale=0.1, seed=seed + 100),
    }


class TestIrganPointwiseEpoch:
    def test_zero_lr_freezes_params_but_records(self):
        dataset = small_planted()
        models = fresh_models(dataset)
        cfg = TrainConfig(learning_rate=0.0, epochs_outer=1)
        g_before = models["G"].params.values.copy()
        d_before = models["D"].params.values.copy()
        policy = SoftmaxPolicy(models["G"], cfg.temperature)
        rows = irgan_pointwise_epoch(policy, models["D"], dataset, cfg,
                                     np.random.default_rng(0), epoch=1)
        np.testing.assert_array_equal(models["G"].params.values, g_before)
        np.testing.assert_array_equal(models["D"].params.values, d_before)
        metrics = {(r.model, r.metric) for r in rows}
        assert ("GAN", "objective") in metrics
        assert ("D", "objective_mean") in metrics
        assert ("G", "reward_mean") in metrics

    def test_seeded_rerun_identical(self):
        dataset = small_planted()
        outputs = []
        for _ in range(2):
            models = fresh_models(dataset)
            cfg = TrainConfig(learning_rate=0.05, epochs_outer=1)
            policy = SoftmaxPolicy(models["G"], cfg.temperature)
            rows = irgan_pointwise_epoch(policy, models["D"], dataset, cfg,
                                         np.random.default_rng(9), epoch=1)
            outputs.append((rows, models["G"].params.values.copy(),
                            models["D"].params.values.copy()))
        assert outputs[0][0] == outputs[1][0]
        assert np.array_equal(outputs[0][1], outputs[1][1])
        assert np.array_equal(outputs[0][2], outputs[1][2])

    def test_zero_lr_keeps_objective_constant_across_epochs(self):
        dataset = small_planted()
        models = fresh_models(dataset)
        cfg = TrainConfig(learning_rate=0.0, epochs_outer=3)
        result = run_trainer("irgan-pointwise", dataset, cfg, models)
        values = [v for _, v in result.record.series("GAN", "objective")]
        assert len(set(values)) == 1


class TestIrganPairwiseEpoch:
    def test_query_with_empty_negative_pool_is_skipped(self):
        docs = make_docs([[1.0], [2.0]])
        ds = build_dataset(
            {"q": docs}, [Judgment("q", "d0", 1), Judgment("q", "d1", 1)], "synthetic"
        )
        models = {"G": build_scorer("linear", {"feature_dim": 1}, scale=0.1, seed=0),
                  "D": build_scorer("linear", {"feature_dim": 1}, scale=0.1, seed=1)}
        cfg = TrainConfig(learning_rate=0.1, epochs_outer=1)
        policy = SoftmaxPolicy(models["G"])
        rows = irgan_pairwise_epoch(policy, models["D"], ds, cfg,
                                    np.random.default_rng(0), epoch=1)
        skipped = next(r.value for r in rows if r.metric == "queries_skipped")
        assert skipped == 1.0

    def test_pairwise_accuracy_after_training(self):
        dataset = small_planted(seed=40, num_queries=15, pool_size=16, fraction=0.25, dim=5)
        models = {"G": build_scorer("linear", {"feature_dim": 5}, scale=0.1, seed=40),
                  "D": build_scorer("linear", {"feature_dim": 5}, scale=0.1, seed=140)}
        cfg = TrainConfig(learning_rate=0.05, epochs_outer=30, seed=40)
        run_trainer("irgan-pairwise", dataset, cfg, models)
        assert pairwise_accuracy(models["D"], dataset) > 0.9

    def test_seeded_determinism(self):
        dataset = small_planted()
        records = []
        for _ in range(2):
            models = fresh_models(dataset)
            cfg = TrainConfig(learning_rate=0.02, epochs_outer=2, seed=77)
            records.append(run_trainer("irgan-pairwise", dataset, cfg, models).record)
        assert records[0] == records[1]


class TestIrganStepKnobs:
    """Per batch, ``d_steps`` discriminator steps come first, then ``g_steps``
    generator updates (IRGAN's d-steps and g-steps)."""

    @pytest.mark.parametrize("epoch_fn,d_step", [
        (irgan_pointwise_epoch, "discriminator_step"),
        (irgan_pairwise_epoch, "discriminator_pair_step"),
    ], ids=["pointwise", "pairwise"])
    def test_steps_per_batch(self, monkeypatch, epoch_fn, d_step):
        dataset = small_planted()  # every query has positives and negatives
        events = []
        for name, tag in ((d_step, "D"), ("_generator_step", "G")):
            def counted(*args, _original=getattr(trainers, name), _tag=tag):
                events.append(_tag)
                return _original(*args)
            monkeypatch.setattr(trainers, name, counted)
        models = fresh_models(dataset)
        cfg = TrainConfig(learning_rate=0.05, batch_size=4, d_steps=2, g_steps=3)
        epoch_fn(SoftmaxPolicy(models["G"]), models["D"], dataset, cfg,
                 np.random.default_rng(0))
        batches = math.ceil(dataset.num_queries / cfg.batch_size)
        assert batches == 3
        assert events == ["D", "D", "G", "G", "G"] * batches


class TestSingleDEpoch:
    def test_uniform_init_samples_uniformly_first_epoch(self):
        from ranklab.policy import discriminator_sampling_probs

        dataset = small_planted()
        model = build_scorer("linear", {"feature_dim": 4}, zero=True)
        q = dataset.queries[0]
        from ranklab.core import candidate_pool

        neg = candidate_pool(dataset, q.id, exclude_positives=True)
        probs = discriminator_sampling_probs(model, q, neg)
        np.testing.assert_allclose(probs, 1.0 / len(neg), atol=1e-12)

    def test_objective_improves(self):
        dataset = small_planted(seed=5)
        model = build_scorer("linear", {"feature_dim": 4}, scale=0.05, seed=6)
        cfg = TrainConfig(learning_rate=0.1, epochs_outer=1)
        rng = np.random.default_rng(2)
        first = single_d_epoch(model, dataset, cfg, rng, epoch=1)[0].value
        for epoch in range(2, 20):
            rows = single_d_epoch(model, dataset, cfg, rng, epoch)
        assert rows[0].value > first

    def test_seeded_determinism(self):
        dataset = small_planted()
        finals = []
        for _ in range(2):
            model = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=1)
            cfg = TrainConfig(learning_rate=0.05, epochs_outer=3, seed=5)
            run_trainer("single-d", dataset, cfg, {"M": model})
            finals.append(model.params.values.copy())
        assert np.array_equal(finals[0], finals[1])


def snapshot_dual_d_outer_epoch(model_a, model_b, dataset, cfg, rng, epoch=1):
    """Reference co-training outer epoch: each model trains against a copy of
    its partner taken at the start of the outer epoch."""
    phase_seed = int(rng.integers(2**63))
    snap_a, snap_b = model_a.clone(), model_b.clone()
    entries, skipped = trainers._negative_entries(dataset, cfg)
    rows = []
    for model, frozen, other, tag in ((model_a, snap_b, model_b, "A"),
                                      (model_b, snap_a, model_a, "B")):
        partner_sum = other.checksum()
        table = trainers._sampler_table(frozen, entries)
        phase_rng = np.random.default_rng(phase_seed)
        mean_obj = 0.0
        for _ in range(cfg.epochs_inner):
            mean_obj = trainers._contrastive_batches(model, table, entries, cfg, phase_rng)
        assert other.checksum() == partner_sum
        rows.append(trainers.RunRow(epoch, tag, "objective_mean", mean_obj))
        rows.append(trainers.RunRow(epoch, tag, "queries_skipped", skipped))
    return rows


class TestDualDOuterEpoch:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["linear", "mlp1"]), st.integers(1, 4), st.integers(2, 10),
           st.floats(0.1, 0.6), st.integers(0, 1000), st.integers(1, 3), st.integers(1, 8),
           st.integers(1, 3))
    def test_matches_snapshot_reference(self, kind, num_queries, pool_size, fraction, seed,
                                        epochs_inner, batch_size, outer_epochs):
        dataset, _ = synth_retrieval(SyntheticSpec(
            num_queries=num_queries, pool_size=pool_size, relevant_fraction=fraction,
            feature_dim=3, seed=seed))
        cfg = TrainConfig(learning_rate=0.2, epochs_inner=epochs_inner, batch_size=batch_size)
        runs = []
        for outer_epoch in (dual_d_outer_epoch, snapshot_dual_d_outer_epoch):
            a, b = (build_scorer(kind, {"feature_dim": 3, "hidden": 3}, scale=0.5,
                                 seed=seed + i) for i in (0, 1))
            rng = np.random.default_rng(seed)
            rows = [outer_epoch(a, b, dataset, cfg, rng, epoch)
                    for epoch in range(1, outer_epochs + 1)]
            runs.append((a.params.values.tobytes(), b.params.values.tobytes(), rows))
        assert runs[0] == runs[1]

    def test_identical_initialization_stays_identical(self):
        dataset = small_planted()
        a = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=3)
        b = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=3)
        cfg = TrainConfig(learning_rate=0.1, epochs_outer=1, epochs_inner=3)
        dual_d_outer_epoch(a, b, dataset, cfg, np.random.default_rng(8), epoch=1)
        np.testing.assert_array_equal(a.params.values, b.params.values)
        # and they did actually move
        fresh = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=3)
        assert not np.array_equal(a.params.values, fresh.params.values)

    def test_distinct_models_diverge_but_stay_deterministic(self):
        dataset = small_planted()
        runs = []
        for _ in range(2):
            a = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=3)
            b = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=4)
            cfg = TrainConfig(learning_rate=0.1, epochs_outer=2, epochs_inner=2, seed=21)
            result = run_trainer("dual-d", dataset, cfg, {"A": a, "B": b})
            runs.append((a.params.values.copy(), b.params.values.copy(), result.chosen))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]
        assert not np.array_equal(runs[0][0], runs[0][1])

    def test_chosen_model_reported(self):
        dataset = small_planted()
        a = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=3)
        b = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=4)
        cfg = TrainConfig(learning_rate=0.05, epochs_outer=1, epochs_inner=1, seed=2)
        result = run_trainer("dual-d", dataset, cfg, {"A": a, "B": b})
        assert result.chosen in ("A", "B")


class TestDnsEpoch:
    def test_full_pool_dns_picks_hardest(self):
        docs = make_docs([[0.1], [0.9], [0.5], [0.7]])
        ds = build_dataset({"q": docs}, [Judgment("q", "d0", 1)], "synthetic")
        model = fixed_score_scorer()  # score == feature
        cfg = TrainConfig(learning_rate=0.0, dns_k=3, epochs_outer=1)
        # dns_k == negative-pool size: the unique hardest negative is d1 (0.9);
        # with lr=0 the scores never move, so check via a tracking subclass
        chosen = []

        class Tracker(LinearScorer):
            def score_many(self, query, docs_):
                out = super().score_many(query, docs_)
                if len(docs_) == 3:  # the sampled candidate set
                    chosen.append(docs_[int(np.argmax(out))].id)
                return out

        tracker = Tracker(model.params)
        dns_epoch(tracker, ds, cfg, np.random.default_rng(0), epoch=1)
        assert chosen == ["d1"]

    def test_dns_k_one_is_uniform(self):
        docs = make_docs([[0.0], [5.0], [-5.0]])
        ds = build_dataset({"q": docs}, [Judgment("q", "d0", 1)], "synthetic")
        model = fixed_score_scorer()
        cfg = TrainConfig(learning_rate=0.0, dns_k=1, epochs_outer=1)
        rng = np.random.default_rng(3)
        counts = {"d1": 0, "d2": 0}

        class Tracker(LinearScorer):
            def score_many(self, query, docs_):
                out = super().score_many(query, docs_)
                if len(docs_) == 1 and docs_[0].id in counts:
                    counts[docs_[0].id] += 1
                return out

        tracker = Tracker(model.params)
        n = 2000
        for epoch in range(1, n + 1):
            dns_epoch(tracker, ds, cfg, rng, epoch)
        freq = counts["d1"] / (counts["d1"] + counts["d2"])
        assert abs(freq - 0.5) < 0.05  # uniform despite d1 scoring far higher

    def test_seeded_determinism(self):
        dataset = small_planted()
        finals = []
        for _ in range(2):
            model = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=2)
            cfg = TrainConfig(learning_rate=0.05, epochs_outer=3, dns_k=4, seed=9)
            run_trainer("dns", dataset, cfg, {"D": model})
            finals.append(model.params.values.copy())
        assert np.array_equal(finals[0], finals[1])


class TestIrganObjective:
    def test_constant_half_discriminator(self):
        dataset = small_planted(num_queries=6)
        generator = SoftmaxPolicy(build_scorer("linear", {"feature_dim": 4}, scale=0.3, seed=1))
        flat = build_scorer("linear", {"feature_dim": 4}, zero=True)  # D == 0.5
        value = irgan_objective(generator, flat, dataset)
        assert value == pytest.approx(-2.0 * math.log(2.0) * dataset.num_queries, abs=1e-9)

    def test_large_pool_is_enumerated(self):
        # one query with a 1200-document pool: the objective still enumerates
        # it and matches a test-side exact computation
        rng = np.random.default_rng(12)
        n_docs = 1200
        docs = [Document(f"d{i:05d}", rng.normal(size=3)) for i in range(n_docs)]
        ds = build_dataset({"q": docs}, [Judgment("q", docs[0].id, 1)], "synthetic")
        generator = SoftmaxPolicy(build_scorer("linear", {"feature_dim": 3}, scale=0.4, seed=3))
        model = build_scorer("linear", {"feature_dim": 3}, scale=0.6, seed=4)

        q = ds.queries[0]
        pool = ds.pool(q.id)
        probs = policy_probs(generator, q, pool)
        log_one_minus_d = np.log(1.0 - np.array(
            [float(sigmoid(model.score(q, d))) for d in pool]
        ))
        exact_second = float(probs @ log_one_minus_d)
        first = math.log(sigmoid(model.score(q, pool[0])))
        exact = first + exact_second

        assert irgan_objective(generator, model, ds) == pytest.approx(exact, abs=1e-12)


class TestRunTrainer:
    def test_unknown_trainer_rejected(self):
        dataset = small_planted()
        with pytest.raises(InvalidConfigError, match="bogus"):
            run_trainer("bogus", dataset, TrainConfig(), {})

    def test_wrong_roles_rejected(self):
        dataset = small_planted()
        with pytest.raises(InvalidConfigError, match="models"):
            run_trainer("single-d", dataset, TrainConfig(),
                        {"D": build_scorer("linear", {"feature_dim": 4}, zero=True)})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_params_abort(self):
        # zero-init scores make the first weight gradient exactly 1000, so one
        # step at lr 1e306 overflows the weight to inf
        docs = make_docs([[1000.0], [-1000.0]])
        ds = build_dataset({"q": docs}, [Judgment("q", "d0", 1)], "synthetic")
        model = build_scorer("linear", {"feature_dim": 1}, zero=True)
        cfg = TrainConfig(learning_rate=1e306, epochs_outer=2)
        with pytest.raises(NumericError):
            run_trainer("single-d", ds, cfg, {"M": model})

    def test_eval_rows_recorded(self):
        dataset = small_planted()
        model = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=0)
        cfg = TrainConfig(learning_rate=0.05, epochs_outer=2)
        result = run_trainer("single-d", dataset, cfg, {"M": model},
                             eval_dataset=dataset, metric_names=("p@5",))
        epochs = [e for e, _ in result.record.series("M", "p@5")]
        assert epochs == [0, 1, 2]

    def test_result_keeps_the_last_epochs_reports(self):
        dataset = small_planted()
        models = {tag: build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=seed)
                  for tag, seed in (("A", 0), ("B", 1))}
        cfg = TrainConfig(learning_rate=0.05, epochs_outer=2, epochs_inner=2)
        result = run_trainer("dual-d", dataset, cfg, models,
                             eval_dataset=dataset, metric_names=("p@5", "ndcg@5"))
        assert sorted(result.reports) == ["A", "B"]
        for tag, report in result.reports.items():
            assert report == evaluate_model(result.models[tag], dataset, ("p@5", "ndcg@5"))
            for metric, value in report.values.items():
                assert result.record.series(tag, metric)[-1] == (2, value)

    def test_no_reports_without_an_evaluation_dataset(self):
        model = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=0)
        result = run_trainer("single-d", small_planted(), TrainConfig(epochs_outer=1),
                             {"M": model})
        assert result.reports == {}

    @pytest.mark.parametrize("name", ["irgan-pointwise", "irgan-pairwise"])
    def test_pretraining_rows_tagged_apart_from_adversarial_rows(self, name):
        dataset = small_planted()
        models = {"G": build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=1),
                  "D": build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=2)}
        cfg = TrainConfig(learning_rate=0.05, epochs_outer=2, pretrain_epochs=3)
        result = run_trainer(name, dataset, cfg, models,
                             eval_dataset=dataset, metric_names=("p@5",))
        record = result.record
        assert [e for e, _ in record.series("G-pretrain", "log_likelihood")] == [1, 2, 3]
        assert [e for e, _ in record.series("G-pretrain", "queries_skipped")] == [1, 2, 3]
        assert [e for e, _ in record.series("G", "queries_skipped")] == [1, 2]
        assert [e for e, _ in record.series("G", "p@5")] == [0, 1, 2]

    def test_pretraining_rows_match_pretrain_mle(self):
        dataset = small_planted()
        g = build_scorer("linear", {"feature_dim": 4}, scale=0.1, seed=1)
        cfg = TrainConfig(learning_rate=0.05, epochs_outer=1, pretrain_epochs=2,
                          pretrain_lr=0.02)
        result = run_trainer("irgan-pointwise", dataset, cfg,
                             {"G": g.clone(), "D": build_scorer("linear", {"feature_dim": 4})})
        alone = pretrain_mle(SoftmaxPolicy(g), dataset,
                             TrainConfig(learning_rate=0.02, epochs_outer=2))
        tagged = [(r.epoch, r.metric, r.value) for r in result.record.rows
                  if r.model == "G-pretrain"]
        assert tagged == [(r.epoch, r.metric, r.value) for r in alone.rows]


class TestRunRecord:
    def test_epochs_strictly_increasing_per_key(self):
        record = RunRecord()
        record.append(1, "M", "loss", 0.5)
        with pytest.raises(ValueError):
            record.append(1, "M", "loss", 0.4)
        record.append(1, "M", "other", 0.1)  # different key is fine
        record.append(2, "M", "loss", 0.4)

    def test_csv_round_trip(self, tmp_path):
        record = RunRecord()
        record.append(1, "M", "loss", 0.5)
        record.append(2, "M", "loss", 0.25)
        record.append(2, "M", "p@5", 0.125)
        path = tmp_path / "curves.csv"
        record.to_csv(path)
        assert RunRecord.from_csv(path) == record
        assert path.read_text().splitlines()[0] == "epoch,model,metric,value"
