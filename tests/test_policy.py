"""Softmax policy distribution, sampling fidelity, and log-prob gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ranklab.core import Document, EmptyPoolError
from ranklab.policy import (
    SoftmaxPolicy,
    log_prob_gradient,
    normalized_discriminator_sampling,
    policy_probs,
    sample_docs,
)
from ranklab.scorers import LinearScorer, ParamVector, build_scorer, layout_for

from conftest import fd_gradient, rel_error


def scored_pool(scores):
    """1-d linear scorer with unit weight: doc feature == its score."""
    params = ParamVector(np.array([1.0, 0.0]), layout_for("linear", {"feature_dim": 1}))
    scorer = LinearScorer(params)
    pool = [Document(f"d{i}", np.array([float(s)])) for i, s in enumerate(scores)]
    return scorer, pool


class TestPolicyProbs:
    def test_equal_scores_uniform(self):
        scorer, pool = scored_pool([2.0, 2.0, 2.0])
        probs = policy_probs(SoftmaxPolicy(scorer), None, pool)
        np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-12)

    def test_hand_softmax(self):
        scorer, pool = scored_pool([math.log(2.0), 0.0])
        probs = policy_probs(SoftmaxPolicy(scorer, 1.0), None, pool)
        np.testing.assert_allclose(probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_high_temperature_flattens(self):
        scorer, pool = scored_pool([5.0, -3.0, 1.0])
        probs = policy_probs(SoftmaxPolicy(scorer, 1e6), None, pool)
        assert np.abs(probs - 1 / 3).max() < 1e-4

    def test_empty_pool_rejected(self):
        scorer, _ = scored_pool([1.0])
        with pytest.raises(EmptyPoolError):
            policy_probs(SoftmaxPolicy(scorer), None, [])

    def test_nonpositive_temperature_rejected(self):
        scorer, _ = scored_pool([1.0])
        with pytest.raises(ValueError):
            SoftmaxPolicy(scorer, 0.0)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
           st.floats(min_value=0.01, max_value=100.0))
    def test_valid_distribution(self, scores, temperature):
        scorer, pool = scored_pool(scores)
        probs = policy_probs(SoftmaxPolicy(scorer, temperature), None, pool)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=6),
           st.floats(min_value=-30, max_value=30))
    def test_shift_invariance(self, scores, shift):
        scorer, pool = scored_pool(scores)
        shifted_scorer, shifted_pool = scored_pool([s + shift for s in scores])
        a = policy_probs(SoftmaxPolicy(scorer), None, pool)
        b = policy_probs(SoftmaxPolicy(shifted_scorer), None, shifted_pool)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSampleDocs:
    def test_singleton_pool(self):
        scorer, pool = scored_pool([1.0])
        docs = sample_docs(SoftmaxPolicy(scorer), None, pool, 5, np.random.default_rng(0))
        assert [d.id for d in docs] == ["d0"] * 5

    def test_seed_determinism(self):
        scorer, pool = scored_pool([0.3, -0.2, 1.5])
        policy = SoftmaxPolicy(scorer)
        a = sample_docs(policy, None, pool, 20, np.random.default_rng(3))
        b = sample_docs(policy, None, pool, 20, np.random.default_rng(3))
        assert [d.id for d in a] == [d.id for d in b]

    def test_empirical_frequency(self):
        # probs (2/3, 1/3) from scores (ln 2, 0)
        scorer, pool = scored_pool([math.log(2.0), 0.0])
        docs = sample_docs(SoftmaxPolicy(scorer), None, pool, 100_000,
                           np.random.default_rng(17))
        freq = sum(d.id == "d0" for d in docs) / len(docs)
        assert abs(freq - 2 / 3) < 0.01

    def test_k_must_be_positive(self):
        scorer, pool = scored_pool([1.0])
        with pytest.raises(ValueError):
            sample_docs(SoftmaxPolicy(scorer), None, pool, 0, np.random.default_rng(0))


class TestLogProbGradient:
    def test_singleton_pool_zero_gradient(self):
        scorer, pool = scored_pool([2.0])
        grad = log_prob_gradient(SoftmaxPolicy(scorer), None, pool, pool[0])
        np.testing.assert_array_equal(grad, 0.0)

    def test_doc_not_in_pool(self):
        scorer, pool = scored_pool([1.0, 2.0])
        with pytest.raises(ValueError):
            log_prob_gradient(SoftmaxPolicy(scorer), None, pool, Document("zz", np.array([0.0])))

    @pytest.mark.parametrize("temperature", [1.0, 2.5])
    def test_finite_difference_check(self, temperature):
        rng = np.random.default_rng(23)
        for trial in range(10):
            scorer = build_scorer("linear", {"feature_dim": 3}, scale=0.6, seed=trial)
            pool = [Document(f"d{i}", rng.normal(size=3)) for i in range(5)]
            target = pool[int(rng.integers(5))]
            policy = SoftmaxPolicy(scorer, temperature)
            analytic = log_prob_gradient(policy, None, pool, target)

            def f(values):
                fresh = LinearScorer(ParamVector(values, scorer.params.layout))
                probs = policy_probs(SoftmaxPolicy(fresh, temperature), None, pool)
                idx = [d.id for d in pool].index(target.id)
                return float(np.log(probs[idx]))

            numeric = fd_gradient(f, scorer.params.values)
            assert rel_error(analytic, numeric) < 1e-4

    def test_score_function_identity_by_enumeration(self):
        rng = np.random.default_rng(4)
        scorer = build_scorer("mlp1", {"feature_dim": 3, "hidden": 2}, scale=0.5, seed=19)
        pool = [Document(f"d{i}", rng.normal(size=3)) for i in range(6)]
        policy = SoftmaxPolicy(scorer, 1.3)
        probs = policy_probs(policy, None, pool)
        total = sum(p * log_prob_gradient(policy, None, pool, d)
                    for p, d in zip(probs, pool))
        assert np.linalg.norm(total) < 1e-10


class TestNormalizedDiscriminatorSampling:
    def test_equal_scores_uniform(self):
        scorer, pool = scored_pool([0.7, 0.7])
        docs = normalized_discriminator_sampling(scorer, None, pool, 40_000,
                                                 np.random.default_rng(2))
        freq = sum(d.id == "d0" for d in docs) / len(docs)
        assert abs(freq - 0.5) < 0.01

    def test_differs_from_softmax(self):
        # scores (0, ln 3): softmax gives (0.25, 0.75) but sigma-normalized
        # weights (0.5, 0.75) give (0.4, 0.6)
        scorer, pool = scored_pool([0.0, math.log(3.0)])
        from ranklab.policy import discriminator_sampling_probs

        softmax = policy_probs(SoftmaxPolicy(scorer, 1.0), None, pool)
        np.testing.assert_allclose(softmax, [0.25, 0.75], atol=1e-12)
        sig = discriminator_sampling_probs(scorer, None, pool)
        np.testing.assert_allclose(sig, [0.4, 0.6], atol=1e-12)

    def test_empirical_frequency(self):
        scorer, pool = scored_pool([0.0, math.log(3.0)])
        docs = normalized_discriminator_sampling(scorer, None, pool, 100_000,
                                                 np.random.default_rng(5))
        freq = sum(d.id == "d0" for d in docs) / len(docs)
        assert abs(freq - 0.4) < 0.01

    def test_empty_pool(self):
        scorer, _ = scored_pool([1.0])
        with pytest.raises(EmptyPoolError):
            normalized_discriminator_sampling(scorer, None, [], 1, np.random.default_rng(0))
