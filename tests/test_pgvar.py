"""Variance laboratory: exact enumeration, Monte-Carlo agreement, the
below/above-baseline decomposition, and the lower-bound chain."""

import math
import tracemalloc

import numpy as np
import pytest

from ranklab import pgvar
from ranklab.baselines import ConstantBaseline, ValueFunctionBaseline
from ranklab.core import Document, Query, build_dataset
from ranklab.pgvar import (
    EnumerationLimitError,
    MDPInstance,
    StudyConfig,
    UndefinedBoundError,
    build_instance,
    exact_gradient_mean,
    exact_variance,
    gradient_sample,
    mc_variance,
    partition_actions,
    sparsity_vs_bound_study,
    variance_decomposition,
    variance_lower_bound,
    verify_variance_bound,
    write_study_csv,
)
from ranklab.policy import SoftmaxPolicy, log_prob_gradient, policy_probs
from ranklab.scorers import LinearScorer, ParamVector, build_scorer, layout_for
from ranklab._util import read_csv


def two_action_hand_instance():
    """One state, two actions, probabilities (1/2, 1/2), score-gradient
    components (+0.5, -0.5) on the weight axis, values (1, 1).

    With baseline 0 the sampled gradients are (+-0.5, 0), the mean is zero,
    and the exact variance is 0.25.
    """
    scorer = build_scorer("linear", {"feature_dim": 1}, zero=True)
    policy = SoftmaxPolicy(scorer, temperature=2.0)
    pool = (Document("a", np.array([1.0])), Document("b", np.array([-1.0])))
    instance = MDPInstance(
        states=(Query("s"),), pools=(pool,),
        q_values=(np.array([1.0, 1.0]),), visitation=np.array([1.0]),
    )
    return instance, policy


def random_instance(seed, max_states=4, max_actions=8, dim=3, q_low=-1.0, q_high=2.0):
    """Unstructured random instance for identity checks."""
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(1, max_states + 1))
    states, pools, qvals = [], [], []
    for s in range(n_states):
        n_actions = int(rng.integers(2, max_actions + 1))
        states.append(Query(f"s{s}"))
        pools.append(tuple(
            Document(f"s{s}d{a}", rng.normal(size=dim)) for a in range(n_actions)
        ))
        qvals.append(rng.uniform(q_low, q_high, size=n_actions))
    visitation = rng.dirichlet(np.ones(n_states))
    scorer = build_scorer("linear", {"feature_dim": dim}, scale=0.5,
                          seed=int(rng.integers(2**31)))
    policy = SoftmaxPolicy(scorer, temperature=1.0)
    instance = MDPInstance(tuple(states), tuple(pools), tuple(qvals), visitation)
    return instance, policy


def low_reward_instance(seed, b=0.5, with_rare_high_action=False):
    """Values in [0, 0.2] (all below b = 0.5); optionally one action valued at
    0.7 whose policy probability is ~e^-6, keeping the below-baseline mass
    above 0.99."""
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(2, 5))
    dim = 3
    w = np.zeros(dim + 1)
    w[0] = 1.0  # score = first feature
    scorer = LinearScorer(ParamVector(w, layout_for("linear", {"feature_dim": dim})))
    policy = SoftmaxPolicy(scorer, temperature=1.0)
    states, pools, qvals = [], [], []
    for s in range(n_states):
        n_actions = int(rng.integers(5, 20))
        feats = rng.uniform(-0.5, 0.5, size=(n_actions, dim))
        q = rng.uniform(0.0, 0.2, size=n_actions)
        if with_rare_high_action and s == 0:
            feats[0, 0] = -6.0  # policy probability ~ e^-6 relative to the rest
            q[0] = 0.7
        states.append(Query(f"s{s}"))
        pools.append(tuple(
            Document(f"s{s}d{a}", feats[a]) for a in range(n_actions)
        ))
        qvals.append(q)
    visitation = rng.dirichlet(np.ones(n_states))
    return MDPInstance(tuple(states), tuple(pools), tuple(qvals), visitation), policy


class TestBuildInstance:
    def test_sigmoid_value_table(self):
        pool = [Document("a", np.array([0.0])), Document("b", np.array([math.log(3.0)]))]
        ds = build_dataset({"q": pool}, [], "synthetic")
        scorer = LinearScorer(ParamVector(np.array([1.0, 0.0]),
                                          layout_for("linear", {"feature_dim": 1})))
        instance = build_instance(ds, scorer, "sigmoid")
        np.testing.assert_allclose(instance.q_values[0], [0.5, 0.75], atol=1e-12)

    def test_uniform_visitation(self):
        pools = {f"q{i}": [Document(f"q{i}d", np.array([0.0]))] for i in range(4)}
        ds = build_dataset(pools, [], "synthetic")
        scorer = build_scorer("linear", {"feature_dim": 1}, zero=True)
        instance = build_instance(ds, scorer)
        np.testing.assert_allclose(instance.visitation, 0.25)

    def test_empty_judgments_fine(self):
        pool = [Document("a", np.array([1.0]))]
        ds = build_dataset({"q": pool}, [], "synthetic")
        scorer = build_scorer("linear", {"feature_dim": 1}, zero=True)
        assert build_instance(ds, scorer).total_pairs == 1

    def test_raw_reward_kind(self):
        pool = [Document("a", np.array([0.0]))]
        ds = build_dataset({"q": pool}, [], "synthetic")
        scorer = build_scorer("linear", {"feature_dim": 1}, zero=True)
        instance = build_instance(ds, scorer, "raw")
        assert instance.q_values[0][0] == pytest.approx(math.log(2.0))


class TestGradientSample:
    def test_baseline_equal_to_value_gives_zero(self):
        instance, policy = two_action_hand_instance()
        g = gradient_sample(instance, policy, ConstantBaseline(1.0),
                            np.random.default_rng(0))
        np.testing.assert_array_equal(g, 0.0)

    def test_single_action_states_give_zero(self):
        scorer = build_scorer("linear", {"feature_dim": 2}, scale=0.4, seed=1)
        instance = MDPInstance(
            states=(Query("s0"), Query("s1")),
            pools=(
                (Document("d0", np.array([1.0, 2.0])),),
                (Document("d1", np.array([-1.0, 0.5])),),
            ),
            q_values=(np.array([3.0]), np.array([-2.0])),
            visitation=np.array([0.5, 0.5]),
        )
        for seed in range(5):
            g = gradient_sample(instance, SoftmaxPolicy(scorer),
                                ConstantBaseline(0.0), np.random.default_rng(seed))
            np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_empirical_mean_matches_exact(self):
        instance, policy = random_instance(7)
        baseline = ConstantBaseline(0.3)
        exact = exact_gradient_mean(instance, policy, baseline)
        rng = np.random.default_rng(13)
        n = 100_000
        samples = np.stack([
            gradient_sample(instance, policy, baseline, rng) for _ in range(n)
        ])
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12)


class TestExactGradientMean:
    def test_constant_values_give_zero(self):
        instance, policy = random_instance(3)
        flat = MDPInstance(instance.states, instance.pools,
                           tuple(np.full(len(p), 0.7) for p in instance.pools),
                           instance.visitation)
        mean = exact_gradient_mean(flat, policy, ConstantBaseline(0.2))
        np.testing.assert_allclose(mean, 0.0, atol=1e-12)

    def test_symmetric_two_action_zero(self):
        instance, policy = two_action_hand_instance()
        mean = exact_gradient_mean(instance, policy, ConstantBaseline(0.0))
        np.testing.assert_allclose(mean, 0.0, atol=1e-15)

    def test_matches_independent_direct_summation(self):
        instance, policy = random_instance(19)
        baseline = ConstantBaseline(0.4)
        # independent oracle: explicit double loop over states and actions
        # using the policy module's own log-prob gradient
        oracle = np.zeros(policy.scorer.params.layout.size)
        for s, rho in enumerate(instance.visitation):
            pool = list(instance.pools[s])
            probs = policy_probs(policy, instance.states[s], pool)
            for a, doc in enumerate(pool):
                glog = log_prob_gradient(policy, instance.states[s], pool, doc)
                oracle += rho * probs[a] * glog * (instance.q_values[s][a] - 0.4)
        fast = exact_gradient_mean(instance, policy, baseline)
        np.testing.assert_allclose(fast, oracle, atol=1e-10)

    def test_enumeration_cap(self):
        rng = np.random.default_rng(0)
        pool = tuple(Document(f"d{i}", rng.normal(size=1)) for i in range(11))
        instance = MDPInstance((Query("s"),), (pool,),
                               (np.zeros(11),), np.array([1.0]))
        policy = SoftmaxPolicy(build_scorer("linear", {"feature_dim": 1}, zero=True))
        import ranklab.pgvar as pgvar

        old = pgvar.ENUMERATION_LIMIT
        pgvar.ENUMERATION_LIMIT = 10
        try:
            with pytest.raises(EnumerationLimitError):
                exact_gradient_mean(instance, policy, ConstantBaseline(0.0))
        finally:
            pgvar.ENUMERATION_LIMIT = old


class TestExactVariance:
    def test_deterministic_outcome_zero(self):
        scorer = build_scorer("linear", {"feature_dim": 1}, scale=0.3, seed=0)
        instance = MDPInstance((Query("s"),),
                               ((Document("d", np.array([1.0])),),),
                               (np.array([2.0]),), np.array([1.0]))
        assert exact_variance(instance, SoftmaxPolicy(scorer), ConstantBaseline(0.0)) == 0.0

    def test_baseline_matching_all_values_zero(self):
        instance, policy = random_instance(5)
        flat = MDPInstance(instance.states, instance.pools,
                           tuple(np.full(len(p), 1.3) for p in instance.pools),
                           instance.visitation)
        v = exact_variance(flat, policy, ConstantBaseline(1.3))
        assert v == pytest.approx(0.0, abs=1e-20)

    def test_hand_enumerated_quarter(self):
        instance, policy = two_action_hand_instance()
        v = exact_variance(instance, policy, ConstantBaseline(0.0))
        assert v == pytest.approx(0.25, abs=1e-12)

    def test_value_function_baseline_never_worse_than_far_constant(self):
        # with all values far below 0.5, centering at the per-state mean value
        # must shrink the exact variance
        instance, policy = low_reward_instance(23)
        far = exact_variance(instance, policy, ConstantBaseline(0.5))
        centered = exact_variance(instance, policy, ValueFunctionBaseline())
        assert centered < far


class TestMcVariance:
    def test_zero_variance_instance(self):
        scorer = build_scorer("linear", {"feature_dim": 1}, scale=0.3, seed=0)
        instance = MDPInstance((Query("s"),),
                               ((Document("d", np.array([1.0])),),),
                               (np.array([2.0]),), np.array([1.0]))
        est, se = mc_variance(instance, SoftmaxPolicy(scorer), ConstantBaseline(0.0),
                              1000, np.random.default_rng(0))
        assert est == 0.0 and se == 0.0

    def test_matches_exact_within_three_se(self):
        instance, policy = two_action_hand_instance()
        exact = exact_variance(instance, policy, ConstantBaseline(0.0))
        est, se = mc_variance(instance, policy, ConstantBaseline(0.0),
                              100_000, np.random.default_rng(3))
        assert abs(est - exact) <= 3.0 * se

    def test_seed_reproducible(self):
        instance, policy = random_instance(9)
        a = mc_variance(instance, policy, ConstantBaseline(0.1), 5000,
                        np.random.default_rng(21))
        b = mc_variance(instance, policy, ConstantBaseline(0.1), 5000,
                        np.random.default_rng(21))
        assert a == b

    def test_needs_two_samples(self):
        instance, policy = two_action_hand_instance()
        with pytest.raises(ValueError):
            mc_variance(instance, policy, ConstantBaseline(0.0), 1,
                        np.random.default_rng(0))

    def test_coverage_over_many_trials(self):
        # |mc - exact| <= 3 SE should hold in at least 99% of seeded trials
        instance, policy = random_instance(31)
        baseline = ConstantBaseline(0.25)
        exact = exact_variance(instance, policy, baseline)
        hits = 0
        trials = 1000
        for seed in range(trials):
            est, se = mc_variance(instance, policy, baseline, 2000,
                                  np.random.default_rng(seed))
            hits += abs(est - exact) <= 3.0 * se
        assert hits >= 990


class TestPartitionActions:
    def simple_instance(self, values):
        pool = tuple(Document(f"d{i}", np.array([0.0])) for i in range(len(values)))
        return MDPInstance((Query("s"),), (pool,),
                           (np.asarray(values, dtype=float),), np.array([1.0]))

    def test_split_at_half(self):
        part = partition_actions(self.simple_instance([0.2, 0.7]), 0.5)
        assert part.below[0].tolist() == [0]
        assert part.above[0].tolist() == [1]
        assert part.max_below == pytest.approx(0.2)

    def test_high_baseline_catches_all(self):
        part = partition_actions(self.simple_instance([0.2, 0.7]), 0.9)
        assert part.below[0].tolist() == [0, 1]
        assert part.above[0].tolist() == []
        assert part.max_below == pytest.approx(0.7)

    def test_low_baseline_undefined_anchor(self):
        part = partition_actions(self.simple_instance([0.2, 0.7]), 0.1)
        assert part.below[0].size == 0
        assert part.max_below is None
        assert not part.defined

    def test_boundary_value_counts_as_above(self):
        part = partition_actions(self.simple_instance([0.5]), 0.5)
        assert part.above[0].tolist() == [0]


class TestVarianceDecomposition:
    def test_all_below_puts_everything_in_below_term(self):
        instance, policy = low_reward_instance(2)
        below, above = variance_decomposition(instance, policy, 0.5)
        assert above == 0.0
        assert below == pytest.approx(
            exact_variance(instance, policy, ConstantBaseline(0.5)), abs=1e-12
        )

    def test_all_above_symmetric(self):
        instance, policy = low_reward_instance(2)
        below, above = variance_decomposition(instance, policy, -1.0)
        assert below == 0.0
        assert above == pytest.approx(
            exact_variance(instance, policy, ConstantBaseline(-1.0)), abs=1e-12
        )

    def test_identity_on_random_instances(self):
        for seed in range(30):
            instance, policy = random_instance(seed)
            b = float(np.random.default_rng(seed).uniform(-0.5, 1.5))
            below, above = variance_decomposition(instance, policy, b)
            total = exact_variance(instance, policy, ConstantBaseline(b))
            assert below + above == pytest.approx(total, abs=1e-10)


class TestVarianceLowerBound:
    def test_zero_at_anchor(self):
        instance, policy = low_reward_instance(4)
        part = partition_actions(instance, 0.5)
        bound = variance_lower_bound(instance, policy, part.max_below, part)
        assert bound == pytest.approx(0.0, abs=1e-15)

    def test_undefined_anchor_raises(self):
        instance, policy = low_reward_instance(4)
        part = partition_actions(instance, -5.0)  # nothing below
        with pytest.raises(UndefinedBoundError):
            variance_lower_bound(instance, policy, 0.5, part)

    def test_factorings_agree(self):
        instance, policy = low_reward_instance(8)
        part = partition_actions(instance, 0.5)
        bound = variance_lower_bound(instance, policy, 0.5, part)
        alt = 0.5**2 * (part.max_below / 0.5 - 1.0) ** 2
        term = bound / (part.max_below - 0.5) ** 2
        assert bound == pytest.approx(alt * term, rel=1e-12)

    def test_vanishing_below_probability_shrinks_bound(self):
        # a single below-baseline action whose policy probability is driven to
        # ~0 drives the bound to ~0
        dim = 2
        w = np.zeros(dim + 1)
        w[0] = 1.0
        scorer = LinearScorer(ParamVector(w, layout_for("linear", {"feature_dim": dim})))
        policy = SoftmaxPolicy(scorer)

        def bound_with_offset(offset):
            feats = np.array([[offset, 0.0], [0.0, 1.0], [0.1, -0.4]])
            pool = tuple(Document(f"d{i}", feats[i]) for i in range(3))
            inst = MDPInstance((Query("s"),), (pool,),
                               (np.array([0.2, 0.8, 0.9]),), np.array([1.0]))
            part = partition_actions(inst, 0.5)
            return variance_lower_bound(policy=policy, instance=inst, b=0.5,
                                        partition=part)

        assert bound_with_offset(-20.0) < bound_with_offset(0.0)
        assert bound_with_offset(-20.0) == pytest.approx(0.0, abs=1e-6)


class TestVerifyVarianceBound:
    def test_holds_on_low_reward_instances(self):
        for seed in range(100):
            instance, policy = low_reward_instance(seed, with_rare_high_action=seed % 2 == 0)
            report = verify_variance_bound(instance, policy, 0.5)
            assert report.below_mass >= 0.99
            assert report.pointwise_ok
            assert report.holds_for_below_term
            assert report.holds_for_total

    def test_above_empty_makes_verdicts_equivalent(self):
        instance, policy = low_reward_instance(3, with_rare_high_action=False)
        report = verify_variance_bound(instance, policy, 0.5)
        assert report.above_term == 0.0
        assert report.holds_for_below_term == report.holds_for_total

    def test_b_sweep_monotone_with_frozen_partition(self):
        instance, policy = low_reward_instance(6)
        part = partition_actions(instance, 0.5)
        assert part.defined
        values = [
            variance_lower_bound(instance, policy, b, part)
            for b in np.arange(part.max_below + 0.05, 1.5, 0.1)
        ]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))

    def test_report_fields_on_undefined_anchor(self):
        instance, policy = low_reward_instance(4)
        report = verify_variance_bound(instance, policy, -5.0)
        assert report.lower_bound is None
        assert not report.defined


class TestPolicyPasses:
    """Each public enumeration sweeps the states twice and keeps no state's
    policy between sweeps: exactly two gradient_matrix calls per visited
    state, in state order, and none for unvisited states."""

    def count_passes(self, monkeypatch, fn, *args):
        calls = []
        original = LinearScorer.gradient_matrix

        def spy(self, query, docs):
            calls.append(query.id)
            return original(self, query, docs)

        monkeypatch.setattr(LinearScorer, "gradient_matrix", spy)
        fn(*args)
        return calls

    def instance_with_unvisited_state(self):
        instance, policy = low_reward_instance(5, with_rare_high_action=True)
        n = len(instance.states)
        visitation = np.full(n, 1.0 / (n - 1))
        visitation[-1] = 0.0
        return MDPInstance(instance.states, instance.pools, instance.q_values,
                           visitation), policy

    def test_verify_variance_bound(self, monkeypatch):
        instance, policy = self.instance_with_unvisited_state()
        calls = self.count_passes(monkeypatch, verify_variance_bound, instance, policy, 0.5)
        assert calls == 2 * [q.id for q in instance.states[:-1]]

    @pytest.mark.parametrize("baseline", [ConstantBaseline(0.5), ValueFunctionBaseline()])
    def test_exact_variance(self, monkeypatch, baseline):
        instance, policy = self.instance_with_unvisited_state()
        calls = self.count_passes(monkeypatch, exact_variance, instance, policy, baseline)
        assert calls == 2 * [q.id for q in instance.states[:-1]]

    def test_variance_lower_bound(self, monkeypatch):
        instance, policy = self.instance_with_unvisited_state()
        part = partition_actions(instance, 0.5)
        calls = self.count_passes(monkeypatch, variance_lower_bound, instance, policy, 0.5, part)
        assert calls == 2 * [q.id for q in instance.states[:-1]]

    def test_mc_variance(self, monkeypatch):
        # three draws over the visited states leave at least one of them undrawn
        instance, policy = self.instance_with_unvisited_state()
        drawn = np.random.default_rng(4).multinomial(3, instance.visitation)
        assert 0 < np.count_nonzero(drawn) < len(instance.states) - 1
        calls = self.count_passes(monkeypatch, mc_variance, instance, policy,
                                  ConstantBaseline(0.5), 3, np.random.default_rng(4))
        assert calls == 2 * [q.id for q, k in zip(instance.states, drawn) if k]


class TestStatePolicyTemperature:
    """At temperature 1 the state pass skips its division by T; the matrix
    keeps the bits of the divided one."""

    @pytest.mark.parametrize("kind,temperature", [("mlp1", 1.0), ("linear", 1.0),
                                                  ("mlp1", 0.7), ("linear", 2.0)])
    def test_matches_the_divided_matrix(self, kind, temperature):
        instance, _ = random_instance(11, max_actions=30)
        dims = {"feature_dim": 3, "hidden": 4} if kind == "mlp1" else {"feature_dim": 3}
        policy = SoftmaxPolicy(build_scorer(kind, dims, scale=0.8, seed=2), temperature)
        for s, (query, pool) in enumerate(zip(instance.states, instance.pools)):
            probs, gradlog = pgvar._state_policy(instance, policy, s)
            want = policy.scorer.gradient_matrix(query, pool)
            want -= policy_probs(policy, query, pool) @ want
            want /= temperature
            assert probs.tobytes() == policy_probs(policy, query, pool).tobytes()
            assert gradlog.tobytes() == want.tobytes()


class TestPeakMemory:
    """Enumeration keeps one state's gradient matrix alive, not one per state
    and not two: each state's matrix is freed before the next state's is
    built, and the bound check takes its below-baseline norms a few rows at
    a time."""

    def test_peak_below_two_gradient_matrices(self):
        rng = np.random.default_rng(11)
        n_states, n_docs, dim = 30, 100, 20
        scorer = build_scorer("mlp1", {"feature_dim": dim, "hidden": 20}, scale=0.3, seed=2)
        policy = SoftmaxPolicy(scorer, temperature=1.0)
        instance = MDPInstance(
            tuple(Query(f"s{s}") for s in range(n_states)),
            tuple(tuple(Document(f"s{s}d{a}", rng.normal(size=dim)) for a in range(n_docs))
                  for s in range(n_states)),
            tuple(rng.uniform(0.0, 1.0, size=n_docs) for _ in range(n_states)),
            np.full(n_states, 1.0 / n_states))
        matrix_bytes = n_docs * scorer.params.layout.size * 8
        calls = {
            "verify_variance_bound": lambda: verify_variance_bound(instance, policy, 0.5),
            "exact_variance": lambda: exact_variance(instance, policy, ConstantBaseline(0.5)),
            "mc_variance": lambda: mc_variance(instance, policy, ConstantBaseline(0.5),
                                               10_000, np.random.default_rng(0)),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * matrix_bytes, (name, peak / matrix_bytes)


class TestSparsityStudy:
    CFG = StudyConfig(num_queries=6, pool_size=500, mc_samples=4000)

    @pytest.mark.parametrize("name", ["learning_rate", "noise_sigma"])
    def test_non_finite_config_rejected(self, name):
        # The training config and the synthetic spec the study builds reject it.
        with pytest.raises(ValueError, match=f"{name} must be .* finite"):
            StudyConfig(**{name: math.inf})

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_untrained_study_rejected(self, epochs):
        with pytest.raises(ValueError, match="train_epochs must be >= 1"):
            StudyConfig(train_epochs=epochs)

    def test_single_fraction_single_row(self):
        rows = sparsity_vs_bound_study([0.01], self.CFG, seed=5)
        assert len(rows) == 1
        assert rows[0].fraction == 0.01

    def test_anchor_grows_with_fraction(self):
        # an all-relevant task leaves the model untrained (no negatives exist),
        # so its rewards hover at one half; sparse labels train the rewards of
        # the below-baseline bulk well under one half
        for seed in (2, 5):
            rows = sparsity_vs_bound_study([0.002, 1.0], self.CFG, seed=seed)
            sparse, dense = rows
            assert sparse.max_below is not None and dense.max_below is not None
            assert dense.max_below > sparse.max_below

    def test_csv_contract(self, tmp_path):
        rows = sparsity_vs_bound_study([0.01, 0.05], self.CFG, seed=2)
        path = tmp_path / "study.csv"
        write_study_csv(rows, path)
        header, body = read_csv(path)
        assert header == ["fraction", "b", "q_max", "bound_rhs", "exact_variance",
                          "mc_variance", "mc_se", "p_a1"]
        assert len(body) == 2
        assert float(body[0][0]) == 0.01
