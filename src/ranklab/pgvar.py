"""Exact variance laboratory for score-function (REINFORCE) gradient updates.

The retrieval setting is a one-step decision problem: states are queries,
actions are pooled documents, the action value of a pair is the reward the
discriminator assigns it, and the state-visitation distribution weights the
queries.  At desk scale everything is enumerable, so the quantities that are
approximated in training can be computed exactly here:

* the gradient update g(b) = grad log pi(a|s) * (value(s,a) - b) and its
  exact mean and variance under (visitation, policy);
* the per-state split of actions into those valued below vs at-or-above a
  constant baseline, and the highest below-baseline value;
* the decomposition of the variance into below/above contributions, and the
  closed-form lower bound obtained by pulling the squared distance between
  the baseline and the highest below-baseline value out of the below term.

The lower bound is computed in both algebraic factorings, which must agree,
and the checker reports it against both the below-baseline term (always
expected to dominate it on low-reward instances) and the total variance
(which additionally assumes the above-baseline mass is negligible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Dataset, DatasetError, Document, Query
from .baselines import BaselineSpec, ConstantBaseline, ValueFunctionBaseline
from .dataio import SyntheticSpec, synth_retrieval
from .policy import SoftmaxPolicy, policy_probs
from .scorers import Scorer, build_scorer, check_init_scale
from .trainers import InvalidConfigError, TrainConfig, make_reward, run_trainer
from ._util import write_csv

ENUMERATION_LIMIT = 1_000_000
MC_MIN_SAMPLES = 2  # a sample variance and its standard error need two draws


class EnumerationLimitError(ValueError):
    pass


class UndefinedBoundError(ValueError):
    """Every action sits at or above the baseline, so the bound has no anchor."""


@dataclass(frozen=True)
class MDPInstance:
    """Tabular one-step decision problem: (query, document pool, values, visitation)."""

    states: tuple[Query, ...]
    pools: tuple[tuple[Document, ...], ...]
    q_values: tuple[np.ndarray, ...]
    visitation: np.ndarray

    def __post_init__(self):
        if not (len(self.states) == len(self.pools) == len(self.q_values)):
            raise DatasetError("states, pools and q_values must align")
        if len(self.states) == 0:
            raise DatasetError("instance needs at least one state")
        object.__setattr__(self, "visitation",
                           np.asarray(self.visitation, dtype=np.float64))
        if self.visitation.shape != (len(self.states),):
            raise DatasetError("visitation must have one entry per state")
        if abs(self.visitation.sum() - 1.0) > 1e-9 or (self.visitation < 0).any():
            raise DatasetError("visitation must be a probability vector")
        qvals = []
        for pool, q in zip(self.pools, self.q_values):
            if len(pool) == 0:
                raise DatasetError("every state needs at least one action")
            arr = np.asarray(q, dtype=np.float64)
            if arr.shape != (len(pool),):
                raise DatasetError("q_values must align with the pool")
            if not np.all(np.isfinite(arr)):
                raise DatasetError("q_values must be finite")
            qvals.append(arr)
        object.__setattr__(self, "q_values", tuple(qvals))

    @property
    def total_pairs(self) -> int:
        return sum(len(p) for p in self.pools)


def build_instance(dataset: Dataset, model: Scorer,
                   reward_kind: str = "sigmoid") -> MDPInstance:
    """States are the dataset's queries, actions its pools, values the model's
    reward on each pair ('sigmoid' or 'raw'), visitation uniform over queries.
    Judgments are not consulted: the value table needs only the model."""
    if reward_kind not in ("sigmoid", "raw"):
        raise ValueError("reward_kind must be 'sigmoid' or 'raw'")
    reward = make_reward(reward_kind)
    groups = tuple(dataset.groups.values())
    return MDPInstance(tuple(g.query for g in groups), tuple(g.pool for g in groups),
                       tuple(reward(model, g.query, g.pool) for g in groups),
                       np.full(len(groups), 1.0 / len(groups)))


def _check_enumerable(instance: MDPInstance) -> None:
    if instance.total_pairs > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"instance has {instance.total_pairs} state-action pairs; "
            f"exact enumeration is capped at {ENUMERATION_LIMIT}"
        )


def _state_policy(instance: MDPInstance, policy: SoftmaxPolicy, s: int):
    """(probs, grad-log-prob matrix) for one state; rows align with the pool."""
    query, pool = instance.states[s], instance.pools[s]
    probs = policy_probs(policy, query, pool)
    gradlog = policy.scorer.gradient_matrix(query, pool)
    gradlog -= probs @ gradlog
    if policy.temperature != 1.0:  # x / 1.0 == x for every float: skip the pass
        gradlog /= policy.temperature
    return probs, gradlog


def _baseline_value(instance, baseline: BaselineSpec, probs, s: int) -> float:
    if isinstance(baseline, ConstantBaseline):
        return baseline.value
    if isinstance(baseline, ValueFunctionBaseline):
        return float(probs @ instance.q_values[s])
    raise TypeError(
        "the variance lab supports constant and exact value-function baselines"
    )


def gradient_sample(instance: MDPInstance, policy: SoftmaxPolicy,
                    baseline: BaselineSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw of g(b): sample a state by visitation, an action by policy."""
    s = int(rng.choice(len(instance.states), p=instance.visitation))
    probs, gradlog = _state_policy(instance, policy, s)
    a = int(rng.choice(len(probs), p=probs))
    b = _baseline_value(instance, baseline, probs, s)
    return gradlog[a] * (instance.q_values[s][a] - b)


class _StatePass:
    """A pass over an enumerable instance that can be swept more than once.
    Each sweep computes (probs, gradlog) state by state, calls ``work(s,
    weight, probs, gradlog)`` and yields what it returns.  ``work`` may
    overwrite gradlog but returns nothing that holds it, so one state's
    matrix is freed before the next state's is built.  Weights are the
    visitation unless given; states of weight 0 are skipped."""

    def __init__(self, instance: MDPInstance, policy: SoftmaxPolicy):
        _check_enumerable(instance)
        self.instance, self.policy = instance, policy

    def sweep(self, work, weights=None):
        weights = self.instance.visitation if weights is None else weights
        for s, w in enumerate(weights):
            if w != 0:
                yield work(s, w, *_state_policy(self.instance, self.policy, s))


def _sums(terms, width: int) -> list:
    """Termwise sums of the ``width``-tuples a sweep yields, each added to
    0.0 in state order (not ``sum``, which compensates floats from Python
    3.12 on and so would change the bits)."""
    totals = [0.0] * width
    for row in terms:
        for i, t in enumerate(row):
            totals[i] += t
    return totals


def _advantage_rows(instance, baseline: BaselineSpec, s: int, probs, gradlog):
    """g(b) = grad log pi * (value - b) for every action, written over gradlog."""
    gradlog *= (instance.q_values[s] - _baseline_value(instance, baseline, probs, s))[:, None]
    return gradlog


def _sq_norms(rows, center) -> np.ndarray:
    """||row - center||^2 for every row, computed in the rows' own storage."""
    rows -= center
    np.square(rows, out=rows)
    return rows.sum(axis=1)


_NORM_ROWS = 16  # rows that _sq_norms_of copies at a time


def _sq_norms_of(matrix, rows, center) -> np.ndarray:
    """``_sq_norms(matrix[rows], center)``, each row's norm with the same
    bits, copying ``_NORM_ROWS`` rows at a time instead of all of them."""
    out = np.empty(len(rows))
    for i in range(0, len(rows), _NORM_ROWS):
        out[i:i + _NORM_ROWS] = _sq_norms(matrix[rows[i:i + _NORM_ROWS]], center)
    return out


def _mean_gradient(instance, states, baseline: BaselineSpec) -> np.ndarray:
    def term(s, rho, probs, gradlog):
        b = _baseline_value(instance, baseline, probs, s)
        return (rho * (gradlog.T @ (probs * (instance.q_values[s] - b))),)

    return _sums(states.sweep(term), 1)[0]


def exact_gradient_mean(instance: MDPInstance, policy: SoftmaxPolicy,
                        baseline: BaselineSpec) -> np.ndarray:
    """E[g(b)] by full enumeration over states and actions."""
    return _mean_gradient(instance, _StatePass(instance, policy), baseline)


def exact_variance(instance: MDPInstance, policy: SoftmaxPolicy,
                   baseline: BaselineSpec) -> float:
    """E[||g(b) - E[g(b)]||^2] by full enumeration, in two sweeps."""
    states = _StatePass(instance, policy)
    mean = _mean_gradient(instance, states, baseline)

    def deviation(s, rho, probs, gradlog):
        g = _advantage_rows(instance, baseline, s, probs, gradlog)
        return (rho * float(probs @ _sq_norms(g, mean)),)

    return _sums(states.sweep(deviation), 1)[0]


def mc_variance(instance: MDPInstance, policy: SoftmaxPolicy,
                baseline: BaselineSpec, n: int,
                rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo estimate of the gradient variance; returns (estimate, SE).

    Draws n i.i.d. gradient samples.  Because g takes finitely many values,
    the draws are tallied as multinomial counts over (state, action) pairs
    (distributionally identical to n sequential samples) and the sample
    variance is accumulated from the tally, which is numerically exact.
    """
    if n < MC_MIN_SAMPLES:
        raise ValueError(f"mc_variance needs n >= {MC_MIN_SAMPLES}")
    states = _StatePass(instance, policy)
    state_counts = rng.multinomial(n, instance.visitation)
    draws = []

    def tally(s, count, probs, gradlog):
        action_counts = rng.multinomial(count, probs)
        draws.append(action_counts)
        return action_counts @ _advantage_rows(instance, baseline, s, probs, gradlog)

    g_sum = None
    for contrib in states.sweep(tally, state_counts):
        g_sum = contrib if g_sum is None else g_sum + contrib
    mean = g_sum / n
    counts = iter(draws)

    def moments(s, _, probs, gradlog):
        # sum over the state's draws of ||g - mean||^2 and of ||g - mean||^4
        sq = _sq_norms(_advantage_rows(instance, baseline, s, probs, gradlog), mean)
        action_counts = next(counts)
        return float(action_counts @ sq), float(action_counts @ sq**2)

    sq_sum, quad_sum = _sums(states.sweep(moments, state_counts), 2)
    estimate = sq_sum / (n - 1)
    mean_sq = sq_sum / n
    var_of_sq = max(quad_sum / n - mean_sq**2, 0.0) * n / (n - 1)
    se = math.sqrt(var_of_sq / n)
    return float(estimate), float(se)


@dataclass(frozen=True)
class BaselinePartition:
    """Per-state split into below-baseline and at-or-above-baseline actions."""

    b: float
    below: tuple[np.ndarray, ...]   # action indices with value < b
    above: tuple[np.ndarray, ...]   # action indices with value >= b
    max_below: float | None         # highest value among all below-baseline actions

    @property
    def defined(self) -> bool:
        return self.max_below is not None


def partition_actions(instance: MDPInstance, b: float) -> BaselinePartition:
    below, above = [], []
    max_below: float | None = None
    for q in instance.q_values:
        lo = np.flatnonzero(q < b)
        below.append(lo)
        above.append(np.flatnonzero(q >= b))
        if lo.size:
            state_max = float(q[lo].max())
            max_below = state_max if max_below is None else max(max_below, state_max)
    return BaselinePartition(b=b, below=tuple(below), above=tuple(above),
                             max_below=max_below)


def variance_decomposition(instance: MDPInstance, policy: SoftmaxPolicy,
                           b: float) -> tuple[float, float]:
    """Split the exact variance at constant baseline b into the contributions
    of below-baseline and at-or-above-baseline actions: the two terms of
    ``verify_variance_bound``'s report.  Both center on the global mean
    gradient, so they sum to the exact variance."""
    report = verify_variance_bound(instance, policy, b)
    return report.below_term, report.above_term


def _bound_factor(b: float, max_below: float) -> float:
    """(max_below - b)^2, asserted identical to b^2 * (max_below / b - 1)^2."""
    factor = (max_below - b) ** 2
    if b != 0.0:
        alt_factor = b * b * (max_below / b - 1.0) ** 2
        if not math.isclose(factor, alt_factor, rel_tol=1e-9, abs_tol=1e-15):
            raise AssertionError(
                f"bound factorings disagree: {factor} vs {alt_factor}"
            )
    return factor


@dataclass(frozen=True)
class BoundCheckReport:
    """Everything the bound derivation claims, evaluated exactly on one instance."""

    b: float
    exact_var: float
    below_term: float
    above_term: float
    below_mass: float
    max_below: float | None
    lower_bound: float | None
    pointwise_ok: bool          # (value - b)^2 >= (max_below - b)^2 on every below action
    holds_for_below_term: bool  # below_term >= lower_bound
    holds_for_total: bool       # exact_var >= lower_bound (assumes above mass negligible)
    gradlog_term: float | None = None  # lower_bound / (max_below - b)^2, free of b

    @property
    def defined(self) -> bool:
        return self.lower_bound is not None

    def bound_at(self, b: float) -> float:
        """The lower bound at baseline b with the partition frozen at ``self.b``."""
        if not self.defined:
            raise UndefinedBoundError(
                "no action is valued below the baseline; the bound anchor is undefined"
            )
        return _bound_factor(b, self.max_below) * self.gradlog_term


def variance_lower_bound(instance: MDPInstance, policy: SoftmaxPolicy,
                         b: float, partition: BaselinePartition) -> float:
    """(max_below - b)^2 * E[P(below) * E_below[||grad log pi - mean||^2]].

    The partition is taken as given (its threshold need not equal b), which
    is what makes baseline sweeps at a frozen partition meaningful.  The bound
    chain is evaluated at the partition's threshold and its gradient-log term
    rescaled to b; the equivalent factoring b^2 * (max_below / b - 1)^2 is
    computed alongside and asserted identical.
    """
    if not partition.defined:
        raise UndefinedBoundError(
            "no action is valued below the baseline; the bound anchor is undefined"
        )
    return _bound_report(instance, policy, partition).bound_at(b)


def verify_variance_bound(instance: MDPInstance, policy: SoftmaxPolicy,
                          b: float) -> BoundCheckReport:
    """Evaluate every step of the lower-bound chain on an enumerable instance.

    The comparison against the below-baseline term only uses the pull-out
    step; the comparison against the total variance additionally relies on
    the assumption that almost all probability mass sits on below-baseline
    actions, so both verdicts are reported separately.
    """
    return _bound_report(instance, policy, partition_actions(instance, b))


def _bound_report(instance, policy, part: BaselinePartition) -> BoundCheckReport:
    """The bound chain at the partition's own baseline, in two sweeps: the
    mean gradient, the mean grad-log-prob nu and the below-baseline mass;
    then the deviations and the gradient-log term."""
    b = part.b
    states = _StatePass(instance, policy)

    def first(s, rho, probs, gradlog):
        return (rho * (gradlog.T @ (probs * (instance.q_values[s] - b))),
                rho * (gradlog.T @ probs),
                float(rho) * float(probs[part.below[s]].sum()))

    mean, nu, below_mass = _sums(states.sweep(first), 3)

    def second(s, rho, probs, gradlog):
        lo, hi = part.below[s], part.above[s]
        centered = rho * float(probs[lo] @ _sq_norms_of(gradlog, lo, nu))
        uncentered = rho * float(probs[lo] @ _sq_norms_of(gradlog, lo, 0.0))
        sq = _sq_norms(_advantage_rows(instance, ConstantBaseline(b), s, probs, gradlog), mean)
        return (rho * float(probs[lo] @ sq[lo]), rho * float(probs[hi] @ sq[hi]),
                centered, uncentered)

    below_term, above_term, centered, uncentered = _sums(states.sweep(second), 4)
    exact = below_term + above_term
    pointwise_ok = True
    term = bound = None
    holds_below = holds_total = True
    if part.defined:
        floor = (part.max_below - b) ** 2 - 1e-15
        pointwise_ok = not any(np.any((q[lo] - b) ** 2 < floor)
                               for q, lo in zip(instance.q_values, part.below))
        # The global mean of grad log pi is identically zero (score-function
        # identity), so the centered and uncentered forms must agree.
        if not math.isclose(centered, uncentered, rel_tol=1e-9, abs_tol=1e-12):
            raise AssertionError(
                f"score-function identity violated: centered {centered} vs "
                f"uncentered {uncentered}"
            )
        term = centered
        bound = _bound_factor(b, part.max_below) * term
        holds_below = below_term >= bound - 1e-12
        holds_total = exact >= bound - 1e-12
    return BoundCheckReport(
        b=b, exact_var=exact, below_term=below_term, above_term=above_term,
        below_mass=below_mass, max_below=part.max_below, lower_bound=bound,
        pointwise_ok=pointwise_ok, holds_for_below_term=holds_below,
        holds_for_total=holds_total, gradlog_term=term,
    )


# -- sparsity study -----------------------------------------------------------


@dataclass(frozen=True)
class StudyConfig:
    """Controls the per-fraction synthetic task and the briefly trained model
    whose rewards fill the value table."""

    num_queries: int = 10
    pool_size: int = 1000
    feature_dim: int = 5
    noise_sigma: float = 0.0
    init_scale: float = 0.25
    train_epochs: int = 60
    learning_rate: float = 0.3
    batch_size: int = 8
    dns_k: int = 5
    b: float = 0.5
    reward_kind: str = "sigmoid"
    mc_samples: int = 100_000

    def __post_init__(self):
        """Check every field by the rule of the code that reads it, so a bad
        value fails before any study point is built; errors name the field."""
        if self.train_epochs < 1:
            raise InvalidConfigError("train_epochs must be >= 1")
        self.synthetic_spec(1.0, seed=0)
        self.train_config(seed=0)
        check_init_scale(self.init_scale)
        if self.mc_samples < MC_MIN_SAMPLES:
            raise InvalidConfigError(f"mc_samples must be >= {MC_MIN_SAMPLES}")
        if not math.isfinite(self.b):
            raise InvalidConfigError(f"b must be a finite number, got {self.b!r}")
        if self.num_queries * self.pool_size > ENUMERATION_LIMIT:
            raise InvalidConfigError(f"num_queries * pool_size must be <= {ENUMERATION_LIMIT}, "
                                     "the exact enumeration limit")

    def synthetic_spec(self, fraction: float, seed: int) -> SyntheticSpec:
        """The synthetic task of one study fraction."""
        return SyntheticSpec(
            num_queries=self.num_queries, pool_size=self.pool_size,
            relevant_fraction=fraction, feature_dim=self.feature_dim,
            noise_sigma=self.noise_sigma, seed=seed,
        )

    def train_config(self, seed: int) -> TrainConfig:
        """The hardest-negative training of the discriminator."""
        return TrainConfig(
            learning_rate=self.learning_rate, batch_size=self.batch_size,
            epochs_outer=self.train_epochs, dns_k=self.dns_k, seed=seed,
        )


@dataclass(frozen=True)
class StudyRow:
    fraction: float
    b: float
    max_below: float | None
    lower_bound: float | None
    exact_var: float
    mc_var: float
    mc_se: float
    below_mass: float


def study_instance(cfg: StudyConfig, fraction: float,
                   seed: int) -> tuple[MDPInstance, SoftmaxPolicy]:
    """One study point: a synthetic task at the given relevant-fraction, a
    hardest-negative-trained linear discriminator filling the value table,
    and a uniform policy over the pools.

    The document features depend only on the seed, so across fractions the
    pools are identical and only the labels (hence the trained model) change.
    At fraction 1.0 every pool is all-relevant, no negatives exist, and the
    model keeps its initialization, leaving rewards near one half.
    """
    dataset, _ = synth_retrieval(cfg.synthetic_spec(fraction, seed))
    model = build_scorer("linear", {"feature_dim": cfg.feature_dim},
                         scale=cfg.init_scale, seed=seed)
    run_trainer("dns", dataset, cfg.train_config(seed), {"D": model})
    uniform = SoftmaxPolicy(
        build_scorer("linear", {"feature_dim": cfg.feature_dim}, zero=True),
        temperature=1.0,
    )
    return build_instance(dataset, model, cfg.reward_kind), uniform


def study_point(cfg: StudyConfig, fraction: float, seed: int):
    """One fraction of the study: (bound report, study row).

    The instance is built once and serves both the bound check and the
    Monte-Carlo variance at the configured constant baseline.
    """
    instance, uniform = study_instance(cfg, fraction, seed)
    report = verify_variance_bound(instance, uniform, cfg.b)
    mc_var, mc_se = mc_variance(instance, uniform, ConstantBaseline(cfg.b),
                                cfg.mc_samples, np.random.default_rng(seed))
    row = StudyRow(
        fraction=fraction, b=cfg.b, max_below=report.max_below,
        lower_bound=report.lower_bound, exact_var=report.exact_var,
        mc_var=mc_var, mc_se=mc_se, below_mass=report.below_mass,
    )
    return report, row


def sparsity_vs_bound_study(fractions: Sequence[float], cfg: StudyConfig,
                            seed: int) -> list[StudyRow]:
    """For each relevant-fraction, build the same synthetic pool geometry,
    train a discriminator briefly on that fraction's labels, and report the
    bound anchor, the bound, and the exact and Monte-Carlo variances at the
    configured constant baseline under a uniform policy.
    """
    return [study_point(cfg, fraction, seed)[1] for fraction in fractions]


def write_study_csv(rows: Sequence[StudyRow], path) -> None:
    """Column names follow the study's published CSV contract."""
    write_csv(
        path,
        ("fraction", "b", "q_max", "bound_rhs", "exact_variance",
         "mc_variance", "mc_se", "p_a1"),
        ((r.fraction, r.b, r.max_below, r.lower_bound, r.exact_var,
          r.mc_var, r.mc_se, r.below_mass) for r in rows),
    )
