"""Training regimes for adversarial and contrastive learning-to-rank.

Five trainers share one dataset/model vocabulary:

* ``irgan-pointwise`` -- minimax game between a softmax generator and a
  sigmoid discriminator; the generator's discrete sampling step is trained
  with score-function (REINFORCE) gradients.
* ``irgan-pairwise``  -- the same game over (better, worse, query) triples.
* ``single-d``        -- one discriminator feeding itself negatives drawn
  from its own normalized output distribution (self-contrastive).
* ``dual-d``          -- two discriminators feeding negatives to each other
  (co-training); one is chosen at evaluation time by seed.
* ``dns``             -- hardest-of-k uniformly drawn negatives.

The optimizer everywhere is plain SGD: it keeps the policy-gradient variance
analysis in ``pgvar`` directly applicable to what the trainers actually do.
Every epoch operation is a deterministic function of (params, dataset,
config, rng state).  Training is single-writer per model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import core
from .baselines import (
    BaselineSpec,
    ConstantBaseline,
    MonteCarloValueBaseline,
    ValueFunctionBaseline,
)
from .core import Dataset, Document, Query, take
from .metrics import EvalReport, evaluate_model
from .policy import (
    SoftmaxPolicy,
    _check_pool,
    _draw_from_cdf,
    _sampling_cdf,
    _softmax,
    discriminator_sampling_probs,
    policy_probs,
    sample_docs,
)
from .scorers import NumericError, Scorer, log_sigmoid, sigmoid, softplus
from ._util import _fold_sum, write_csv, read_csv

# Model roles each trainer trains.  Without a chosen model (dual-d picks A or
# B by seed), the first role is the one that gets evaluated.
TRAINER_ROLES = {
    "irgan-pointwise": ("G", "D"),
    "irgan-pairwise": ("G", "D"),
    "single-d": ("M",),
    "dual-d": ("A", "B"),
    "dns": ("D",),
}
TRAINER_NAMES = tuple(TRAINER_ROLES)


class InvalidConfigError(ValueError):
    """A training-config field is missing or out of range; names the field."""


# -- rewards ------------------------------------------------------------------


# A reward maps (model, query, docs) to one reward per document.
RewardFn = Callable[[Scorer, Query | None, Sequence[Document]], np.ndarray]


def _raw_reward(model, query, docs):
    """softplus(f): the reward attached to the raw policy-gradient update."""
    return softplus(model.score_many(query, docs))


def _sigmoid_reward(model, query, docs):
    """sigmoid(f) with no embedded baseline."""
    return sigmoid(model.score_many(query, docs))


def _centered_sigmoid(x):
    """2 * (sigmoid(x) - 0.5), in (-1, 1)."""
    return 2.0 * (sigmoid(x) - 0.5)


def _sigmoid_baselined_reward(model, query, docs):
    """2 * (sigmoid(f) - 0.5): the training-friendly reward, range (-1, 1)."""
    return _centered_sigmoid(model.score_many(query, docs))


_REWARDS = {
    "raw": _raw_reward,
    "sigmoid": _sigmoid_reward,
    "sigmoid-baselined": _sigmoid_baselined_reward,
}
REWARD_NAMES = tuple(_REWARDS)


def make_reward(kind: str) -> RewardFn:
    if kind not in _REWARDS:
        raise InvalidConfigError(f"reward must be one of {REWARD_NAMES}")
    return _REWARDS[kind]


def _pairwise_reward(model: Scorer, query: Query | None, anchor: Document) -> RewardFn:
    """2 * (sigmoid(f(d) - f(anchor)) - 0.5): pairwise analog of the pointwise
    baselined reward, where the anchor is the paired relevant document, scored
    once, here: ``model`` must not move while the reward is in use."""
    f_anchor = model.score(query, anchor)

    def reward(model, query, docs):
        return _centered_sigmoid(model.score_many(query, docs) - f_anchor)

    return reward


# -- configuration ------------------------------------------------------------


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 8
    epochs_outer: int = 30
    epochs_inner: int = 1
    k_samples: int = 1          # generator samples per query per update
    dns_k: int = 5
    baseline: BaselineSpec = ConstantBaseline(0.0)
    reward: str = "sigmoid-baselined"
    seed: int = 40
    temperature: float = 1.0
    exclude_positives: bool = True
    d_steps: int = 1            # discriminator updates per batch
    g_steps: int = 1            # generator updates per batch
    pretrain_epochs: int = 0
    pretrain_lr: float = 0.01

    def __post_init__(self):
        for name in ("learning_rate", "pretrain_lr"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InvalidConfigError(f"{name} must be >= 0 and finite")
        for name in ("batch_size", "epochs_outer", "epochs_inner", "k_samples",
                     "dns_k", "d_steps", "g_steps"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1")
        if not 0 < self.temperature < np.inf:
            raise InvalidConfigError("temperature must be > 0 and finite")
        make_reward(self.reward)
        if self.pretrain_epochs < 0:
            raise InvalidConfigError("pretrain_epochs must be >= 0")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")


# Best hyperparameters per task, as tabulated for the reference experiments.
# No rate is tabulated for the adversarial trainers; 0.07 is the artifact
# default, at which the documented generator instability shows at desk scale.
DEFAULT_TRAIN_CONFIGS: dict[str, TrainConfig] = {
    "web-single-d": TrainConfig(learning_rate=0.004, batch_size=8,
                                epochs_outer=50, seed=40),
    "web-dual-d": TrainConfig(learning_rate=0.006, batch_size=8,
                              epochs_outer=50, epochs_inner=30, seed=40),
    "web-irgan": TrainConfig(learning_rate=0.07, batch_size=8, epochs_outer=30,
                             seed=40, pretrain_epochs=50, pretrain_lr=0.01),
    "recommendation": TrainConfig(learning_rate=0.02, batch_size=10,
                                  epochs_outer=20, dns_k=5, seed=70),
    "qa": TrainConfig(learning_rate=0.05, batch_size=100,
                      epochs_outer=20, epochs_inner=1, seed=40),
}

# -- run history --------------------------------------------------------------


@dataclass(frozen=True)
class RunRow:
    epoch: int
    model: str
    metric: str
    value: float


class RunRecord:
    """Per-epoch metric history; epochs are strictly increasing per (model, metric)."""

    def __init__(self):
        self.rows: list[RunRow] = []
        self._last: dict[tuple[str, str], int] = {}

    def append(self, epoch: int, model: str, metric: str, value: float) -> None:
        key = (model, metric)
        last = self._last.get(key)
        if last is not None and epoch <= last:
            raise ValueError(
                f"epoch {epoch} not increasing for {model}/{metric} (last {last})"
            )
        self._last[key] = epoch
        self.rows.append(RunRow(epoch, model, metric, float(value)))

    def extend(self, rows: Iterable[RunRow]) -> None:
        for row in rows:
            self.append(row.epoch, row.model, row.metric, row.value)

    def series(self, model: str, metric: str) -> list[tuple[int, float]]:
        return [(r.epoch, r.value) for r in self.rows
                if r.model == model and r.metric == metric]

    def to_csv(self, path) -> None:
        write_csv(path, ("epoch", "model", "metric", "value"),
                  ((r.epoch, r.model, r.metric, r.value) for r in self.rows))

    @classmethod
    def from_csv(cls, path) -> "RunRecord":
        header, rows = read_csv(path)
        if header != ["epoch", "model", "metric", "value"]:
            raise ValueError(f"unexpected curve CSV header {header}")
        record = cls()
        for epoch, model, metric, value in rows:
            record.append(int(epoch), model, metric, float(value))
        return record

    def __eq__(self, other):
        return isinstance(other, RunRecord) and self.rows == other.rows


# -- baselines over pools ------------------------------------------------------


def resolve_baseline(spec: BaselineSpec, probs: np.ndarray, model, query, pool,
                     reward_fn: RewardFn, rng) -> float:
    """b(q) for one generator update; ``probs`` is the policy over ``pool``."""
    if isinstance(spec, ConstantBaseline):
        return spec.value
    if isinstance(spec, ValueFunctionBaseline):
        return float(probs @ reward_fn(model, query, pool))
    if isinstance(spec, MonteCarloValueBaseline):
        docs = take(pool, _draw_from_cdf(_sampling_cdf(probs), spec.n, rng))
        return float(reward_fn(model, query, docs).mean())
    raise TypeError(f"not a baseline spec: {spec!r}")


# -- gradient building blocks ---------------------------------------------------


def generator_gradient(policy: SoftmaxPolicy, model: Scorer, query, pool, k: int,
                       reward_fn: RewardFn, baseline: BaselineSpec,
                       rng: np.random.Generator) -> np.ndarray:
    """(1/k) sum over k sampled docs of grad log p(d|q) * (reward(d) - b(q)).

    Folded into a single weighted gradient sum over the pool, so one call
    costs one generator forward, for the policy and the gradient, regardless of k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_pool(pool)
    fwd = policy.scorer.forward(query, pool)
    probs = _softmax(fwd.scores, policy.temperature)
    idx = _draw_from_cdf(_sampling_cdf(probs), k, rng)
    b = resolve_baseline(baseline, probs, model, query, pool, reward_fn, rng)
    unique, counts = np.unique(idx, return_counts=True)
    advantages = reward_fn(model, query, take(pool, unique)) - b
    weights = -probs * float(counts @ advantages)
    np.add.at(weights, unique, counts * advantages)
    grad = policy.scorer.backward(fwd, weights, np.zeros(policy.scorer.params.layout.size))
    return grad / (k * policy.temperature)


def discriminator_step(model: Scorer, positives, negatives, lr: float) -> float:
    """One ascent step on sum log sigmoid(f) over positives plus
    sum log(1 - sigmoid(f)) over negatives; returns the pre-step objective.

    ``positives`` and ``negatives`` are (query, documents) groups, the shape
    ``forward`` takes, and each non-empty group costs one forward; a kind that
    ignores the query joins each side's groups, in order, into one forward,
    which gathers the side's rows from their row space at once.
    """
    if not any(docs for _, docs in [*positives, *negatives]):
        raise ValueError("discriminator step needs at least one sample")
    objective = 0.0
    grad = np.zeros(model.params.layout.size)
    for groups, positive in ((positives, True), (negatives, False)):
        if not model.uses_query:
            groups = [(None, core.join([docs for _, docs in groups]))]
        for fwd in (model.forward(query, docs) for query, docs in groups if docs):
            s = fwd.scores
            objective += float(log_sigmoid(s if positive else -s).sum())
            model.backward(fwd, 1.0 - sigmoid(s) if positive else -sigmoid(s), grad)
    model.params.values += lr * grad
    return objective


def discriminator_pair_step(model: Scorer, triples, lr: float) -> tuple[float, list[np.ndarray]]:
    """Ascent on sum log sigmoid(f(better) - f(worse)) over (q, better, worse);
    returns the pre-step objective and each triple's one-row pre-step delta.

    The delta comes from two one-row forwards: a two-row forward can give
    other bits for the same rows, so its scores feed only the gradient."""
    if not triples:
        raise ValueError("pairwise step needs at least one triple")
    objective = 0.0
    grad = np.zeros(model.params.layout.size)
    deltas = []
    for query, better, worse in triples:
        deltas.append(model.score_many(query, [better]) - model.score_many(query, [worse]))
        delta = float(deltas[-1][0])
        objective += float(log_sigmoid(delta))
        coef = float(1.0 - sigmoid(delta))
        model.backward(model.forward(query, [better, worse]), [coef, -coef], grad)
    model.params.values += lr * grad
    return objective, deltas


# -- pretraining -----------------------------------------------------------------


def pretrain_mle(policy: SoftmaxPolicy, dataset: Dataset, cfg: TrainConfig) -> RunRecord:
    """Maximize sum log p(relevant doc | query) by full-batch gradient ascent.

    Mutates the policy's scorer in place; the returned record carries the
    post-step mean log-likelihood per epoch and the count of queries skipped
    for having no relevant document.  Pass p reads epoch p's likelihood from
    the forward that takes step p + 1, and a last pass reads the last epoch's:
    each usable query costs E + 1 forwards for E epochs.
    """
    record = RunRecord()
    usable = []
    skipped = 0
    for g in dataset.groups.values():
        pos_idx = np.flatnonzero(g.grades > 0)
        if len(pos_idx):
            usable.append((g.query, g.pool, pos_idx))
        else:
            skipped += 1
    if not usable:
        raise core.DatasetError("no query has a relevant document to pretrain on")

    scorer, epochs = policy.scorer, cfg.epochs_outer
    n_pairs = sum(len(pos_idx) for _, _, pos_idx in usable)
    for epoch in range(epochs + 1):
        grad, total = np.zeros(scorer.params.layout.size), 0.0
        for q, pool, pos_idx in usable:
            fwd = scorer.forward(q, pool)
            if epoch:
                total += float(_softmax(fwd.scores, policy.temperature, log=True)[pos_idx].sum())
            if epoch < epochs:
                weights = -len(pos_idx) * _softmax(fwd.scores, policy.temperature)
                np.add.at(weights, pos_idx, 1.0)
                scorer.backward(fwd, weights, grad)
        if epoch:
            record.append(epoch, "G", "log_likelihood", total / n_pairs)
            record.append(epoch, "G", "queries_skipped", skipped)
        if epoch < epochs:
            grad /= n_pairs * policy.temperature
            scorer.params.values += cfg.learning_rate * grad
    return record


# -- epoch operations --------------------------------------------------------------


def _negative_entries(dataset: Dataset, cfg: TrainConfig):
    """One entry per query group: (query, positives, negative pool), or None
    when the query cannot produce both; and the skip count."""
    entries = []
    for g in dataset.groups.values():
        neg_pool = g.negatives if cfg.exclude_positives else g.pool
        entries.append((g.query, g.positives, neg_pool) if g.positives and neg_pool else None)
    return entries, entries.count(None)


def _active_batches(entries, size: int):
    """The usable entries of each batch.  Batches are slices of the query
    list, unusable queries included; a batch with no usable entry is skipped."""
    for i in range(0, len(entries), size):
        active = [e for e in entries[i : i + size] if e is not None]
        if active:
            yield active


def _negative_step(model: Scorer, active, draw, lr: float) -> float:
    """One discriminator step on every positive of the batch against the
    negatives ``draw(query, positives, pool)`` returns for its query; returns
    the step's objective per example."""
    positives = [(q, pos) for q, pos, _ in active]
    negatives = [(q, draw(q, pos, neg_pool)) for q, pos, neg_pool in active]
    obj = discriminator_step(model, positives, negatives, lr)
    return obj / sum(len(docs) for _, docs in [*positives, *negatives])


def _negative_epoch(model: Scorer, entries, draw, cfg: TrainConfig) -> float:
    """One negative step per batch; returns the mean per-example objective."""
    return _mean([_negative_step(model, active, draw, cfg.learning_rate)
                  for active in _active_batches(entries, cfg.batch_size)])


def _generator_step(generator: SoftmaxPolicy, discriminator: Scorer, units,
                    cfg: TrainConfig, rng: np.random.Generator) -> None:
    """One policy-gradient step averaged over (query, pool, reward) units."""
    grad = np.zeros(generator.scorer.params.layout.size)
    for q, pool, reward_fn in units:
        grad += generator_gradient(generator, discriminator, q, pool, cfg.k_samples,
                                   reward_fn, cfg.baseline, rng)
    generator.scorer.params.values += cfg.learning_rate * grad / len(units)


def _mean(values) -> float:
    return _fold_sum(values) / len(values) if values else 0.0


def _reward_mean(rewards) -> float:
    """Mean over every document of a list of per-draw reward arrays."""
    if not rewards:
        return 0.0
    return _fold_sum(float(r.sum()) for r in rewards) / sum(len(r) for r in rewards)


def irgan_pointwise_epoch(generator: SoftmaxPolicy, discriminator: Scorer,
                          dataset: Dataset, cfg: TrainConfig,
                          rng: np.random.Generator, epoch: int = 1) -> list[RunRow]:
    """One adversarial epoch: per batch, the discriminator is pushed up on true
    positives and down on generator samples, then the generator takes a
    policy-gradient step on the configured reward/baseline."""
    reward_fn = make_reward(cfg.reward)
    entries, skipped = _negative_entries(dataset, cfg)
    d_objs, rewards = [], []

    def draw(q, pos, neg_pool):
        negs = sample_docs(generator, q, neg_pool, cfg.k_samples, rng)
        rewards.append(reward_fn(discriminator, q, negs))
        return negs

    for active in _active_batches(entries, cfg.batch_size):
        for _ in range(cfg.d_steps):
            d_objs.append(_negative_step(discriminator, active, draw, cfg.learning_rate))
        units = [(q, neg_pool, reward_fn) for q, _, neg_pool in active]
        for _ in range(cfg.g_steps):
            _generator_step(generator, discriminator, units, cfg, rng)
    objective = irgan_objective(generator, discriminator, dataset)
    return [
        RunRow(epoch, "GAN", "objective", objective),
        RunRow(epoch, "D", "objective_mean", _mean(d_objs)),
        RunRow(epoch, "G", "reward_mean", _reward_mean(rewards)),
        RunRow(epoch, "G", "queries_skipped", skipped),
    ]


def irgan_pairwise_epoch(generator: SoftmaxPolicy, discriminator: Scorer,
                         dataset: Dataset, cfg: TrainConfig,
                         rng: np.random.Generator, epoch: int = 1) -> list[RunRow]:
    """Adversarial epoch over triples: the discriminator learns to rank each
    relevant document above a generator-sampled one."""
    entries, skipped = _negative_entries(dataset, cfg)
    d_objs, rewards = [], []
    for active in _active_batches(entries, cfg.batch_size):
        pairs = [(q, anchor, neg_pool) for q, pos, neg_pool in active for anchor in pos]
        for _ in range(cfg.d_steps):
            triples = [(q, anchor, sample_docs(generator, q, neg_pool, 1, rng)[0])
                       for q, anchor, neg_pool in pairs]
            obj, deltas = discriminator_pair_step(discriminator, triples, cfg.learning_rate)
            d_objs.append(obj / len(triples))
            # The sampled document's pairwise reward, from f(anchor) - f(sampled).
            rewards.extend(_centered_sigmoid(-delta) for delta in deltas)
        units = [(q, neg_pool, _pairwise_reward(discriminator, q, anchor))
                 for q, anchor, neg_pool in pairs]
        for _ in range(cfg.g_steps):
            _generator_step(generator, discriminator, units, cfg, rng)
    return [
        RunRow(epoch, "D", "objective_mean", _mean(d_objs)),
        RunRow(epoch, "G", "reward_mean", _reward_mean(rewards)),
        RunRow(epoch, "G", "queries_skipped", skipped),
    ]


def _contrastive_batches(model: Scorer, table, entries, cfg, rng) -> float:
    """The epoch of single-d and dual-d: ``_negative_epoch`` with each query's
    negatives drawn from its CDF in the sampler ``table`` (qid -> CDF)."""
    return _negative_epoch(model, entries, lambda q, pos, neg_pool: take(
        neg_pool, _draw_from_cdf(table[q.id], len(pos), rng)), cfg)


def _sampler_table(sampler: Scorer, entries):
    """The CDF of the sampler's normalized output distribution over each
    usable query's negative pool."""
    return {q.id: _sampling_cdf(discriminator_sampling_probs(sampler, q, neg_pool))
            for q, _, neg_pool in filter(None, entries)}


def single_d_epoch(model: Scorer, dataset: Dataset, cfg: TrainConfig,
                   rng: np.random.Generator, epoch: int = 1) -> list[RunRow]:
    """Self-contrastive epoch: negatives sampled from the model's own
    normalized output over the (positives-excluded) pool."""
    entries, skipped = _negative_entries(dataset, cfg)
    table = _sampler_table(model, entries)
    mean_obj = _contrastive_batches(model, table, entries, cfg, rng)
    return [
        RunRow(epoch, "M", "objective_mean", mean_obj),
        RunRow(epoch, "M", "queries_skipped", skipped),
    ]


def dual_d_outer_epoch(model_a: Scorer, model_b: Scorer, dataset: Dataset,
                       cfg: TrainConfig, rng: np.random.Generator,
                       epoch: int = 1) -> list[RunRow]:
    """Co-training outer epoch.

    Both partners' sampler tables are built before either model trains, so
    each model trains for ``epochs_inner`` epochs against the partner's table
    as of the start of the outer epoch (two identically initialized models
    fed identical streams stay identical).  The partner's checksum is checked
    around each phase: a model must not change while the other trains.
    """
    phase_seed = int(rng.integers(2**63))
    entries, skipped = _negative_entries(dataset, cfg)
    phases = ((model_a, _sampler_table(model_b, entries), model_b, "A"),
              (model_b, _sampler_table(model_a, entries), model_a, "B"))
    rows = []
    for model, table, other, tag in phases:
        partner_sum = other.checksum()
        phase_rng = np.random.default_rng(phase_seed)
        mean_obj = 0.0
        for _ in range(cfg.epochs_inner):
            mean_obj = _contrastive_batches(model, table, entries, cfg, phase_rng)
        if other.checksum() != partner_sum:
            raise NumericError(f"partner of {tag} was modified during its dual-d phase")
        rows.append(RunRow(epoch, tag, "objective_mean", mean_obj))
        rows.append(RunRow(epoch, tag, "queries_skipped", skipped))
    return rows


_DNS_TIE_TOL = 1e-9  # relative gap under which a row's two best scores count as tied


def dns_epoch(model: Scorer, dataset: Dataset, cfg: TrainConfig,
              rng: np.random.Generator, epoch: int = 1) -> list[RunRow]:
    """Hardest-of-k negative sampling: per positive, draw dns_k uniform
    candidates (without replacement) and keep the one the model scores highest.

    A query's candidates are scored in one forward.  A stacked forward may
    differ from a k-row forward in the last bits, so a row whose two best
    scores lie within ``_DNS_TIE_TOL`` is scored again alone, and every pick
    is the one a k-row forward per positive makes."""
    entries, skipped = _negative_entries(dataset, cfg)

    def draw(q, pos, neg_pool):
        k = min(cfg.dns_k, len(neg_pool))
        cand = np.array([rng.choice(len(neg_pool), size=k, replace=False) for _ in pos])
        scores = model.score_many(q, take(neg_pool, cand.ravel())).reshape(len(pos), k)
        best = np.argmax(scores, axis=1)
        if k > 1:
            top2 = np.partition(scores, k - 2, axis=1)[:, k - 2:]
            tied = top2[:, 1] - top2[:, 0] <= _DNS_TIE_TOL * (1.0 + np.abs(top2[:, 1]))
            for i in np.flatnonzero(tied):
                best[i] = np.argmax(model.score_many(q, take(neg_pool, cand[i])))
        return take(neg_pool, cand[np.arange(len(pos)), best])

    return [
        RunRow(epoch, "D", "objective_mean", _negative_epoch(model, entries, draw, cfg)),
        RunRow(epoch, "D", "queries_skipped", skipped),
    ]


def irgan_objective(generator: SoftmaxPolicy, discriminator: Scorer,
                    dataset: Dataset) -> float:
    """The joint minimax objective: per query, the expected log D over the true
    (relevant-document) distribution plus the expected log(1 - D) under the
    generator, both by exact enumeration of the pool.  The true distribution
    is uniform over relevant documents.
    """
    total = 0.0
    for g in dataset.groups.values():
        q, pool, pos = g.query, g.pool, g.positives
        if pos:
            total += float(log_sigmoid(discriminator.score_many(q, pos)).mean())
        probs = policy_probs(generator, q, pool)
        total += float(probs @ log_sigmoid(-discriminator.score_many(q, pool)))
    return total


# -- whole-run drivers ----------------------------------------------------------


@dataclass
class TrainResult:
    """A finished run.  ``reports`` holds every model's evaluation after the
    last epoch (empty when the run had no evaluation dataset)."""

    record: RunRecord
    models: dict[str, Scorer]
    chosen: str | None = None
    reports: dict[str, EvalReport] = field(default_factory=dict)


def _check_finite(models: dict[str, Scorer]) -> None:
    for tag, model in models.items():
        if not np.all(np.isfinite(model.params.values)):
            raise NumericError(f"model {tag!r} has non-finite parameters")


def _evaluate(record: RunRecord, models, epoch, eval_dataset, metric_names):
    """Append every model's evaluation at ``epoch`` to ``record``; returns
    the reports."""
    reports = {tag: evaluate_model(models[tag], eval_dataset, metric_names)
               for tag in sorted(models)}
    for tag, report in reports.items():
        for metric, value in report.values.items():
            record.append(epoch, tag, metric, value)
    return reports


def run_trainer(name: str, dataset: Dataset, cfg: TrainConfig,
                models: dict[str, Scorer], eval_dataset: Dataset | None = None,
                metric_names: Sequence[str] = ("p@5", "ndcg@5")) -> TrainResult:
    """Train ``models`` for cfg.epochs_outer epochs under the named regime.

    Expected model roles: irgan-* -> {G, D}; single-d -> {M}; dual-d -> {A, B};
    dns -> {D}.  When ``eval_dataset`` is given, every model is evaluated
    before training (epoch 0) and after each epoch, and the result keeps the
    last epoch's reports.  Raises NumericError as soon as any parameter
    leaves the finite range.
    """
    if name not in TRAINER_NAMES:
        raise InvalidConfigError(
            f"unknown trainer {name!r}; expected one of {TRAINER_NAMES}"
        )
    expected_roles = set(TRAINER_ROLES[name])
    if set(models) != expected_roles:
        raise InvalidConfigError(
            f"trainer {name!r} needs models {sorted(expected_roles)}, "
            f"got {sorted(models)}"
        )

    rng = np.random.default_rng(cfg.seed)
    record = RunRecord()
    generator = None
    if name.startswith("irgan"):
        generator = SoftmaxPolicy(models["G"], cfg.temperature)
        if cfg.pretrain_epochs > 0:
            pre_cfg = replace(cfg, epochs_outer=cfg.pretrain_epochs,
                              learning_rate=cfg.pretrain_lr, pretrain_epochs=0)
            # Pretraining rows get their own tag: their epochs restart at 1
            # and would otherwise collide with the adversarial G rows.
            record.extend(replace(row, model="G-pretrain")
                          for row in pretrain_mle(generator, dataset, pre_cfg).rows)

    reports = {}
    if eval_dataset is not None:
        reports = _evaluate(record, models, 0, eval_dataset, metric_names)

    for epoch in range(1, cfg.epochs_outer + 1):
        if name == "irgan-pointwise":
            rows = irgan_pointwise_epoch(generator, models["D"], dataset, cfg, rng, epoch)
        elif name == "irgan-pairwise":
            rows = irgan_pairwise_epoch(generator, models["D"], dataset, cfg, rng, epoch)
        elif name == "single-d":
            rows = single_d_epoch(models["M"], dataset, cfg, rng, epoch)
        elif name == "dual-d":
            rows = dual_d_outer_epoch(models["A"], models["B"], dataset, cfg, rng, epoch)
        else:
            rows = dns_epoch(models["D"], dataset, cfg, rng, epoch)
        record.extend(rows)
        _check_finite(models)
        if eval_dataset is not None:
            reports = _evaluate(record, models, epoch, eval_dataset, metric_names)

    chosen = None
    if name == "dual-d":
        chosen = "A" if int(rng.integers(2)) == 0 else "B"
    return TrainResult(record=record, models=models, chosen=chosen, reports=reports)
