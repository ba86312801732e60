"""Generator distribution over candidate pools.

A SoftmaxPolicy turns a scorer into p(d|q) = softmax(scores / T) over an
explicit pool.  Sampling is i.i.d. with replacement, matching the
expectation the policy-gradient update averages over.  Draws search a
cumulative distribution (``_sampling_cdf`` / ``_draw_from_cdf``): the same
indices and the same random stream as ``Generator.choice(n, size, p=probs)``,
without re-validating ``probs`` on every call.  Every operation is a pure
function of (params, pool, rng state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Document, EmptyPoolError, Query, take
from .scorers import NumericError, Scorer, sigmoid


@dataclass
class SoftmaxPolicy:
    scorer: Scorer
    temperature: float = 1.0

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def _check_pool(pool):
    if len(pool) == 0:
        raise EmptyPoolError("candidate pool is empty")


def _sampling_cdf(probs: np.ndarray) -> np.ndarray:
    """The normalized cumulative sum that ``Generator.choice(p=probs)`` searches."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_from_cdf(cdf: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` i.i.d. positions drawn with replacement from ``cdf``; consumes
    ``rng`` exactly as ``rng.choice(len(cdf), size, replace=True, p=probs)``
    does and returns the same indices."""
    return cdf.searchsorted(rng.random(size), side="right")


def _finite(scores: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(scores)):
        raise NumericError("scores are not finite; cannot form a sampling distribution")
    return scores


def _softmax(scores: np.ndarray, temperature: float, log: bool = False) -> np.ndarray:
    """The policy over a pool from its scores: softmax(scores / T), or its log."""
    z = _finite(scores) / temperature
    z -= z.max()
    if log:
        return z - np.log(np.exp(z).sum())
    e = np.exp(z)
    return e / e.sum()


def policy_probs(policy: SoftmaxPolicy, query: Query | None, pool) -> np.ndarray:
    """softmax(scores / T) with max-subtraction; sums to 1 within 1e-12."""
    _check_pool(pool)
    return _softmax(policy.scorer.score_many(query, pool), policy.temperature)


def log_policy_probs(policy: SoftmaxPolicy, query, pool) -> np.ndarray:
    _check_pool(pool)
    return _softmax(policy.scorer.score_many(query, pool), policy.temperature, log=True)


def sample_docs(policy: SoftmaxPolicy, query, pool, k: int,
                rng: np.random.Generator) -> Sequence[Document]:
    """Draw k documents i.i.d. from the policy distribution over the pool."""
    _check_pool(pool)
    if k < 1:
        raise ValueError(f"sample count must be >= 1, got {k}")
    probs = policy_probs(policy, query, pool)
    return take(pool, _draw_from_cdf(_sampling_cdf(probs), k, rng))


def log_prob_gradient(policy: SoftmaxPolicy, query, pool, doc: Document) -> np.ndarray:
    """grad_theta log p(doc|q) = (grad s_doc - sum_i p_i grad s_i) / T."""
    _check_pool(pool)
    positions = [i for i, d in enumerate(pool) if d.id == doc.id]
    if not positions:
        raise ValueError(f"doc {doc.id!r} not in the candidate pool")
    fwd = policy.scorer.forward(query, pool)
    weights = -_softmax(fwd.scores, policy.temperature)
    weights[positions[0]] += 1.0
    return policy.scorer.backward(fwd, weights) / policy.temperature


def normalized_discriminator_sampling(model: Scorer, query, pool, k: int,
                                      rng: np.random.Generator) -> Sequence[Document]:
    """Draw k documents with probability sigmoid(f(d,q)) / sum over the pool.

    This is the self-contrastive sampler: the discriminator's own output,
    normalized over the pool, is the negative-sampling distribution.
    """
    _check_pool(pool)
    if k < 1:
        raise ValueError(f"sample count must be >= 1, got {k}")
    probs = discriminator_sampling_probs(model, query, pool)
    return take(pool, _draw_from_cdf(_sampling_cdf(probs), k, rng))


def discriminator_sampling_probs(model: Scorer, query, pool) -> np.ndarray:
    """The normalized sampling weights used by normalized_discriminator_sampling."""
    _check_pool(pool)
    weights = sigmoid(_finite(model.score_many(query, pool)))
    return weights / weights.sum()
