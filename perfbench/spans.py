"""In-memory span tracer for the ranklab benchmark.

The benchmark records spans from its own files: ``install`` wraps the public
functions and scorer kernels of the ``ranklab`` package in place, and
``uninstall`` puts the originals back.  Nothing under ``src/`` is edited.

Two binding rules matter when wrapping:

* ``trainers``, ``pgvar`` and ``cli`` bind functions with ``from .x import y``,
  so replacing only the defining module's attribute misses their calls.
  Every attribute of every ``ranklab.*`` module that *is* the original
  function object is replaced.
* Scorer kernels are methods; each concrete class is patched on its own
  ``__dict__`` (``Mlp1Scorer.score_many`` and so on).

A span records its name, its parent span, start and end times, and two
counts taken from the call's arguments: ``rows`` (documents passed, or
state-action pairs for pgvar) and ``units`` (states for pgvar, parameter
count for scorer kernels).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    rows: int = 0
    units: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``active`` is cleared while checks run so
    that the benchmark's own verification calls are not counted."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.active = True
        self._stack: list[int] = []

    def open(self, name: str, rows: int = 0, units: int = 0) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.clock(), rows=rows, units=units))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


# -- argument measures ----------------------------------------------------------


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _docs_rows(pos, name):
    def measure(args, kwargs):
        docs = _arg(args, kwargs, pos, name)
        return (len(docs) if docs is not None else 0), args[0].params.layout.size
    return measure


def _one_row(args, kwargs):
    return 1, args[0].params.layout.size


def _instance(args, kwargs):
    inst = _arg(args, kwargs, 0, "instance")
    return inst.total_pairs, len(inst.states)


def _step_rows(args, kwargs):
    pos = _arg(args, kwargs, 1, "positives") or ()
    neg = _arg(args, kwargs, 2, "negatives") or ()
    return len(pos) + len(neg), 0


def _pair_rows(args, kwargs):
    return 2 * len(_arg(args, kwargs, 1, "triples") or ()), 0


# Functions that take an MDPInstance first: their spans count state-action
# pairs (rows) and states (units).
INSTANCE_FUNCTIONS = (
    "exact_gradient_mean", "exact_variance", "variance_decomposition",
    "variance_lower_bound", "verify_variance_bound", "mc_variance",
)

# (span name, defining module, attribute, measure)
FUNCTIONS = [
    ("core.build_dataset", "ranklab.core", "build_dataset", None),
    ("core.candidate_pool", "ranklab.core", "candidate_pool", None),
    ("dataio.synth_retrieval", "ranklab.dataio", "synth_retrieval", None),
    ("dataio.split_queries", "ranklab.dataio", "split_queries", None),
    ("dataio.parse_qa_pairs", "ranklab.dataio", "parse_qa_pairs", None),
    ("dataio.parse_interactions", "ranklab.dataio", "parse_interactions", None),
    ("policy.policy_probs", "ranklab.policy", "policy_probs", None),
    ("policy.log_policy_probs", "ranklab.policy", "log_policy_probs", None),
    ("policy.sample_docs", "ranklab.policy", "sample_docs", None),
    ("policy.discriminator_sampling_probs", "ranklab.policy",
     "discriminator_sampling_probs", None),
    ("baselines.resolve_baseline", "ranklab.trainers", "resolve_baseline", None),
    ("trainers.pretrain_mle", "ranklab.trainers", "pretrain_mle", None),
    ("trainers.single_d_epoch", "ranklab.trainers", "single_d_epoch", None),
    ("trainers.dual_d_outer_epoch", "ranklab.trainers", "dual_d_outer_epoch", None),
    ("trainers.dns_epoch", "ranklab.trainers", "dns_epoch", None),
    ("trainers.irgan_pointwise_epoch", "ranklab.trainers", "irgan_pointwise_epoch", None),
    ("trainers.irgan_pairwise_epoch", "ranklab.trainers", "irgan_pairwise_epoch", None),
    ("trainers.discriminator_step", "ranklab.trainers", "discriminator_step", _step_rows),
    ("trainers.discriminator_pair_step", "ranklab.trainers", "discriminator_pair_step",
     _pair_rows),
    ("trainers.generator_gradient", "ranklab.trainers", "generator_gradient", None),
    ("trainers.irgan_objective", "ranklab.trainers", "irgan_objective", None),
    ("trainers.run_trainer", "ranklab.trainers", "run_trainer", None),
    # Private, wrapped only to split the ROADMAP's `_sampler_table` baseline row.
    ("trainers.sampler_table", "ranklab.trainers", "_sampler_table", None),
    ("pgvar.build_instance", "ranklab.pgvar", "build_instance", None),
    ("pgvar.study_instance", "ranklab.pgvar", "study_instance", None),
    ("pgvar.sparsity_vs_bound_study", "ranklab.pgvar", "sparsity_vs_bound_study", None),
    *[(f"pgvar.{fn}", "ranklab.pgvar", fn, _instance) for fn in INSTANCE_FUNCTIONS],
    ("metrics.evaluate_model", "ranklab.metrics", "evaluate_model", None),
    ("metrics.rank", "ranklab.metrics", "rank", None),
    ("cli.main", "ranklab.cli", "main", None),
    ("cli.write", "ranklab._util", "write_csv", None),
    ("cli.write", "ranklab.scorers", "save_checkpoint", None),
]

SCORER_KERNELS = {
    "score": _one_row,
    "score_many": _docs_rows(2, "docs"),
    "grad_weighted_sum": _docs_rows(2, "docs"),
    "gradient_matrix": _docs_rows(2, "docs"),
}


def _methods():
    """(span name, class, method, measure) for Dataset lookups and every
    kernel a concrete scorer class defines itself."""
    from ranklab.core import Dataset
    from ranklab.scorers import (LinearScorer, MatFacScorer, Mlp1Scorer,
                                 TextAvgEmbedScorer)

    out = [("core.positives", Dataset, "positives", None),
           ("core.relevance_map", Dataset, "relevance_map", None)]
    for cls in (LinearScorer, Mlp1Scorer, MatFacScorer, TextAvgEmbedScorer):
        for meth, measure in SCORER_KERNELS.items():
            if meth in cls.__dict__:
                out.append((f"scorers.{cls.kind}.{meth}", cls, meth, measure))
    return out


def _wrap(tracer: Tracer, name: str, fn, measure):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        rows, units = measure(args, kwargs) if measure else (0, 0)
        idx = tracer.open(name, rows, units)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


class Installation:
    """The replaced bindings; ``uninstall`` restores every one of them."""

    def __init__(self):
        self.restore: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every traced function and kernel of the imported ranklab package."""
    done = Installation()
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "ranklab" or n.startswith("ranklab."))]
    for name, mod_name, attr, measure in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        wrapper = _wrap(tracer, name, original, measure)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    done.restore.append((module, key, original))
                    setattr(module, key, wrapper)
    for name, cls, meth, measure in _methods():
        original = cls.__dict__[meth]
        done.restore.append((cls, meth, original))
        setattr(cls, meth, _wrap(tracer, name, original, measure))
    return done


# -- aggregation ------------------------------------------------------------------


@dataclass
class SpanStats:
    calls: int = 0
    rows: int = 0
    units: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def _ancestors(spans: list[Span], idx: int):
    parent = spans[idx].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per-name calls, rows, inclusive busy time and self time.

    Self time is a span's duration minus the durations of its direct
    children.  Busy time counts only the outermost span of a name, so a name
    nested inside itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    stats: dict[str, SpanStats] = {}
    for i, span in enumerate(spans):
        st = stats.setdefault(span.name, SpanStats())
        st.calls += 1
        st.rows += span.rows
        st.units += span.units
        st.self_s += span.duration - child_time[i]
        st.durations.append(span.duration)
        if all(a.name != span.name for a in _ancestors(spans, i)):
            st.busy_s += span.duration
    return stats


def pgvar_counts(spans: list[Span], only: set[str] | None = None) -> tuple[int, int, int]:
    """(pairs, states, gradient_matrix calls) for the pgvar lab.

    Pairs and states are summed over top-level instance calls, i.e. those
    with no instance-taking pgvar call above them (restricted to the names
    in ``only`` when given); gradient_matrix calls are counted anywhere below
    a counted one.
    """
    instance_names = {f"pgvar.{fn}" for fn in INSTANCE_FUNCTIONS}
    top_of: dict[int, bool] = {}  # span -> whether its top-level instance call counts
    pairs = states = passes = 0
    for i, span in enumerate(spans):  # a parent is recorded before its children
        if span.parent in top_of:
            top_of[i] = top_of[span.parent]
            passes += top_of[i] and span.name.endswith(".gradient_matrix")
        elif span.name in instance_names:
            top_of[i] = only is None or span.name in only
            if top_of[i]:
                pairs += span.rows
                states += span.units
    return pairs, states, passes


TRAINING_SPANS = {
    "trainers.pretrain_mle", "trainers.single_d_epoch", "trainers.dual_d_outer_epoch",
    "trainers.dns_epoch", "trainers.irgan_pointwise_epoch", "trainers.irgan_pairwise_epoch",
}
FORWARD_KERNELS = ("score", "score_many", "grad_weighted_sum", "gradient_matrix")


def rows_scored_per_example(spans: list[Span]) -> float:
    """Scorer rows under training spans (evaluation excluded) per document fed
    to a discriminator step; 0.0 when no discriminator step ran."""
    forward = examples = 0
    for i, span in enumerate(spans):
        if span.name in ("trainers.discriminator_step", "trainers.discriminator_pair_step"):
            examples += span.rows
        elif span.name.startswith("scorers.") and span.name.rsplit(".", 1)[1] in FORWARD_KERNELS:
            names = {a.name for a in _ancestors(spans, i)}
            if names & TRAINING_SPANS and "metrics.evaluate_model" not in names:
                forward += span.rows
    return forward / examples if examples else 0.0
