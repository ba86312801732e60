"""Metric definitions and their computation from timed and traced passes.

End-to-end metrics come from untraced passes; per-layer metrics from traced
passes of the same run.  Per-layer times and counts are per pass: counts
repeat exactly from pass to pass, times are medians over the traced passes.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from spans import Span, pgvar_counts, rows_scored_per_example, summarize

END_TO_END = [
    # (name, unit, better, bound)
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("model_epochs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

EPOCH_FUNCTIONS = ("single_d_epoch", "dual_d_outer_epoch", "dns_epoch",
                   "irgan_pointwise_epoch", "irgan_pairwise_epoch")

# (span name, per-pass statistics reported for it)
SPAN_METRICS = [
    ("core.positives", ("calls", "busy_s")),
    ("core.candidate_pool", ("calls", "busy_s")),
    ("core.relevance_map", ("calls",)),
    ("core.build_dataset", ("busy_s",)),
    *[(f"scorers.mlp1.{k}", ("calls", "rows", "busy_s"))
      for k in ("score_many", "grad_weighted_sum", "gradient_matrix")],
    ("scorers.mlp1.score", ("calls",)),
    *[(f"scorers.linear.{k}", ("rows", "busy_s"))
      for k in ("score_many", "grad_weighted_sum", "gradient_matrix")],
    ("scorers.text.score_many", ("rows", "busy_s")),
    ("scorers.text.grad_weighted_sum", ("calls", "rows", "busy_s", "bytes")),
    *[(f"scorers.matfac.{k}", ("rows", "busy_s")) for k in ("score_many", "grad_weighted_sum")],
    ("policy.policy_probs", ("calls", "busy_s")),
    ("policy.log_policy_probs", ("busy_s",)),
    ("policy.sample_docs", ("calls", "busy_s")),
    ("policy.discriminator_sampling_probs", ("calls", "busy_s")),
    ("baselines.resolve_baseline", ("calls", "busy_s")),
    *[(f"trainers.{e}", ("epoch_ms.p50", "epoch_ms.p90", "self_s")) for e in EPOCH_FUNCTIONS],
    ("trainers.pretrain_mle", ("busy_s", "self_s")),
    ("trainers.discriminator_step", ("calls", "busy_s")),
    ("trainers.generator_gradient", ("calls", "busy_s")),
    ("trainers.discriminator_pair_step", ("busy_s",)),
    ("trainers.run_trainer", ("self_s",)),
    ("trainers.irgan_objective", ("calls", "busy_s")),
    ("trainers.sampler_table", ("calls", "busy_s")),
    *[(f"pgvar.{f}", ("calls", "busy_s")) for f in
      ("study_instance", "exact_gradient_mean", "exact_variance", "verify_variance_bound")],
    *[(f"pgvar.{f}", ("busy_s",)) for f in
      ("build_instance", "variance_decomposition", "variance_lower_bound", "mc_variance",
       "sparsity_vs_bound_study")],
    ("metrics.evaluate_model", ("calls", "busy_s")),
    ("metrics.rank", ("calls", "busy_s")),
    *[(f"dataio.{f}", ("busy_s",)) for f in
      ("synth_retrieval", "split_queries", "parse_qa_pairs", "parse_interactions")],
    ("cli.main", ("self_s",)),
    ("cli.write", ("busy_s",)),
]

STAT_UNITS = {"calls": "count", "rows": "count", "busy_s": "s", "self_s": "s",
              "bytes": "B", "epoch_ms.p50": "ms", "epoch_ms.p90": "ms"}

DERIVED_METRICS = [
    # (name, unit, better)
    ("scorers.rows_scored_per_example", "ratio", "lower"),
    ("pgvar.policy_passes_per_state", "ratio", "lower"),
    ("pgvar.pairs_per_s", "1/s", "higher"),
    ("process.user_s", "s", "lower"),
    ("process.sys_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("quality", "score", "higher"),
    ("failed_frac", "frac", "lower"),
]


def per_layer_definitions() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in output order."""
    out = [(f"{span}.{stat}", STAT_UNITS[stat], "lower")
           for span, stats in SPAN_METRICS for stat in stats]
    return out + DERIVED_METRICS


@dataclass
class PassResult:
    seconds: float
    user_s: float
    sys_s: float
    enumeration_s: float = 0.0  # time of the operations that enumerate pairs
    op_seconds: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    quality: list[float] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)


def tail(samples: list[float]) -> dict:
    """Median and the highest whole percentile with at least ten samples
    beyond it (nearest rank), with the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "samples": n}
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        ordered = sorted(samples)
        out[f"p{pct}"] = ordered[max(0, -(-pct * n // 100) - 1)]
    return out


def _span_stat(stats, durations, span, stat):
    st = stats.get(span)
    if stat.startswith("epoch_ms"):
        if not durations.get(span):
            return 0.0
        q = 50 if stat.endswith("p50") else 90
        return float(np.percentile(durations[span], q)) * 1e3
    if st is None:
        return 0
    if stat == "bytes":
        return 8 * st.units
    return getattr(st, stat)


def per_layer(traced: list[PassResult], untraced: list[PassResult],
              attempted: int, failed_ops: int) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced pass, times as the
    median over traced passes, epoch percentiles over all traced epochs."""
    summaries = [summarize(p.spans) for p in traced]
    durations: dict[str, list[float]] = {}
    for summary in summaries:
        for name, st in summary.items():
            durations.setdefault(name, []).extend(st.durations)
    values: dict[str, float] = {}
    for span, stats in SPAN_METRICS:
        for stat in stats:
            per_pass = [_span_stat(s, durations, span, stat) for s in summaries]
            values[f"{span}.{stat}"] = (statistics.median(per_pass)
                                        if STAT_UNITS[stat] in ("s", "ms") else per_pass[0])
    pairs, states, passes = pgvar_counts(traced[0].spans)
    values["scorers.rows_scored_per_example"] = rows_scored_per_example(traced[0].spans)
    values["pgvar.policy_passes_per_state"] = passes / states if states else 0.0
    enumeration_s = statistics.median(p.enumeration_s for p in untraced)
    values["pgvar.pairs_per_s"] = pairs / enumeration_s if enumeration_s else 0.0
    values["process.user_s"] = statistics.median(p.user_s for p in untraced)
    values["process.sys_s"] = statistics.median(p.sys_s for p in untraced)
    # Each traced pass directly follows its untraced pass, so the paired
    # difference cancels the machine's slow drift in speed.
    values["trace.overhead_s"] = statistics.median(
        t.seconds - u.seconds for u, t in zip(untraced, traced))
    values["quality"] = quality(traced[0])
    values["failed_frac"] = failed_ops / attempted
    return values


def quality(result: PassResult) -> float:
    return float(np.mean(result.quality)) if result.quality else 0.0


def count_signature(result: PassResult) -> list[tuple[str, int, int]]:
    """The per-pass counts that must repeat exactly between traced passes."""
    return sorted((name, st.calls, st.rows) for name, st in summarize(result.spans).items())


# -- comparison with the ROADMAP's baseline rows ---------------------------------

# Baseline numbers (ROADMAP table and the A6 epoch costs measured with it)
# are single runs and carry +-15%.  The epoch rows are on the A6 shape (50
# queries); the workloads train on the 40-query split, so those scale by
# 40/50.  The variance rows are on configs/variance_study.ini, the shape
# variance-qa runs.
ROADMAP_TOLERANCE = 0.15
A6_SCALE = 40 / 50
ROADMAP_SAMPLER_TABLE_MS = 11.6
ROADMAP_INNER_EPOCH_MS = 2.0
A6_SINGLE_D_EPOCH_MS = 24.0
A6_POINTWISE_EPOCH_MS, A6_OBJECTIVE_MS = 108.0, 32.0
ROADMAP_VARIANCE_RUN_S, ROADMAP_STUDY_INSTANCE_S = 5.2, 0.68


def _row(what, measured, reference, unit):
    ratio = measured / reference if reference else float("nan")
    return {"row": what, "measured": measured, "reference": reference, "unit": unit,
            "agrees": abs(ratio - 1.0) <= ROADMAP_TOLERANCE}


def _child_share(spans: list[Span], parent_name: str) -> dict[str, float]:
    """Share of a span name's busy time spent in each direct child name."""
    total = 0.0
    shares: dict[str, float] = {}
    for span in spans:
        if span.name == parent_name:
            total += span.duration
        elif span.parent is not None and spans[span.parent].name == parent_name:
            shares[span.name] = shares.get(span.name, 0.0) + span.duration
    return {k: v / total for k, v in sorted(shares.items())} if total else {}


def roadmap_rows(workload: str, values: dict[str, float], traced: list[PassResult],
                 untraced: list[PassResult], dual_d_inner: int) -> list[dict]:
    """The ROADMAP baseline rows this workload's trace covers, measured
    against them.  The epoch rows are A6-shaped, so only the web workloads
    report them.  The `rank-lab variance` run is timed untraced; the
    per-build study_instance time is traced, so it carries the overhead."""
    rows = []
    if workload == "variance-qa":
        rows.append(_row("`rank-lab variance` on variance_study.ini (seed replaced)",
                         statistics.median(p.op_seconds["variance"] for p in untraced),
                         ROADMAP_VARIANCE_RUN_S, "s"))
        calls = values["pgvar.study_instance.calls"]
        rows.append(_row("study_instance build", values["pgvar.study_instance.busy_s"] / calls,
                         ROADMAP_STUDY_INSTANCE_S, "s"))
        rows.append(_row("study_instance builds per `rank-lab variance` (3 fractions)",
                         calls, 7, "count"))
        rows.append(_row("policy passes per state in verify_variance_bound (up to 5)",
                         verify_passes_per_state(traced[0].spans), 5, "ratio"))
    if not workload.startswith("web-"):
        return rows
    ms = values["trainers.single_d_epoch.epoch_ms.p50"]
    if ms:
        rows.append(_row("single-d epoch", ms, A6_SINGLE_D_EPOCH_MS * A6_SCALE, "ms"))
    ms = values["trainers.irgan_pointwise_epoch.epoch_ms.p50"]
    if ms:
        rows.append(_row("irgan pointwise epoch", ms, A6_POINTWISE_EPOCH_MS * A6_SCALE, "ms"))
        per_call = 1e3 * values["trainers.irgan_objective.busy_s"] / values[
            "trainers.irgan_objective.calls"]
        rows.append(_row("irgan_objective per epoch", per_call,
                         A6_OBJECTIVE_MS * A6_SCALE, "ms"))
    calls = values["trainers.sampler_table.calls"]
    if calls:
        per_call = 1e3 * values["trainers.sampler_table.busy_s"] / calls
        row = _row("_sampler_table per call", per_call,
                   ROADMAP_SAMPLER_TABLE_MS * A6_SCALE, "ms")
        row["child_share"] = _child_share(traced[0].spans, "trainers.sampler_table")
        rows.append(row)
    ms = values["trainers.dual_d_outer_epoch.epoch_ms.p50"]
    if ms:
        reference = A6_SCALE * (2 * ROADMAP_SAMPLER_TABLE_MS
                                + 2 * dual_d_inner * ROADMAP_INNER_EPOCH_MS)
        rows.append(_row(f"dual-d outer epoch at {dual_d_inner} inner "
                         "(2 sampler tables + 2 x inner x inner-epoch)", ms, reference, "ms"))
    return rows


def verify_passes_per_state(spans: list[Span]) -> float:
    """gradient_matrix calls per state under top-level verify_variance_bound calls."""
    _, states, passes = pgvar_counts(spans, only={"pgvar.verify_variance_bound"})
    return passes / states if states else 0.0
