"""The three benchmark workloads and the checks on their outputs.

A workload is built from one seed (its set-up) and then runs a fixed list of
operations per pass.  An operation is one CLI call, trainer run or
enumeration call.  Every pass starts from the same set-up state, so its
outputs, digests and traced counts repeat exactly.

Why these three: the per-step softmax, sampling and REINFORCE path (IRGAN)
dominates ``web-adversarial`` and is absent from ``web-contrastive``; the
contrastive and hardest-of-k loops (dynamic negative sampling) dominate
``web-contrastive`` and are absent from ``web-adversarial``.  ``variance-qa``
runs the two parts no web workload touches: exact enumeration (pgvar), and
token- and id-indexed pools with a shared document catalog.  They share one
workload because their hot paths are disjoint, and fewer workloads leave
each run long enough to average out the speed drift of a shared machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Timed calls go through module attributes, so the tracer's wrappers see them.
from ranklab import cli, dataio, metrics, pgvar, trainers
from ranklab.baselines import ConstantBaseline, ValueFunctionBaseline
from ranklab.policy import SoftmaxPolicy
from ranklab.scorers import build_scorer, load_checkpoint
from ranklab.trainers import TrainConfig

# -- sizes (per pass) -------------------------------------------------------------

WEB_TASK = dict(num_queries=50, pool_size=200, relevant_fraction=0.005, feature_dim=46)
WEB_HIDDEN = 46
HOLDOUT_FRACTION, SPLIT_SEED = 0.2, 13

CONTRASTIVE_EPOCHS = {"single-d": 4, "dns": 4}
DUAL_D_OUTER, DUAL_D_INNER = 2, 8

PRETRAIN_EPOCHS = 3
ADVERSARIAL_EPOCHS = 2

# configs/variance_study.ini as shipped; the workload replaces only its seed.
VARIANCE_STUDY = dict(fractions="0.002,0.005,0.015", b=0.5, num_queries=10, pool_size=1000,
                      feature_dim=5, train_epochs=60, learning_rate=0.3, mc_samples=100_000,
                      b_sweep="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
ENUM_QUERIES, ENUM_POOL = 40, 200
ENUM_B = 0.5
MC_SAMPLES = 100_000
MC_MAX_SE = 4.0

QA_QUESTIONS, QA_CANDIDATES, QA_VOCAB, QA_TOPICS = 80, 20, 2000, 40
QA_OUTER = 3
REC_USERS, REC_ITEMS, REC_RATED, REC_LIKED = 80, 200, 30, 10
REC_EPOCHS = 3

# The known defect web-adversarial reproduces: run_trainer pretrains the
# generator and then appends the pretraining record's epochs, which collide
# with the adversarial epochs in the run record.  The fix belongs to src/.
KNOWN_PRETRAIN_DEFECT = "ValueError: epoch 1 not increasing for G/queries_skipped (last 1)"


# -- operations and outcomes ------------------------------------------------------


@dataclass
class Outcome:
    """What an operation's checks found: output digests, problems, quality."""

    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    quality: list[float] = field(default_factory=list)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` runs untimed on its result.

    ``known_defect`` is the exact error text of a recorded defect; when the
    run raises it, the operation is counted as a known failure.  ``enumerates``
    marks the variance-lab operations, which enumerate state-action pairs.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    known_defect: str | None = None
    enumerates: bool = False  # its time is the denominator of pgvar.pairs_per_s


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_finite(label: str, values, out: Outcome) -> None:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        out.problems.append(f"{label}: non-finite values")


def check_unit(label: str, value: float, out: Outcome) -> None:
    if not 0.0 <= value <= 1.0:
        out.problems.append(f"{label}: {value!r} outside [0, 1]")


def _read_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def _is_metric(name: str) -> bool:
    return name.startswith(("p@", "ndcg@"))


def cli_op(name: str, argv: list[str], run_dir: Path,
           check: Callable[[Path, Outcome], None]) -> Op:
    """An in-process ``rank-lab`` call; its console output is captured."""

    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()

    def checked(result) -> Outcome:
        code, err = result
        out = Outcome()
        if code != 0:
            out.problems.append(f"exit {code}: {err}")
            return out
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            rel = path.relative_to(run_dir).as_posix()
            if rel != "config.copy":  # holds checkout paths
                out.digests[f"{name}/{rel}"] = sha256(path.read_bytes())
        check(run_dir, out)
        return out

    return Op(name, run, checked)


def check_train_dir(run_dir: Path, out: Outcome) -> None:
    """curves/results metrics in [0, 1], other curve values and checkpoint
    parameters finite; result rows feed the workload's quality."""
    for epoch, model, metric, value in _read_rows(run_dir / "curves.csv"):
        label = f"curves {model}/{metric}@{epoch}"
        if _is_metric(metric):
            check_unit(label, float(value), out)
        else:
            check_finite(label, float(value), out)
    for model, metric, value, _, _ in _read_rows(run_dir / "results.csv"):
        check_unit(f"results {model}/{metric}", float(value), out)
        if model != "chosen" and metric in ("ndcg@5", "p@1"):
            out.quality.append(float(value))
    for ckpt in sorted((run_dir / "checkpoints").glob("*.ckpt")):
        check_finite(f"checkpoint {ckpt.name}", load_checkpoint(ckpt).params.values, out)


def _write_ini(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _web_dataset_section(seed: int) -> dict[str, object]:
    return {"source": "synthetic", **WEB_TASK, "seed": seed,
            "holdout_fraction": HOLDOUT_FRACTION, "split_seed": SPLIT_SEED}


def _web_model(seed: int):
    return build_scorer("mlp1", {"feature_dim": WEB_TASK["feature_dim"], "hidden": WEB_HIDDEN},
                        scale=0.1, seed=seed)


# -- workloads ----------------------------------------------------------------------


class Workload:
    """Set-up happens in ``__init__``; ``ops`` lists one pass's operations."""

    name = ""
    model_epochs = 0  # per pass, in cmd_compare's budget-parity unit

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def ops(self) -> list[Op]:
        raise NotImplementedError


class WebContrastive(Workload):
    """`rank-lab train` of single-d, dual-d and dns on the sparse web task,
    with per-epoch holdout evaluation."""

    name = "web-contrastive"
    model_epochs = (CONTRASTIVE_EPOCHS["single-d"] + 2 * DUAL_D_INNER * DUAL_D_OUTER
                    + CONTRASTIVE_EPOCHS["dns"])

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        base = {"dataset": _web_dataset_section(seed),
                "model": {"kind": "mlp1", "hidden": WEB_HIDDEN, "init_scale": 0.1},
                "eval": {"metrics": "p@5,ndcg@5"}}
        settings = {
            "single-d": {"learning_rate": 0.004, "batch_size": 8,
                         "epochs_outer": CONTRASTIVE_EPOCHS["single-d"]},
            "dual-d": {"learning_rate": 0.006, "batch_size": 8, "epochs_outer": DUAL_D_OUTER,
                       "epochs_inner": DUAL_D_INNER},
            "dns": {"learning_rate": 0.004, "batch_size": 8, "dns_k": 5,
                    "epochs_outer": CONTRASTIVE_EPOCHS["dns"]},
        }
        self.configs = {
            trainer: _write_ini(tmp / f"web-{trainer}.ini", {
                "run": {"name": f"web-{trainer}"}, **base,
                "trainer": {"name": trainer, **params, "seed": seed}})
            for trainer, params in settings.items()
        }

    def ops(self):
        out = self.tmp / "out"
        return [cli_op(f"train-{t}", ["train", "--config", str(ini), "--out", str(out)],
                       out / f"web-{t}", check_train_dir)
                for t, ini in self.configs.items()]


class WebAdversarial(Workload):
    """The A6 adversarial protocol through the public functions: MLE
    pretraining, pointwise epochs with a constant baseline, pairwise epochs
    with the exact value baseline; plus one run_trainer call of the
    `web-irgan` shape (pretraining inside run_trainer), which reproduces a
    known defect."""

    name = "web-adversarial"
    model_epochs = PRETRAIN_EPOCHS + 2 * ADVERSARIAL_EPOCHS

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        dataset, _ = dataio.synth_retrieval(dataio.SyntheticSpec(**WEB_TASK, seed=seed))
        self.train, self.holdout = dataio.split_queries(dataset, HOLDOUT_FRACTION, SPLIT_SEED)
        self.generator = _web_model(seed + 11)
        self.discriminator = _web_model(seed + 23)

    def _ndcg5(self, model) -> float:
        return metrics.evaluate_model(model, self.holdout, ("ndcg@5",)).values["ndcg@5"]

    def ops(self):
        seed, state = self.seed, {}

        def pretrain():
            policy = SoftmaxPolicy(self.generator.clone(), 1.0)
            record = trainers.pretrain_mle(policy, self.train, TrainConfig(
                learning_rate=0.01, epochs_outer=PRETRAIN_EPOCHS, seed=seed))
            state["pretrained"] = policy.scorer
            return [r.value for r in record.rows], policy.scorer, self._ndcg5(policy.scorer)

        def adversarial(epoch_fn, baseline):
            def run():
                policy = SoftmaxPolicy(state["pretrained"].clone(), 1.0)
                discriminator = self.discriminator.clone()
                cfg = TrainConfig(learning_rate=0.07, batch_size=8, k_samples=1,
                                  baseline=baseline, seed=seed)
                rng = np.random.default_rng(seed)
                values = []
                for epoch in range(1, ADVERSARIAL_EPOCHS + 1):
                    values += [r.value for r in epoch_fn(policy, discriminator, self.train,
                                                         cfg, rng, epoch)]
                return (values, policy.scorer, self._ndcg5(policy.scorer), discriminator,
                        self._ndcg5(discriminator))
            return run

        def irgan_with_pretraining():
            cfg = TrainConfig(learning_rate=0.07, batch_size=8, epochs_outer=1, seed=seed,
                              pretrain_epochs=1, pretrain_lr=0.01)
            models = {"G": self.generator.clone(), "D": self.discriminator.clone()}
            result = trainers.run_trainer("irgan-pointwise", self.train, cfg, models,
                                          eval_dataset=self.holdout, metric_names=("ndcg@5",))
            return ([r.value for r in result.record.rows], models["G"],
                    self._ndcg5(models["G"]), models["D"], self._ndcg5(models["D"]))

        def checker(name):
            def check(result) -> Outcome:
                values, *evaluated = result
                out = Outcome()
                check_finite(f"{name} record", values, out)
                for role, (model, ndcg) in zip("GD", zip(evaluated[::2], evaluated[1::2])):
                    check_unit(f"{name} {role} holdout ndcg@5", ndcg, out)
                    check_finite(f"{name} {role} params", model.params.values, out)
                    out.digests[f"{name}/{role}.params"] = sha256(model.params.values.tobytes())
                    out.quality.append(ndcg)
                out.digests[f"{name}/record"] = sha256(repr(values).encode())
                return out
            return check

        return [
            Op("pretrain_mle", pretrain, checker("pretrain_mle")),
            Op("irgan-pointwise",
               adversarial(trainers.irgan_pointwise_epoch, ConstantBaseline(0.0)),
               checker("irgan-pointwise")),
            Op("irgan-pairwise",
               adversarial(trainers.irgan_pairwise_epoch, ValueFunctionBaseline()),
               checker("irgan-pairwise")),
            Op("run_trainer irgan-pointwise pretrain_epochs=1", irgan_with_pretraining,
               checker("run_trainer-irgan-pretrain"), known_defect=KNOWN_PRETRAIN_DEFECT),
        ]


def _float_digest(values) -> str:
    return sha256(repr([float(v) for v in values]).encode())


def check_study_dir(run_dir: Path, out: Outcome) -> None:
    """study.csv: MC within 4 SE of exact; bound_chain.csv: terms sum to the
    exact variance and the bound holds on the below-baseline term;
    b_sweep.csv: bounds finite and non-negative."""
    for fraction, _, _, bound, exact, mc_var, mc_se, _ in _read_rows(run_dir / "study.csv"):
        exact, mc_var, mc_se = float(exact), float(mc_var), float(mc_se)
        if not abs(mc_var - exact) <= MC_MAX_SE * mc_se:
            out.problems.append(f"study {fraction}: MC {mc_var!r} not within "
                                f"{MC_MAX_SE} SE of exact {exact!r}")
    for row in _read_rows(run_dir / "bound_chain.csv"):
        fraction, exact, below, above = row[0], float(row[2]), float(row[3]), float(row[4])
        if not abs(below + above - exact) <= 1e-10 * abs(exact):
            out.problems.append(f"bound chain {fraction}: terms do not sum to the variance")
        if row[5] != "undefined" and not (row[8] == "true" and row[9] == "true"):
            out.problems.append(f"bound chain {fraction}: bound does not hold")
    for b, _, bound in _read_rows(run_dir / "b_sweep.csv"):
        if bound != "undefined" and not float(bound) >= 0.0:
            out.problems.append(f"b sweep {b}: bound {bound}")


def write_qa_corpus(seed: int, tmp: Path) -> tuple[Path, Path]:
    """Planted-topic QA JSON-lines corpus: the correct candidate shares the
    question's topic tokens, the others come from other topics."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:04d}" for i in range(QA_VOCAB)]
    topics = rng.permutation(QA_VOCAB).reshape(QA_TOPICS, -1)

    def text(topic, n):
        own = rng.choice(topics[topic], size=n)
        noise = rng.integers(QA_VOCAB, size=n)
        mix = np.where(rng.random(n) < 0.7, own, noise)
        return [vocab[i] for i in mix]

    lines = []
    for _ in range(QA_QUESTIONS):
        topic = int(rng.integers(QA_TOPICS))
        others = rng.choice([t for t in range(QA_TOPICS) if t != topic],
                            size=QA_CANDIDATES - 1)
        correct = int(rng.integers(QA_CANDIDATES))
        cands = [text(int(t), int(rng.integers(8, 16))) for t in others]
        cands.insert(correct, text(topic, int(rng.integers(8, 16))))
        lines.append(json.dumps({"question": text(topic, int(rng.integers(5, 10))),
                                 "candidates": cands, "correct": [correct]}))
    corpus, vocab_file = tmp / "qa.jsonl", tmp / "vocab.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab_file.write_text("\n".join(vocab) + "\n", encoding="utf-8")
    return corpus, vocab_file


def write_interactions(seed: int, tmp: Path) -> Path:
    """user<TAB>item<TAB>rating triples from planted latent preferences.

    Each user rates the same number of items and rates exactly the
    REC_LIKED best of them 4 or 5, so every seed gives the same amount of
    training work."""
    rng = np.random.default_rng(seed + 1)
    users = rng.normal(size=(REC_USERS, 4))
    items = rng.normal(size=(REC_ITEMS, 4))
    lines = []
    for u in range(REC_USERS):
        rated = np.sort(rng.choice(REC_ITEMS, size=REC_RATED, replace=False))
        order = np.argsort(-(items[rated] @ users[u]), kind="stable")
        ratings = np.empty(REC_RATED, dtype=int)
        ratings[order[:REC_LIKED]] = rng.integers(4, 6, size=REC_LIKED)
        ratings[order[REC_LIKED:]] = rng.integers(1, 4, size=REC_RATED - REC_LIKED)
        lines.extend(f"u{u:03d}\ti{i:04d}\t{r}" for i, r in zip(rated, ratings))
    path = tmp / "ratings.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class VarianceQa(Workload):
    """The variance lab, then the QA and recommendation training runs.

    (a) `rank-lab variance` on a copy of configs/variance_study.ini with only
    its seed replaced; (b) exact enumeration at training shape: a 40x200
    instance valued by an mlp1 discriminator under an mlp1 softmax policy;
    (c) `rank-lab train` on benchmark-written files: dual-d on the text
    scorer over a QA JSON-lines corpus, and dns on matfac over interaction
    triples.  The operations of (a) and (b) enumerate state-action pairs."""

    name = "variance-qa"
    model_epochs = (7 * VARIANCE_STUDY["train_epochs"]  # dns epochs in study_instance
                    + 2 * QA_OUTER + REC_EPOCHS)

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.variance_config = _write_ini(tmp / "variance.ini", {
            "run": {"name": "variance-study"},
            "variance": {**VARIANCE_STUDY, "seed": seed},
        })
        self.dataset, _ = dataio.synth_retrieval(dataio.SyntheticSpec(
            num_queries=ENUM_QUERIES, pool_size=ENUM_POOL, relevant_fraction=0.005,
            feature_dim=WEB_TASK["feature_dim"], seed=seed))
        self.discriminator = _web_model(seed + 23)
        self.policy = SoftmaxPolicy(_web_model(seed + 11), 1.0)
        corpus, vocab = write_qa_corpus(seed, tmp)
        ratings = write_interactions(seed, tmp)
        split = {"holdout_fraction": HOLDOUT_FRACTION, "split_seed": SPLIT_SEED}
        self.train_configs = {
            "qa-dual-d": _write_ini(tmp / "qa.ini", {
                "run": {"name": "qa-dual-d"},
                "dataset": {"source": "qa", "path": corpus, "vocab_file": vocab, **split},
                "model": {"kind": "text", "embed_dim": 100, "init_scale": 0.1},
                "trainer": {"name": "dual-d", "learning_rate": 0.05, "batch_size": 100,
                            "epochs_outer": QA_OUTER, "epochs_inner": 1, "seed": seed},
                "eval": {"metrics": "p@1"},
            }),
            "rec-dns": _write_ini(tmp / "rec.ini", {
                "run": {"name": "rec-dns"},
                "dataset": {"source": "interactions", "path": ratings, "threshold": 4.0,
                            **split},
                "model": {"kind": "matfac", "embed_dim": 20, "init_scale": 0.1},
                "trainer": {"name": "dns", "learning_rate": 0.02, "batch_size": 10,
                            "dns_k": 5, "epochs_outer": REC_EPOCHS, "seed": seed},
                "eval": {"metrics": "p@5,ndcg@5"},
            }),
        }

    def ops(self):
        out_dir = self.tmp / "out"
        state = {}

        def instance():
            state["instance"] = pgvar.build_instance(self.dataset, self.discriminator, "sigmoid")
            return state["instance"]

        def check_instance(inst) -> Outcome:
            out = Outcome(digests={"build_instance/q_values": _float_digest(
                np.concatenate(inst.q_values))})
            if inst.total_pairs != ENUM_QUERIES * ENUM_POOL:
                out.problems.append(f"instance has {inst.total_pairs} pairs")
            for q in inst.q_values:
                if not np.all((q > 0.0) & (q < 1.0)):
                    out.problems.append("sigmoid values outside (0, 1)")
                    break
            return out

        def verify():
            state["report"] = pgvar.verify_variance_bound(state["instance"], self.policy, ENUM_B)
            return state["report"]

        def check_report(rep) -> Outcome:
            out = Outcome(digests={"verify_variance_bound/report": _float_digest(
                [rep.exact_var, rep.below_term, rep.above_term, rep.below_mass,
                 rep.lower_bound if rep.defined else math.nan])})
            if not rep.defined:
                out.problems.append("bound undefined: no action valued below b")
            elif not (rep.pointwise_ok and rep.holds_for_below_term):
                out.problems.append("variance lower bound does not hold")
            return out

        def variance(baseline, key):
            def run():
                state[key] = pgvar.exact_variance(state["instance"], self.policy, baseline)
                return state[key]
            return run

        def check_const(value) -> Outcome:
            out = Outcome(digests={"exact_variance-constant": _float_digest([value])})
            rep = state["report"]
            total = rep.below_term + rep.above_term
            if not abs(total - value) <= 1e-10 * abs(value):
                out.problems.append(f"decomposition {total!r} != exact variance {value!r}")
            return out

        def check_value(value) -> Outcome:
            out = Outcome(digests={"exact_variance-value": _float_digest([value])})
            if not (math.isfinite(value) and value >= 0.0):
                out.problems.append(f"exact variance {value!r} under the value baseline")
            return out

        def mc():
            return pgvar.mc_variance(state["instance"], self.policy, ConstantBaseline(ENUM_B),
                               MC_SAMPLES, np.random.default_rng(self.seed))

        def check_mc(result) -> Outcome:
            estimate, se = result
            out = Outcome(digests={"mc_variance": _float_digest(result)})
            exact = state["exact-constant"]
            if not abs(estimate - exact) <= MC_MAX_SE * se:
                out.problems.append(f"MC {estimate!r} not within {MC_MAX_SE} SE ({se!r}) "
                                    f"of exact {exact!r}")
            return out

        enumeration = [
            cli_op("variance", ["variance", "--config", str(self.variance_config),
                                "--out", str(out_dir)],
                   out_dir / "variance-study", check_study_dir),
            Op("build_instance", instance, check_instance),
            Op("verify_variance_bound", verify, check_report),
            Op("exact_variance constant", variance(ConstantBaseline(ENUM_B), "exact-constant"),
               check_const),
            Op("exact_variance value", variance(ValueFunctionBaseline(), "exact-value"),
               check_value),
            Op("mc_variance", mc, check_mc),
        ]
        for op in enumeration:
            op.enumerates = True
        training = [cli_op(f"train-{name}", ["train", "--config", str(ini), "--out", str(out_dir)],
                           out_dir / name, check_train_dir)
                    for name, ini in self.train_configs.items()]
        return enumeration + training




WORKLOADS = {w.name: w for w in (WebContrastive, WebAdversarial, VarianceQa)}
