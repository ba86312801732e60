"""Config-driven experiment runner.

Usage::

    rank-lab <pretrain|train|compare|variance> --config <path> [--out <dir>] [--seed <int>]

One INI file fully specifies a run (sections: run, dataset, model, trainer,
eval, compare, variance); ``--seed`` overrides the trainer seed and the env
var ``RANK_LAB_OUT`` sets the default output root.  Every command is a pure
function of (config file, input files, seed): reruns are byte-identical.

Outputs land in ``<out>/<run-name>/``: ``checkpoints/``, ``curves.csv``
(epoch,model,metric,value), command-specific result CSVs and a verbatim config
copy.  A command writes into ``<out>/.<run-name>.<pid>.tmp/``, and only a run
that succeeds replaces ``<out>/<run-name>/`` whole: a rerun leaves exactly its
own files, and a rerun that fails leaves the earlier run as it was.

Exit codes: 0 success, 1 config error, 2 data error, 3 numeric failure
(training aborts as soon as a parameter goes non-finite).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import parse_baseline
from .core import Dataset, DatasetError
from .dataio import (
    SyntheticSpec,
    Vocab,
    parse_interactions,
    parse_letor,
    parse_qa_pairs,
    split_queries,
    synth_retrieval,
)
from .metrics import _parse_metric, evaluate_model, write_eval_csv
from .pgvar import (
    StudyConfig,
    study_point,
    write_study_csv,
)
from .scorers import Scorer, build_scorer, check_init_scale, save_checkpoint
from .trainers import (
    TRAINER_NAMES,
    TRAINER_ROLES,
    InvalidConfigError,
    NumericError,
    SoftmaxPolicy,
    TrainConfig,
    pretrain_mle,
    run_trainer,
)
from ._util import write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Offsets keep per-role initializations distinct but reproducible from one seed.
ROLE_SEED_OFFSETS = {"G": 11, "D": 23, "M": 11, "A": 11, "B": 23}


class CliConfigError(ValueError):
    pass


class Conf:
    """Typed access to an INI config; errors name the offending key."""

    def __init__(self, path: Path):
        self.parser = configparser.ConfigParser()
        try:
            read = self.parser.read(str(path))
        except configparser.Error as exc:
            # The parser's message names the file and line over several lines.
            raise CliConfigError(" ".join(str(exc).split())) from None
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        defaults = self.parser.defaults()  # [DEFAULT] keys appear in every section
        for key in defaults:
            if key not in set().union(*KEYS.values()):
                raise CliConfigError(f"unknown key '{key}' in [{self.parser.default_section}]")
        for section in self.parser.sections():
            if section not in KEYS:
                raise CliConfigError(f"unknown section [{section}]")
            for key in self.parser.options(section):
                if key not in KEYS[section] and key not in defaults:
                    raise CliConfigError(f"unknown key '{key}' in [{section}]")
                try:  # interpolate every value now, before any key is read
                    self.parser.get(section, key)
                except configparser.InterpolationError as exc:
                    raise CliConfigError(f"bad value for '{key}' in [{section}]: "
                                         + " ".join(str(exc).split())) from None
        self.path = path

    def get(self, section, key, default=None, required=False, type=str, low=None):
        """``key`` converted by ``type`` (str, int, float, bool or a parser such
        as ``parse_baseline``), or ``default`` when the key is unset."""
        if key not in KEYS[section]:
            raise KeyError(f"'{key}' in [{section}] is read but not listed in cli.KEYS")
        if not self.parser.has_option(section, key):
            if required:
                raise CliConfigError(f"missing key '{key}' in [{section}]")
            return default
        raw = self.parser.get(section, key)
        return _convert(raw, type, low, key, f"for '{key}' in [{section}]: {raw!r}")

    def get_list(self, section, key, default=(), required=False, type=str, low=None):
        """The comma-separated items of ``key``, each converted as by ``get``."""
        raw = self.get(section, key, None, required)
        if raw is None:
            return list(default)
        items = [item.strip() for item in raw.split(",")]
        return [_convert(item, type, low, key, f"{item!r} in '{key}' in [{section}]")
                for item in items if item]


# What a builtin converter's ValueError means; other converters say it themselves.
TYPE_ERRORS = {int: "not an integer", float: "not a number", bool: "not a boolean"}


def _convert(raw: str, type, low, key: str, where: str):
    """``raw`` converted by ``type``; a failed conversion, a non-finite float
    and a value below ``low`` raise a config error naming ``where``."""
    try:
        value = (configparser.ConfigParser.BOOLEAN_STATES[raw.lower()] if type is bool
                 else type(raw))
    except (KeyError, ValueError) as exc:
        raise CliConfigError(f"bad value {where} ({TYPE_ERRORS.get(type, exc)})") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise CliConfigError(f"bad value {where} ({key} must be finite)")
    if low is not None and value < low:
        raise CliConfigError(f"bad value {where} ({key} must be >= {low})")
    return value


def one_of(names):
    """A converter that accepts only ``names``."""
    def choose(raw: str) -> str:
        if raw not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return raw
    return choose


def load_dataset(conf: Conf) -> Dataset:
    source = conf.get("dataset", "source", default="synthetic",
                      type=one_of(("synthetic", "letor", "interactions", "qa")))
    if source == "synthetic":
        try:
            spec = SyntheticSpec(
                num_queries=conf.get("dataset", "num_queries", required=True, type=int),
                pool_size=conf.get("dataset", "pool_size", required=True, type=int),
                relevant_fraction=conf.get("dataset", "relevant_fraction", required=True,
                                           type=float),
                feature_dim=conf.get("dataset", "feature_dim", required=True, type=int),
                noise_sigma=conf.get("dataset", "noise_sigma", default=0.0, type=float),
                seed=conf.get("dataset", "seed", default=0, type=int, low=0),
            )
        except DatasetError as exc:
            raise CliConfigError(f"bad value in [dataset]: {exc}") from None
        return synth_retrieval(spec)[0]
    path = conf.get("dataset", "path", required=True)
    if source == "letor":
        return parse_letor(path)
    if source == "interactions":
        threshold = conf.get("dataset", "threshold", default=4.0, type=float)
        return parse_interactions(path, threshold=threshold)
    vocab_file = conf.get("dataset", "vocab_file", required=True)  # source is qa
    with open(vocab_file, "r", encoding="utf-8") as fh:
        vocab = Vocab([line.strip() for line in fh if line.strip()])
    return parse_qa_pairs(path, vocab).dataset


def _section_values(conf: Conf, section: str, base, keys) -> dict:
    """``keys`` of [section], each read with the type of its value in ``base``,
    the config dataclass that holds the defaults, and defaulting to it."""
    return {key: conf.get(section, key, getattr(base, key), type=type(getattr(base, key)))
            for key in keys}


def load_train_config(conf: Conf, seed_override: int | None) -> TrainConfig:
    """The [trainer] section; every key but learning_rate defaults to TrainConfig's."""
    base = TrainConfig()
    seed = conf.get("trainer", "seed", default=base.seed, type=int, low=0)
    return replace(
        base,
        learning_rate=conf.get("trainer", "learning_rate", required=True, type=float),
        baseline=conf.get("trainer", "baseline", default=base.baseline, type=parse_baseline),
        seed=seed if seed_override is None else seed_override,
        **_section_values(conf, "trainer", base, TRAINER_DEFAULTED),
    )


# The size keys each scorer kind reads from [model], with their defaults; a
# text model's vocab_size defaults to the dataset's largest token id + 1.
MODEL_SIZES = {
    "linear": {},
    "mlp1": {"hidden": 46},
    "matfac": {"embed_dim": 20},
    "text": {"embed_dim": 100, "vocab_size": None},
}


# The [trainer] and [variance] keys that default to TrainConfig's and StudyConfig's.
TRAINER_DEFAULTED = ("batch_size", "epochs_outer", "epochs_inner", "k_samples", "dns_k",
                     "reward", "temperature", "exclude_positives", "d_steps", "g_steps",
                     "pretrain_epochs", "pretrain_lr")
VARIANCE_DEFAULTED = ("num_queries", "pool_size", "feature_dim", "noise_sigma", "init_scale",
                      "train_epochs", "learning_rate", "batch_size", "b", "mc_samples")

# Every key some command reads, by section.  A config with any other section
# or key fails to load, and ``Conf`` reads no key that is not listed here.
KEYS = {
    "run": {"name"},
    "dataset": {"source", "num_queries", "pool_size", "relevant_fraction", "feature_dim",
                "noise_sigma", "seed", "path", "threshold", "vocab_file", "holdout_fraction",
                "split_seed"},
    "model": {"kind", "init_scale", "init_seed"}.union(*MODEL_SIZES.values()),
    "trainer": {"name", "learning_rate", "baseline", "seed", *TRAINER_DEFAULTED},
    "eval": {"metrics"},
    "compare": {"trainers", "seeds", "budget_epochs", "dual_d_outer"},
    "variance": {"fractions", "b_sweep", "seed", *VARIANCE_DEFAULTED},
}


@dataclass(frozen=True)
class ModelSpec:
    """The checked [model] section.  ``init_seed`` None means the trainer seed."""

    kind: str
    init_scale: float
    init_seed: int | None
    sizes: dict


def read_model(conf: Conf) -> ModelSpec:
    """Read and check every [model] key before any work; errors name the key."""
    kind = conf.get("model", "kind", default="mlp1", type=one_of(MODEL_SIZES))
    scale = conf.get("model", "init_scale", default=0.1, type=float)
    try:
        check_init_scale(scale)
    except ValueError as exc:
        raise CliConfigError(f"bad value for 'init_scale' in [model]: {exc}") from None
    sizes = {key: conf.get("model", key, default=default, type=int, low=1)
             for key, default in MODEL_SIZES[kind].items()}
    return ModelSpec(kind, scale, conf.get("model", "init_seed", type=int, low=0), sizes)


def model_dims(spec: ModelSpec, dataset: Dataset) -> dict:
    """The scorer dims of ``spec`` on ``dataset``; raises before any training
    when the two disagree."""
    if spec.kind in ("linear", "mlp1"):
        if dataset.feature_dim is None:
            raise DatasetError(f"{spec.kind} scorer needs a dataset with features")
        return {"feature_dim": dataset.feature_dim, **spec.sizes}
    if spec.kind == "matfac":
        doc_ids = sorted({d.id for g in dataset.groups.values() for d in g.pool})
        return {"query_ids": dataset.query_ids(), "doc_ids": tuple(doc_ids), **spec.sizes}
    max_token = 0
    for g in dataset.groups.values():
        bare = next((x for x in (g.query, *g.pool) if not x.tokens), None)
        if bare is not None:
            what = "query" if bare is g.query else "document"
            raise DatasetError(f"text scorer needs tokens; {what} {bare.id!r} has none")
        max_token = max(max_token, *g.query.tokens, *(max(d.tokens) for d in g.pool))
    vocab_size = spec.sizes["vocab_size"]
    if vocab_size is None:
        vocab_size = max_token + 1
    elif vocab_size <= max_token:
        raise CliConfigError(f"bad value for 'vocab_size' in [model]: {vocab_size} "
                             f"(the dataset uses token id {max_token})")
    return {"vocab_size": vocab_size, "embed_dim": spec.sizes["embed_dim"]}


def build_model(spec: ModelSpec, dims: dict, role: str, base_seed: int) -> Scorer:
    seed = (base_seed if spec.init_seed is None else spec.init_seed) + ROLE_SEED_OFFSETS[role]
    return build_scorer(spec.kind, dims, scale=spec.init_scale, seed=seed)


def read_split(conf: Conf) -> tuple[float, int]:
    """The [dataset] holdout_fraction and split_seed, checked before any work."""
    holdout = conf.get("dataset", "holdout_fraction", default=0.2, type=float)
    if not 0.0 < holdout < 1.0:
        raise CliConfigError(f"bad value for 'holdout_fraction' in [dataset]: {holdout!r} "
                             "(must lie in (0, 1))")
    return holdout, conf.get("dataset", "split_seed", default=13, type=int, low=0)


def _metric_name(name: str) -> str:
    _parse_metric(name)  # raises ValueError on an unknown metric
    return name


def load_task(conf: Conf) -> tuple:
    """The [eval] metrics, [model] and split keys, checked before the dataset
    is read; returns (metric names, train set, eval set, model spec, dims)."""
    metric_names = tuple(conf.get_list("eval", "metrics", type=_metric_name))
    spec, split = read_model(conf), read_split(conf)
    dataset = load_dataset(conf)
    if not metric_names:
        metric_names = ("p@1",) if dataset.kind.value == "qa" else ("p@5", "ndcg@5")
    return (metric_names, *split_queries(dataset, *split), spec, model_dims(spec, dataset))


def cmd_pretrain(conf: Conf, args, run_dir: Path) -> None:
    cfg = load_train_config(conf, args.seed)
    spec = read_model(conf)
    dataset = load_dataset(conf)
    scorer = build_model(spec, model_dims(spec, dataset), "G", cfg.seed)
    (run_dir / "checkpoints").mkdir(parents=True)
    policy = SoftmaxPolicy(scorer, cfg.temperature)
    record = pretrain_mle(policy, dataset, cfg)
    record.to_csv(run_dir / "curves.csv")
    save_checkpoint(scorer, run_dir / "checkpoints" / "G.ckpt")


def cmd_train(conf: Conf, args, run_dir: Path) -> None:
    cfg = load_train_config(conf, args.seed)
    trainer = conf.get("trainer", "name", required=True, type=one_of(TRAINER_NAMES))
    metric_names, train_set, eval_set, spec, dims = load_task(conf)
    models = {role: build_model(spec, dims, role, cfg.seed)
              for role in TRAINER_ROLES[trainer]}
    (run_dir / "checkpoints").mkdir(parents=True)
    result = run_trainer(trainer, train_set, cfg, models,
                         eval_dataset=eval_set, metric_names=metric_names)
    result.record.to_csv(run_dir / "curves.csv")
    for role, model in result.models.items():
        save_checkpoint(model, run_dir / "checkpoints" / f"{role}.ckpt")
    reports = dict(result.reports)
    if result.chosen is not None:
        (run_dir / "checkpoints" / "chosen").write_text(result.chosen + "\n", newline="\n")
        reports["chosen"] = reports[result.chosen]
    write_eval_csv(reports, run_dir / "results.csv")


def parity_outer_epochs(budget: int, inner: int) -> int:
    """Budget parity: one dual-d outer epoch (two models, `inner` epochs each)
    spends 2 * inner single-model epochs."""
    return max(1, budget // (2 * inner))


def cmd_compare(conf: Conf, args, run_dir: Path) -> None:
    cfg = load_train_config(conf, args.seed)
    trainers = conf.get_list("compare", "trainers", required=True, type=one_of(TRAINER_NAMES))
    if len(trainers) < 2:
        raise CliConfigError("need at least two entries for 'trainers' in [compare]")
    seeds = conf.get_list("compare", "seeds", default=(1,), type=int, low=0)
    for key, items in (("trainers", trainers), ("seeds", seeds)):
        for i, item in enumerate(items):
            if item in items[:i]:
                raise CliConfigError(f"bad value {item!r} in '{key}' in [compare] (listed twice)")
    seeds = seeds if args.seed is None else [args.seed]
    budget = conf.get("compare", "budget_epochs", default=cfg.epochs_outer, type=int, low=1)
    dual_override = conf.get("compare", "dual_d_outer", type=int, low=1)
    metric_names, train_set, eval_set, spec, dims = load_task(conf)
    run_dir.mkdir(parents=True)

    warnings = []
    per_seed_rows = []
    totals: dict[tuple[str, str], list[float]] = {}
    for name in trainers:
        if name == "dual-d":
            outer = parity_outer_epochs(budget, cfg.epochs_inner)
            if dual_override is not None and dual_override != outer:
                warnings.append(
                    ("warning", "budget_parity",
                     float(dual_override * 2 * cfg.epochs_inner - budget))
                )
                outer = dual_override
            run_cfg = replace(cfg, epochs_outer=outer)
        else:
            run_cfg = replace(cfg, epochs_outer=budget)
        for seed in seeds:
            seeded = replace(run_cfg, seed=seed)
            models = {role: build_model(spec, dims, role, seed)
                      for role in TRAINER_ROLES[name]}
            result = run_trainer(name, train_set, seeded, models)
            eval_role = result.chosen or TRAINER_ROLES[name][0]
            report = evaluate_model(result.models[eval_role], eval_set, metric_names)
            for metric, value in report.values.items():
                per_seed_rows.append((name, seed, metric, value))
                totals.setdefault((name, metric), []).append(value)

    result_rows = [
        (name, metric, float(np.mean(vals)))
        for (name, metric), vals in sorted(totals.items())
    ]
    write_csv(run_dir / "results.csv", ("model", "metric", "value"),
              result_rows + warnings)
    write_csv(run_dir / "per_seed.csv", ("model", "seed", "metric", "value"),
              per_seed_rows)


def _variance_point(study_cfg: StudyConfig, fraction: float, seed: int, sweep):
    """One study fraction: its study row, its bound-chain row and, for each b
    in ``sweep``, the bound at the partition frozen at the configured b, which
    the fraction's bound report gives without another pass over its states."""
    rep, row = study_point(study_cfg, fraction, seed)
    chain = (
        fraction, rep.b, rep.exact_var, rep.below_term, rep.above_term,
        rep.lower_bound, rep.below_mass, rep.max_below,
        rep.pointwise_ok, rep.holds_for_below_term, rep.holds_for_total,
    )
    sweep_rows = [(b, rep.max_below, rep.bound_at(b) if rep.defined else None) for b in sweep]
    return row, chain, sweep_rows


def cmd_variance(conf: Conf, args, run_dir: Path) -> None:
    fractions = conf.get_list("variance", "fractions", default=(0.002, 0.005, 0.015),
                              type=float)
    if not fractions:
        raise CliConfigError("need at least one entry for 'fractions' in [variance]")
    sweep = conf.get_list("variance", "b_sweep", type=float,
                          default=[round(0.1 * i, 1) for i in range(1, 10)])
    seed = conf.get("variance", "seed", default=7, type=int, low=0)
    seed = seed if args.seed is None else args.seed
    base = StudyConfig()
    values = _section_values(conf, "variance", base, VARIANCE_DEFAULTED)
    try:
        study_cfg = replace(base, **values)
    except ValueError as exc:
        raise CliConfigError(f"bad value in [variance]: {exc}") from None
    for fraction in fractions:
        try:
            study_cfg.synthetic_spec(fraction, seed)
        except DatasetError as exc:
            raise CliConfigError(
                f"bad fraction {fraction!r} in 'fractions' in [variance]: {exc}") from None
    run_dir.mkdir(parents=True)
    # The b-sweep uses the first fraction's bound report.
    rows, chain_rows, sweeps = zip(*(
        _variance_point(study_cfg, fraction, seed, sweep if i == 0 else ())
        for i, fraction in enumerate(fractions)
    ))
    write_study_csv(rows, run_dir / "study.csv")
    write_csv(
        run_dir / "bound_chain.csv",
        ("fraction", "b", "exact_variance", "term_below", "term_above",
         "bound_rhs", "p_below", "q_max", "pointwise_ok", "holds_below", "holds_total"),
        chain_rows,
    )
    write_csv(run_dir / "b_sweep.csv", ("b", "q_max", "bound_rhs"), sweeps[0])


COMMANDS = {
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "compare": cmd_compare,
    "variance": cmd_variance,
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank-lab",
        description="Train and compare ranking models; run the variance lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="INI config path")
        cmd.add_argument("--out", default=None, help="output root (default $RANK_LAB_OUT or ./out)")
        cmd.add_argument("--seed", type=int, default=None, help="override the trainer seed")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    staging = None
    try:
        if args.seed is not None and args.seed < 0:
            raise CliConfigError(f"bad value for '--seed': {args.seed} (must be >= 0)")
        conf = Conf(Path(args.config))
        name = conf.get("run", "name", default=Path(args.config).stem)
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise CliConfigError(f"bad value for 'name' in [run]: {name!r} "
                                 "(must be one directory name)")
        out_root = Path(args.out or os.environ.get("RANK_LAB_OUT", "out"))
        run_dir = out_root / name
        if run_dir.exists() and not run_dir.is_dir():
            raise FileExistsError(f"{run_dir} exists and is not a directory")
        staging = out_root / f".{name}.{os.getpid()}.tmp"
        old = out_root / f".{name}.{os.getpid()}.old"
        for stale in (staging, old):  # left by a killed run that had this pid
            shutil.rmtree(stale, ignore_errors=True)
        # A non-finite parameter or score raises NumericError, so numpy's
        # overflow and invalid-value warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            COMMANDS[args.command](conf, args, staging)
        shutil.copyfile(args.config, staging / "config.copy")
        # Swap the finished run in whole; a crash between the two renames
        # leaves the earlier run intact beside it, never a mix of the two.
        if run_dir.is_dir():
            run_dir.rename(old)
        staging.rename(run_dir)
        if old.exists():
            shutil.rmtree(old)
        print(f"{args.command}: wrote {run_dir}")
        return EXIT_OK
    except (CliConfigError, InvalidConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DatasetError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
