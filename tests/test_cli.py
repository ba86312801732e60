"""CLI commands: outputs, exit codes, determinism, and CSV round-trips."""

import filecmp
import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ranklab import cli, core, metrics, pgvar, trainers
from ranklab.cli import main, parity_outer_epochs
from ranklab.trainers import RunRecord, TrainConfig
from ranklab._util import read_csv, write_csv

SYNTH_DATASET = """
[dataset]
source = synthetic
num_queries = 8
pool_size = 12
relevant_fraction = 0.25
feature_dim = 4
seed = 3
holdout_fraction = 0.2
split_seed = 13
"""

MODEL_LINEAR = """
[model]
kind = linear
init_scale = 0.1
"""


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


def run(args):
    return main([str(a) for a in args])


def count_calls(monkeypatch, original):
    """Route every ranklab binding of ``original`` through a counter; returns
    the list that receives one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "ranklab" or name.startswith("ranklab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestPretrain:
    CONFIG = SYNTH_DATASET + MODEL_LINEAR + """
[trainer]
learning_rate = 0.05
epochs_outer = 5
seed = 7
"""

    def test_creates_files_and_exits_zero(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert run(["pretrain", "--config", config, "--out", tmp_path / "out"]) == 0
        run_dir = tmp_path / "out" / "run"
        assert (run_dir / "curves.csv").exists()
        assert (run_dir / "checkpoints" / "G.ckpt").exists()
        assert (run_dir / "config.copy").read_text() == self.CONFIG

    def test_missing_learning_rate_names_key(self, tmp_path, capsys):
        config = write_config(tmp_path, SYNTH_DATASET + MODEL_LINEAR + "[trainer]\nseed = 7\n")
        code = run(["pretrain", "--config", config, "--out", tmp_path / "out"])
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_omitted_trainer_keys_take_train_config_defaults(self, tmp_path):
        conf = cli.Conf(write_config(tmp_path, "[trainer]\nlearning_rate = 0.05\n"))
        assert cli.load_train_config(conf, None) == replace(TrainConfig(), learning_rate=0.05)

    def test_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        for out in ("out1", "out2"):
            assert run(["pretrain", "--config", config, "--out", tmp_path / out]) == 0
        a = tmp_path / "out1" / "run" / "curves.csv"
        b = tmp_path / "out2" / "run" / "curves.csv"
        assert filecmp.cmp(a, b, shallow=False)
        assert filecmp.cmp(
            tmp_path / "out1" / "run" / "checkpoints" / "G.ckpt",
            tmp_path / "out2" / "run" / "checkpoints" / "G.ckpt",
            shallow=False,
        )


class TestTrain:
    def config(self, trainer, extra=""):
        return SYNTH_DATASET + MODEL_LINEAR + f"""
[trainer]
name = {trainer}
learning_rate = 0.05
epochs_outer = 3
epochs_inner = 2
seed = 40
{extra}
"""

    def test_single_d_curves(self, tmp_path):
        config = write_config(tmp_path, self.config("single-d"))
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 0
        record = RunRecord.from_csv(tmp_path / "out" / "run" / "curves.csv")
        epochs = [e for e, _ in record.series("M", "p@5")]
        assert epochs == [0, 1, 2, 3]

    def test_dual_d_writes_two_checkpoints_and_marker(self, tmp_path):
        config = write_config(tmp_path, self.config("dual-d"))
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 0
        ckpt = tmp_path / "out" / "run" / "checkpoints"
        assert (ckpt / "A.ckpt").exists() and (ckpt / "B.ckpt").exists()
        chosen = (ckpt / "chosen").read_text().strip()
        assert chosen in ("A", "B")
        header, rows = read_csv(tmp_path / "out" / "run" / "results.csv")
        assert {r[0] for r in rows} == {"A", "B", "chosen"}

    def test_builds_once_and_evaluates_once_per_epoch(self, tmp_path, monkeypatch):
        builds = count_calls(monkeypatch, core.build_dataset)
        evaluations = count_calls(monkeypatch, metrics.evaluate_model)
        config = write_config(tmp_path, self.config("dual-d"))
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 0
        assert len(builds) == 1
        assert len(evaluations) == (3 + 1) * 2  # (epochs_outer + 1) x roles
        record = RunRecord.from_csv(tmp_path / "out" / "run" / "curves.csv")
        _, rows = read_csv(tmp_path / "out" / "run" / "results.csv")
        chosen = (tmp_path / "out" / "run" / "checkpoints" / "chosen").read_text().strip()
        for model, metric, value, _, _ in rows:
            tag = chosen if model == "chosen" else model
            assert record.series(tag, metric)[-1] == (3, float(value))

    def test_unknown_trainer_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, self.config("bogus"))
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_exits_three(self, tmp_path, capsys):
        config = write_config(tmp_path, self.config("single-d").replace(
            "learning_rate = 0.05", "learning_rate = 1e307"))
        config = write_config(tmp_path, config.read_text().replace(
            "epochs_outer = 3", "epochs_outer = 10"))
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 3
        assert "numeric" in capsys.readouterr().err.lower()

    def test_missing_dataset_file_exits_two(self, tmp_path):
        body = """
[dataset]
source = letor
path = /nonexistent/letor.txt
""" + MODEL_LINEAR + """
[trainer]
name = single-d
learning_rate = 0.05
"""
        config = write_config(tmp_path, body)
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 2

    def test_irgan_with_pretraining_exits_zero(self, tmp_path):
        config = write_config(tmp_path, self.config("irgan-pointwise", "pretrain_epochs = 2"))
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 0
        record = RunRecord.from_csv(tmp_path / "out" / "run" / "curves.csv")
        assert [e for e, _ in record.series("G-pretrain", "log_likelihood")] == [1, 2]
        assert [e for e, _ in record.series("G", "queries_skipped")] == [1, 2, 3]

    def test_one_draw_mc_baseline_fails_before_work(self, tmp_path, capsys, monkeypatch):
        pretrained = count_calls(monkeypatch, trainers.pretrain_mle)
        config = write_config(tmp_path, self.config(
            "irgan-pointwise", "pretrain_epochs = 2\nbaseline = value-mc:1"))
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "'baseline' in [trainer]" in err and "Traceback" not in err
        assert pretrained == []
        assert not (tmp_path / "out").exists()

    def test_unknown_metric_fails_before_work(self, tmp_path, capsys):
        config = write_config(tmp_path, self.config("single-d")
                              + "\n[eval]\nmetrics = p@5,recall@5\n")
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 1
        assert "recall@5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_metric_names_are_case_insensitive(self, tmp_path):
        config = write_config(tmp_path, self.config("single-d")
                              + "\n[eval]\nmetrics = P@5, p@5,NDCG@5\n")
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 0
        record = RunRecord.from_csv(tmp_path / "out" / "run" / "curves.csv")
        assert {r.metric for r in record.rows if r.epoch == 0} == {"p@5", "ndcg@5"}
        assert [e for e, _ in record.series("M", "p@5")] == [0, 1, 2, 3]

    def test_seed_override_changes_run(self, tmp_path):
        config = write_config(tmp_path, self.config("single-d"))
        assert run(["train", "--config", config, "--out", tmp_path / "o1"]) == 0
        assert run(["train", "--config", config, "--out", tmp_path / "o2",
                    "--seed", 77]) == 0
        a = (tmp_path / "o1" / "run" / "curves.csv").read_bytes()
        b = (tmp_path / "o2" / "run" / "curves.csv").read_bytes()
        assert a != b


class TestCompare:
    CONFIG = SYNTH_DATASET + MODEL_LINEAR + """
[trainer]
learning_rate = 0.05
epochs_outer = 4
epochs_inner = 2
seed = 40

[compare]
trainers = single-d,dns
seeds = 1,2
"""

    def test_emits_results_and_per_seed(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert run(["compare", "--config", config, "--out", tmp_path / "out"]) == 0
        header, rows = read_csv(tmp_path / "out" / "run" / "results.csv")
        assert header == ["model", "metric", "value"]
        models = {r[0] for r in rows}
        assert models == {"single-d", "dns"}
        _, seed_rows = read_csv(tmp_path / "out" / "run" / "per_seed.csv")
        assert {(r[0], r[1]) for r in seed_rows} == {
            ("single-d", "1"), ("single-d", "2"), ("dns", "1"), ("dns", "2")
        }

    def test_seed_option_replaces_the_seed_list(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert run(["compare", "--config", config, "--out", tmp_path / "out",
                    "--seed", 7]) == 0
        _, seed_rows = read_csv(tmp_path / "out" / "run" / "per_seed.csv")
        assert {(r[0], r[1]) for r in seed_rows} == {("single-d", "7"), ("dns", "7")}

    def test_single_trainer_rejected(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG.replace(
            "trainers = single-d,dns", "trainers = single-d"))
        assert run(["compare", "--config", config, "--out", tmp_path / "out"]) == 1

    def test_bad_seed_fails_before_work(self, tmp_path, capsys):
        config = write_config(tmp_path, self.CONFIG.replace("seeds = 1,2", "seeds = 1,x"))
        assert run(["compare", "--config", config, "--out", tmp_path / "out"]) == 1
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_metric_fails_before_work(self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "run_trainer", lambda *a, **k: trained.append(a))
        config = write_config(tmp_path, self.CONFIG + "\n[eval]\nmetrics = bogus@3\n")
        assert run(["compare", "--config", config, "--out", tmp_path / "out"]) == 1
        assert "metrics" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["budget_epochs", "dual_d_outer"])
    def test_non_positive_epochs_fail_before_work(self, tmp_path, capsys, monkeypatch, key):
        trained = []
        monkeypatch.setattr(cli, "run_trainer", lambda *a, **k: trained.append(a))
        body = self.CONFIG.replace("trainers = single-d,dns", "trainers = dual-d,single-d")
        config = write_config(tmp_path, body + f"{key} = 0\n")
        assert run(["compare", "--config", config, "--out", tmp_path / "out"]) == 1
        assert f"'{key}' in [compare]" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "out").exists()

    def test_budget_parity_for_dual_d(self):
        assert parity_outer_epochs(budget=60, inner=30) == 1
        assert parity_outer_epochs(budget=120, inner=30) == 2
        assert parity_outer_epochs(budget=4, inner=30) == 1

    def test_parity_override_warns(self, tmp_path):
        body = self.CONFIG.replace("trainers = single-d,dns", "trainers = single-d,dual-d")
        body += "dual_d_outer = 3\n"
        config = write_config(tmp_path, body)
        assert run(["compare", "--config", config, "--out", tmp_path / "out"]) == 0
        _, rows = read_csv(tmp_path / "out" / "run" / "results.csv")
        assert any(r[0] == "warning" and r[1] == "budget_parity" for r in rows)


class TestModelAndSplitKeys:
    """Bad [model] keys and split keys exit 1 naming the key, before any
    dataset is split, any model is built or the run directory exists."""

    CONFIG = SYNTH_DATASET + MODEL_LINEAR + """
[trainer]
name = single-d
learning_rate = 0.05
epochs_outer = 1

[compare]
trainers = single-d,dns
"""

    def run_bad(self, tmp_path, capsys, command, old, new, body=CONFIG):
        assert old in body
        config = write_config(tmp_path, body.replace(old, new))
        assert run([command, "--config", config, "--out", tmp_path / "out"]) == 1
        assert not (tmp_path / "out").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "train", "compare"])
    def test_unknown_kind(self, tmp_path, capsys, command):
        err = self.run_bad(tmp_path, capsys, command, "kind = linear", "kind = bogus")
        assert "'kind' in [model]" in err and "bogus" in err

    @pytest.mark.parametrize("command", ["pretrain", "train", "compare"])
    def test_negative_init_scale(self, tmp_path, capsys, command):
        err = self.run_bad(tmp_path, capsys, command, "init_scale = 0.1", "init_scale = -1")
        assert "'init_scale' in [model]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_holdout_fraction_outside_unit_interval(self, tmp_path, capsys, command):
        err = self.run_bad(tmp_path, capsys, command,
                           "holdout_fraction = 0.2", "holdout_fraction = 1.5")
        assert "'holdout_fraction' in [dataset]" in err

    def test_zero_hidden_units(self, tmp_path, capsys):
        err = self.run_bad(tmp_path, capsys, "train", "kind = linear", "kind = mlp1\nhidden = 0")
        assert "'hidden' in [model]" in err

    def test_vocab_size_below_the_dataset_tokens(self, tmp_path, capsys):
        corpus = tmp_path / "qa.jsonl"
        corpus.write_text("\n".join(
            f'{{"question": ["a", "b"], "candidates": [["a", "c"], ["b", "d"]], "correct": [{i % 2}]}}'
            for i in range(5)) + "\n")
        (tmp_path / "vocab.txt").write_text("a\nb\nc\nd\n")
        body = f"""
[dataset]
source = qa
path = {corpus}
vocab_file = {tmp_path / "vocab.txt"}

[model]
kind = text
embed_dim = 3
vocab_size = 4
""" + self.CONFIG[self.CONFIG.index("[trainer]"):]
        err = self.run_bad(tmp_path, capsys, "train", "vocab_size = 4", "vocab_size = 3", body)
        assert "'vocab_size' in [model]" in err


class TestNegativeSeeds:
    """Every seed key, and --seed, rejects a negative value with exit 1 naming
    it, before any dataset is read or the run directory exists."""

    @pytest.mark.parametrize("command,old,new,key", [
        ("train", "epochs_outer = 1", "epochs_outer = 1\nseed = -1", "'seed' in [trainer]"),
        ("pretrain", "epochs_outer = 1", "epochs_outer = 1\nseed = -1", "'seed' in [trainer]"),
        ("compare", "trainers = single-d,dns", "trainers = single-d,dns\nseeds = 1,-2",
         "'seeds' in [compare]"),
        ("train", "init_scale = 0.1", "init_scale = 0.1\ninit_seed = -1", "'init_seed' in [model]"),
        ("train", "seed = 3", "seed = -1", "'seed' in [dataset]"),
        ("compare", "split_seed = 13", "split_seed = -1", "'split_seed' in [dataset]"),
    ], ids=["trainer-seed", "pretrain-trainer-seed", "compare-seeds", "init-seed",
            "dataset-seed", "split-seed"])
    def test_config_key(self, tmp_path, capsys, monkeypatch, command, old, new, key):
        loaded = count_calls(monkeypatch, cli.load_dataset)
        err = TestModelAndSplitKeys().run_bad(tmp_path, capsys, command, old, new)
        assert key in err and "Traceback" not in err
        # [dataset] seed is read by load_dataset itself, before anything is built.
        assert len(loaded) == (key == "'seed' in [dataset]")

    @pytest.mark.parametrize("command", ["pretrain", "train", "compare", "variance"])
    def test_seed_option(self, tmp_path, capsys, command):
        body = TestVariance.CONFIG if command == "variance" else TestModelAndSplitKeys.CONFIG
        config = write_config(tmp_path, body)
        assert run([command, "--config", config, "--out", tmp_path / "out",
                    "--seed", -5]) == 1
        assert "'--seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_variance_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, TestVariance.CONFIG.replace("seed = 7", "seed = -1"))
        assert run(["variance", "--config", config, "--out", tmp_path / "out"]) == 1
        assert "'seed' in [variance]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestVariance:
    CONFIG = """
[variance]
fractions = 0.002,0.005,0.015
b = 0.5
num_queries = 4
pool_size = 300
feature_dim = 5
train_epochs = 30
learning_rate = 0.3
mc_samples = 3000
seed = 7
b_sweep = 0.5,0.6,0.7,0.8,0.9
"""

    def test_three_row_study(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert run(["variance", "--config", config, "--out", tmp_path / "out"]) == 0
        header, rows = read_csv(tmp_path / "out" / "run" / "study.csv")
        assert header == ["fraction", "b", "q_max", "bound_rhs", "exact_variance",
                          "mc_variance", "mc_se", "p_a1"]
        assert [r[0] for r in rows] == ["0.002", "0.005", "0.015"]

    def test_sweep_monotone_above_anchor(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert run(["variance", "--config", config, "--out", tmp_path / "out"]) == 0
        _, rows = read_csv(tmp_path / "out" / "run" / "b_sweep.csv")
        anchor = float(rows[0][1])
        bounds = [float(r[2]) for r in rows if float(r[0]) > anchor]
        assert len(bounds) >= 2
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_bad_fraction_fails_before_work(self, tmp_path, capsys):
        config = write_config(tmp_path, self.CONFIG.replace(
            "fractions = 0.002,0.005,0.015", "fractions = abc"))
        assert run(["variance", "--config", config, "--out", tmp_path / "out"]) == 1
        assert "fractions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_shipped_config_builds_each_fraction_once(self, tmp_path, monkeypatch):
        calls = {"study_instance": 0, "verify_variance_bound": 0}
        for name in calls:
            original = getattr(pgvar, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # Patch every module that binds the function, so direct calls count too.
            for module in (pgvar, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
        config = Path(__file__).resolve().parent.parent / "configs" / "variance_study.ini"
        assert run(["variance", "--config", config, "--out", tmp_path / "out"]) == 0
        assert calls == {"study_instance": 3, "verify_variance_bound": 3}

    def test_omitted_keys_take_study_config_defaults(self, tmp_path, monkeypatch):
        seen = []

        class Stop(Exception):
            pass

        def study_point(cfg, fraction, seed):
            seen.append(cfg)
            raise Stop

        monkeypatch.setattr(cli, "study_point", study_point)
        omitted = ("feature_dim", "train_epochs", "learning_rate")
        body = "\n".join(line for line in self.CONFIG.splitlines()
                         if not line.startswith(omitted))
        with pytest.raises(Stop):
            run(["variance", "--config", write_config(tmp_path, body),
                 "--out", tmp_path / "out"])
        defaults = pgvar.StudyConfig()
        assert [getattr(seen[0], key) for key in omitted] == \
            [getattr(defaults, key) for key in omitted]

    def test_undefined_cells_when_no_reward_lies_below_b(self, tmp_path):
        # Every sigmoid reward lies above b = 0, so no bound anchor exists.
        config = write_config(tmp_path, variance_config("\nb = 0.5", "\nb = 0.0")
                              .replace("num_queries = 4", "num_queries = 3")
                              .replace("pool_size = 300", "pool_size = 100"))
        assert run(["variance", "--config", config, "--out", tmp_path / "out"]) == 0
        for name, count in (("study.csv", 3), ("bound_chain.csv", 3), ("b_sweep.csv", 5)):
            header, rows = read_csv(tmp_path / "out" / "run" / name)
            assert len(rows) == count
            cells = {row[header.index(column)] for row in rows
                     for column in ("q_max", "bound_rhs")}
            assert cells == {"undefined"}, name

    def test_rerun_identical(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        for out in ("v1", "v2"):
            assert run(["variance", "--config", config, "--out", tmp_path / out]) == 0
        for name in ("study.csv", "bound_chain.csv", "b_sweep.csv"):
            assert filecmp.cmp(tmp_path / "v1" / "run" / name,
                               tmp_path / "v2" / "run" / name, shallow=False)


QA_RECORD = '{"question": ["a", "b"], "candidates": [["a", "c"], ["b", "d"]], "correct": [0]}'
QA_CONFIG = """
[dataset]
source = qa
path = {data}
vocab_file = {vocab}

[model]
kind = text
embed_dim = 3
""" + TestModelAndSplitKeys.CONFIG[TestModelAndSplitKeys.CONFIG.index("[trainer]"):]
LETOR_CONFIG = """
[dataset]
source = letor
path = {data}
""" + TestModelAndSplitKeys.CONFIG[TestModelAndSplitKeys.CONFIG.index("[model]"):]
INTERACTIONS_CONFIG = """
[dataset]
source = interactions
path = {data}

[model]
kind = matfac
embed_dim = 2
""" + TestModelAndSplitKeys.CONFIG[TestModelAndSplitKeys.CONFIG.index("[trainer]"):]


def variance_config(old, new):
    assert old in TestVariance.CONFIG
    return TestVariance.CONFIG.replace(old, new)


def trainer_config(old, new):
    assert old in TestModelAndSplitKeys.CONFIG
    return TestModelAndSplitKeys.CONFIG.replace(old, new)


def irgan_config(pretrain_lr):
    return trainer_config("name = single-d", "name = irgan-pointwise\npretrain_epochs = 1\n"
                          f"pretrain_lr = {pretrain_lr}")


def qa_rows(*records):
    """A QA file whose second line is each of ``records``."""
    return [("train", QA_CONFIG, QA_RECORD + "\n" + record + "\n", 2, "{data}:2")
            for record in records]


# (command, config, data file text or None, exit code, what the message names)
MALFORMED_INPUT = [
    ("train", "name = x\n" + TestModelAndSplitKeys.CONFIG, None, 1, "run.ini', line: 1"),
    ("train", "[run]\nname = a\nname = b\n" + TestModelAndSplitKeys.CONFIG, None, 1,
     "run.ini' [line 3]"),
    ("variance", variance_config("mc_samples = 3000", "mc_samples = 1"), None, 1, "mc_samples"),
    ("variance", TestVariance.CONFIG + "init_scale = -1\n", None, 1, "init_scale"),
    ("variance", variance_config("0.002,0.005,0.015", "0.002,1.5"), None, 1,
     "1.5 in 'fractions'"),
    ("variance", variance_config("num_queries = 4", "num_queries = 0"), None, 1, "num_queries"),
    ("variance", TestVariance.CONFIG + "noise_sigma = -1\n", None, 1, "noise_sigma"),
    ("variance", TestVariance.CONFIG + "batch_size = 0\n", None, 1, "batch_size"),
    ("variance", variance_config("learning_rate = 0.3", "learning_rate = -0.1"), None, 1,
     "learning_rate"),
    ("variance", variance_config("\nb = 0.5", "\nb = nan"), None, 1, "b must be"),
    ("variance", variance_config("pool_size = 300", "pool_size = 300000"), None, 1,
     "pool_size"),
    *qa_rows("5", QA_RECORD.replace("[0]}", "0}"), QA_RECORD.replace("[0]", '["1"]'),
             QA_RECORD.replace("[0]", "[1.5]"),
             QA_RECORD.replace('[["a", "c"], ["b", "d"]]', '"ab"'),
             QA_RECORD.replace('["a", "b"]', "[]")),
    ("train", LETOR_CONFIG, "1 qid:1 1:0.5 2:0.1 # d0\n0 qid:1 1:nan 2:0.1 # d1\n", 2,
     "{data}:2"),
    ("train", LETOR_CONFIG, "1 qid:1 1:0.5 2:inf # d0\n", 2, "{data}:1"),
    ("variance", "[run]\nname = a%\n" + TestVariance.CONFIG, None, 1, "'name' in [run]"),
    ("train", QA_CONFIG, QA_RECORD.replace("{", '{"id": "x", ') + "\n"
     + QA_RECORD.replace("{", '{"id": "x", ').replace("[0]", "[1]") + "\n", 2, "{data}:2"),
    ("train", INTERACTIONS_CONFIG, "u1\ti1\t5\nu1\ti2\tnan\n", 2, "{data}:2"),
    ("train", INTERACTIONS_CONFIG, "u1\ti1\tinf\nu1\ti2\t5\n", 2, "{data}:1"),
    ("train", INTERACTIONS_CONFIG.replace("path = {data}", "path = {data}\nthreshold = nan"),
     "u1\ti1\t5\nu1\ti2\t3\nu2\ti1\t5\nu2\ti2\t3\n", 1, "'threshold' in [dataset]"),
    ("train", trainer_config("learning_rate = 0.05", "learning_rate = inf"), None, 1,
     "'learning_rate' in [trainer]"),
    ("train", trainer_config("epochs_outer = 1", "epochs_outer = 1\ntemperature = inf"), None, 1,
     "'temperature' in [trainer]"),
    ("variance", variance_config("learning_rate = 0.3", "learning_rate = inf"), None, 1,
     "'learning_rate' in [variance]"),
    ("variance", TestVariance.CONFIG + "noise_sigma = inf\n", None, 1,
     "'noise_sigma' in [variance]"),
    ("train", trainer_config("num_queries = 8", "num_queries = 0"), None, 1,
     "[dataset]: num_queries must be"),
    ("train", trainer_config("relevant_fraction = 0.25", "relevant_fraction = 2"), None, 1,
     "[dataset]: relevant_fraction must"),
    ("train", irgan_config("-1"), None, 1, "pretrain_lr must be >= 0"),
    ("train", irgan_config("nan"), None, 1, "'pretrain_lr' in [trainer]"),
    ("train", trainer_config("name = single-d", "name = irgan-pointwise\nbaseline = constant:nan"),
     None, 1, "'baseline' in [trainer]"),
    ("train", trainer_config("source = synthetic", "source = bogus"), None, 1,
     "'source' in [dataset]"),
    ("train", trainer_config("name = single-d",
                             "name = irgan-pointwise\nbaseline = value-exact:5"),
     None, 1, "bad value for 'baseline' in [trainer]: 'value-exact:5'"),
    ("train", QA_CONFIG, QA_RECORD + "\n\n\n\n5\n", 2, "{data}:5: expected a JSON object"),
    ("compare", TestCompare.CONFIG.replace("single-d,dns", "single-d,dns,single-d"), None, 1,
     "'single-d' in 'trainers' in [compare]"),
    ("compare", TestCompare.CONFIG.replace("seeds = 1,2", "seeds = 1,2,1"), None, 1,
     "1 in 'seeds' in [compare]"),
    ("train", LETOR_CONFIG, "1 qid: 1:0.5 # d1\n", 2, "{data}:1: empty query id"),
    ("train", LETOR_CONFIG, "1 qid:1 1:0.5 # d0\n0 qid:1 1:0.2 # docid=\n", 2,
     "{data}:2: empty document id"),
    ("train", INTERACTIONS_CONFIG, "u1\ti1\t5\nu1\t\t5\n", 2, "{data}:2: empty item id"),
    ("train", QA_CONFIG, QA_RECORD + "\n" + QA_RECORD.replace("{", '{"id": "", ') + "\n", 2,
     "{data}:2: empty question id"),
    ("train", trainer_config("epochs_outer = 1", "epochs_outr = 1"), None, 1,
     "unknown key 'epochs_outr' in [trainer]"),
    ("train", trainer_config("[compare]", "[comparison]"), None, 1,
     "unknown section [comparison]"),
    ("train", trainer_config("epochs_outer = 1", "epochs_outer = 1\nhidden = 46"), None, 1,
     "unknown key 'hidden' in [trainer]"),
    ("train", "[DEFAULT]\nepochs = 3\n" + TestModelAndSplitKeys.CONFIG, None, 1,
     "unknown key 'epochs' in [DEFAULT]"),
    ("train", trainer_config("kind = linear", "kind = text"), None, 2,
     "text scorer needs tokens; query 'q000' has none"),
    ("train", INTERACTIONS_CONFIG.replace("kind = matfac", "kind = text"),
     "u1\ti1\t5\nu1\ti2\t3\nu2\ti1\t5\nu2\ti2\t3\n", 2,
     "text scorer needs tokens; query 'u1' has none"),
    ("train", trainer_config("epochs_outer = 1", "epochs_outer = 1\nd_steps = 0"), None, 1,
     "d_steps must be >= 1"),
    ("variance", variance_config("train_epochs = 30", "train_epochs = 0"), None, 1,
     "train_epochs must be >= 1"),
    ("variance", variance_config("train_epochs = 30", "train_epochs = -3"), None, 1,
     "train_epochs must be >= 1"),
]


class TestNumericFailure:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command,body", [
        ("train", trainer_config("learning_rate = 0.05", "learning_rate = 1e308")),
        ("variance", variance_config("learning_rate = 0.3", "learning_rate = 1e308")),
    ], ids=["train", "variance"])
    def test_one_line_and_exit_three(self, command, body, tmp_path, capsys):
        config = write_config(tmp_path, body)
        assert run([command, "--config", config, "--out", tmp_path / "out"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: ")


class TestMalformedInput:
    """Malformed configs and data files exit 1 (config) or 2 (data) with a
    message naming the key or path:line, print no traceback, and fail before
    the run directory exists."""

    @pytest.mark.parametrize("command,config,data,code,names", MALFORMED_INPUT, ids=[
        "ini-no-section-header", "ini-duplicate-option", "variance-mc_samples",
        "variance-init_scale", "variance-fractions", "variance-num_queries",
        "variance-noise_sigma", "variance-batch_size", "variance-learning_rate",
        "variance-b-nan", "variance-enumeration-limit", "qa-record-not-object", "qa-correct-not-list",
        "qa-correct-string", "qa-correct-float", "qa-candidates-string",
        "qa-question-empty", "letor-nan-feature", "letor-inf-feature", "ini-bare-percent",
        "qa-duplicate-id", "interactions-nan-rating", "interactions-inf-rating",
        "interactions-nan-threshold", "trainer-inf-learning_rate", "trainer-inf-temperature",
        "variance-inf-learning_rate", "variance-inf-noise_sigma", "dataset-num_queries",
        "dataset-relevant_fraction", "trainer-negative-pretrain_lr", "trainer-nan-pretrain_lr",
        "trainer-nan-baseline", "dataset-unknown-source", "trainer-value-exact-argument",
        "qa-record-after-blank-lines",
        "compare-repeated-trainer", "compare-repeated-seed", "letor-empty-query-id",
        "letor-empty-document-id", "interactions-empty-item-id", "qa-empty-id",
        "ini-misspelled-key", "ini-unknown-section", "ini-other-sections-key",
        "ini-unknown-default-key", "text-model-on-synthetic", "text-model-on-interactions",
        "trainer-zero-d_steps", "variance-zero-train_epochs", "variance-negative-train_epochs"])
    def test_fails_before_work(self, tmp_path, capsys, command, config, data, code, names):
        data_path, vocab_path = tmp_path / "data.txt", tmp_path / "vocab.txt"
        if data is not None:
            data_path.write_text(data)
        vocab_path.write_text("a\nb\nc\nd\n")
        path = write_config(tmp_path, config.replace("{data}", str(data_path))
                            .replace("{vocab}", str(vocab_path)))
        assert run([command, "--config", path, "--out", tmp_path / "out"]) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 1 else "data error: ")
        assert names.replace("{data}", str(data_path)) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestConfigKeys:
    """``cli.KEYS`` lists every key some command reads: each config the
    project ships or writes loads, and ``Conf`` reads no key it leaves out."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_shipped_configs_load(self):
        configs = sorted((self.ROOT / "configs").glob("*.ini"))
        assert len(configs) == 3
        for path in configs:
            cli.Conf(path)

    def test_readme_complete_config_trains(self, tmp_path):
        readme = (self.ROOT / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert "epochs_outer = 50\n" in block
        path = write_config(tmp_path, block.replace("epochs_outer = 50\n", "epochs_outer = 2\n"))
        assert run(["train", "--config", path, "--out", tmp_path / "out"]) == 0

    def test_benchmark_workload_configs_load(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", self.ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
        spec.loader.exec_module(workloads)
        for cls in workloads.WORKLOADS.values():
            cls(1, tmp_path)
        configs = sorted(tmp_path.glob("*.ini"))
        assert len(configs) == 6
        for path in configs:
            cli.Conf(path)

    def test_default_keys_are_checked_against_every_section(self, tmp_path):
        conf = cli.Conf(write_config(tmp_path, "[DEFAULT]\nseed = 5\n[trainer]\nname = dns\n"))
        assert conf.get("trainer", "seed", type=int) == 5

    def test_unlisted_key_is_not_read(self, tmp_path):
        conf = cli.Conf(write_config(tmp_path, "[trainer]\nlearning_rate = 0.05\n"))
        with pytest.raises(KeyError, match="'dns_kk' in \\[trainer\\]"):
            conf.get("trainer", "dns_kk")
        with pytest.raises(KeyError, match="'dns_k' in \\[variance\\]"):
            conf.get_list("variance", "dns_k")


class TestOutputRoot:
    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANK_LAB_OUT", str(tmp_path / "envout"))
        config = write_config(tmp_path, TestPretrain.CONFIG)
        assert run(["pretrain", "--config", config]) == 0
        assert (tmp_path / "envout" / "run" / "curves.csv").exists()


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "results.csv"
        write_csv(path, ("model", "value"), [("A", 0.5)])
        before = path.read_bytes()

        def rows():
            yield ("A", 0.25)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            write_csv(path, ("model", "value"), rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_failed_rerun_keeps_earlier_run(self, tmp_path):
        # A run is swapped in only when it succeeds, so a rerun that fails on a
        # numeric error leaves every file of the earlier run as it was.
        body = SYNTH_DATASET + MODEL_LINEAR + """
[trainer]
name = single-d
learning_rate = {lr}
epochs_outer = 3
seed = 7
"""
        config = write_config(tmp_path, body.format(lr=0.05))
        out = tmp_path / "out"
        assert run(["train", "--config", config, "--out", out]) == 0
        files = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert out / "run" / "config.copy" in files
        write_config(tmp_path, body.format(lr=1e308))
        assert run(["train", "--config", config, "--out", out]) == 3
        assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == files


def tree(root):
    """Every file under ``root``, by its relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def disk_full(model, path):
    raise OSError(28, "No space left on device", str(path))


class TestRunDirectory:
    """Each run owns ``<out>/<name>/`` whole: it is staged beside it and
    swapped in only on success."""

    SINGLE_D = TestTrain().config("single-d")

    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "a\\b"])
    def test_name_must_be_one_directory(self, tmp_path, capsys, name):
        (tmp_path / "out" / "keep").mkdir(parents=True)
        (tmp_path / "out" / "keep" / "other.txt").write_text("unrelated")
        config = write_config(tmp_path, f"[run]\nname = {name}\n" + self.SINGLE_D)
        before = tree(tmp_path)
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 1
        assert "'name' in [run]" in capsys.readouterr().err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("command,body", [
        ("train", TestTrain().config("dual-d")),
        ("compare", TestCompare.CONFIG),
    ], ids=["dual-d", "compare"])
    def test_rerun_leaves_only_its_own_files(self, tmp_path, command, body):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run([command, "--config", write_config(tmp_path, body), "--out", out]) == 0
        config = write_config(tmp_path, self.SINGLE_D)
        assert run(["train", "--config", config, "--out", out]) == 0
        assert run(["train", "--config", config, "--out", fresh]) == 0
        assert sorted(tree(out / "run")) == [
            "checkpoints/M.ckpt", "config.copy", "curves.csv", "results.csv"]
        assert tree(out) == tree(fresh)

    def test_one_stdout_line_names_the_run_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, self.SINGLE_D)
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 0
        assert capsys.readouterr().out == f"train: wrote {tmp_path / 'out' / 'run'}\n"

    def test_failed_write_keeps_earlier_run(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run(["train", "--config", write_config(tmp_path, self.SINGLE_D),
                    "--out", out]) == 0
        before = tree(out)
        monkeypatch.setattr(cli, "save_checkpoint", disk_full)
        config = write_config(tmp_path, self.SINGLE_D.replace("seed = 40", "seed = 41"))
        assert run(["train", "--config", config, "--out", out]) == 2
        assert tree(out) == before

    def test_killed_run_with_this_pid_leaves_nothing_behind(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for end in ("tmp", "old"):
            (out / f".run.{os.getpid()}.{end}").mkdir(parents=True)
            (out / f".run.{os.getpid()}.{end}" / "study.csv").write_text("stale")
        config = write_config(tmp_path, self.SINGLE_D)
        assert run(["train", "--config", config, "--out", out]) == 0
        assert run(["train", "--config", config, "--out", fresh]) == 0
        assert tree(out) == tree(fresh)

    @staticmethod
    def finished_pid():
        """The pid of a child process that has exited and been waited for."""
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()
        return child.pid

    @staticmethod
    def leave(out, entry, text):
        (out / entry).mkdir(parents=True)
        (out / entry / "study.csv").write_text(text)

    def test_killed_runs_are_cleared(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        config = write_config(tmp_path, self.SINGLE_D)
        assert run(["train", "--config", config, "--out", out]) == 0
        self.leave(out, f".run.{self.finished_pid()}.tmp", "staged")
        self.leave(out, f".run.{self.finished_pid()}.old", "set aside")
        assert run(["train", "--config", config, "--out", out]) == 0
        assert run(["train", "--config", config, "--out", fresh]) == 0
        assert tree(out) == tree(fresh)

    def test_run_set_aside_by_a_killed_swap_comes_back(self, tmp_path, monkeypatch):
        # Killed between the swap's two renames: the earlier run is only the
        # .old entry.  A later run that fails leaves it back in place.
        out = tmp_path / "out"
        self.leave(out, f".run.{self.finished_pid()}.old", "earlier run")
        monkeypatch.setattr(cli, "save_checkpoint", disk_full)
        assert run(["train", "--config", write_config(tmp_path, self.SINGLE_D),
                    "--out", out]) == 2
        assert tree(out) == {"run/study.csv": b"earlier run"}

    def test_entries_of_live_runs_and_other_names_are_left_alone(self, tmp_path):
        out, live, dead = tmp_path / "out", os.getppid(), self.finished_pid()
        kept = [f".run.{live}.tmp", f".run.{live}.old", f".other.{dead}.tmp",
                f".run.x{dead}.tmp", f".run.{dead}.tmp.keep"]
        for entry in kept:
            self.leave(out, entry, entry)
        assert run(["train", "--config", write_config(tmp_path, self.SINGLE_D),
                    "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(kept + ["run"])
        assert all((out / entry / "study.csv").read_text() == entry for entry in kept)

    @pytest.mark.parametrize("outcome,code", [
        ("success", 0), ("numeric", 3), ("write-fails", 2), ("name-is-a-file", 2)])
    def test_no_staging_entry_is_left(self, tmp_path, monkeypatch, outcome, code):
        out = tmp_path / "out"
        body = self.SINGLE_D
        if outcome == "numeric":
            body = body.replace("learning_rate = 0.05", "learning_rate = 1e308")
        elif outcome == "write-fails":
            monkeypatch.setattr(cli, "save_checkpoint", disk_full)
        elif outcome == "name-is-a-file":
            out.mkdir()
            (out / "run").write_text("not a run")
        assert run(["train", "--config", write_config(tmp_path, body), "--out", out]) == code
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []
        if outcome == "name-is-a-file":
            assert (out / "run").read_text() == "not a run"
