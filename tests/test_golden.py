"""Golden SHA-256 digests of the shipped configs' deterministic outputs.

Each case copies one ``configs/*.ini`` into a temporary directory, rewrites a
few keys to cut epochs, seeds and study size, and runs it through the CLI.
The digests of every CSV and checkpoint it writes are pinned, so a refactor
that changes any bit of a seeded result fails here, and not only against a
rerun of itself.  The irgan cases reuse the web configs with the trainer
swapped, because no shipped config trains the adversarial regimes.  The qa
and interactions cases start from no shipped config: they train on tiny
files the test writes, so that token pools (text scorer) and id pools over a
shared catalog (matfac scorer) are pinned too.
"""

import configparser
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ranklab.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_qa_files(tmp_path):
    """Twelve questions of four candidates over a 30-word vocabulary: one
    question has every candidate correct, one has none, and one question
    uses a word outside the vocabulary."""
    rng = np.random.default_rng(3)
    vocab = [f"w{i:02d}" for i in range(30)]

    def text(low, high):
        return [vocab[i] for i in rng.integers(30, size=int(rng.integers(low, high)))]

    lines = []
    for i in range(12):
        question = text(2, 5) + (["unseen"] if i == 2 else [])
        correct = [0, 1, 2, 3] if i == 4 else [] if i == 7 else [int(rng.integers(4))]
        lines.append(json.dumps({"question": question,
                                 "candidates": [text(2, 6) for _ in range(4)],
                                 "correct": correct}))
    corpus, vocab_file = tmp_path / "qa.jsonl", tmp_path / "vocab.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab_file.write_text("\n".join(vocab) + "\n", encoding="utf-8")
    return {"path": str(corpus), "vocab_file": str(vocab_file)}


def write_interactions_file(tmp_path):
    """Ten users over a 12-item catalog: one user likes every item, one likes
    none, the others rate a random half of the catalog from 1 to 5."""
    rng = np.random.default_rng(4)
    lines = []
    for u in range(10):
        if u == 3:
            rated, ratings = range(12), [5] * 12
        else:
            rated = sorted(rng.choice(12, size=6, replace=False).tolist())
            ratings = [2] * 6 if u == 6 else rng.integers(1, 6, size=6).tolist()
        lines.extend(f"u{u:02d}\ti{i:02d}\t{r}" for i, r in zip(rated, ratings))
    path = tmp_path / "ratings.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"path": str(path)}


# Cases with no shipped config write their input files first; each writer
# returns the [dataset] keys that point at them.
CASE_FILES = {"qa-dual-d": write_qa_files, "interactions-dns": write_interactions_file}

# case -> (shipped config or None, command, {section: {key: value}} overrides).
# The split seeds of the qa and interactions cases hold out the query with no
# relevant document and train on the one whose pool is all relevant.
CASES = {
    "single-d": ("web_single_d.ini", "train", {"trainer": {"epochs_outer": "4"}}),
    "dual-d": ("web_single_d.ini", "train", {
        "trainer": {"name": "dual-d", "epochs_outer": "2", "epochs_inner": "3"},
    }),
    "pretrain": ("web_single_d.ini", "pretrain", {"trainer": {"epochs_outer": "3"}}),
    "irgan-pointwise": ("web_single_d.ini", "train", {
        "trainer": {"name": "irgan-pointwise", "learning_rate": "0.07",
                    "epochs_outer": "2", "k_samples": "2"},
    }),
    "irgan-pairwise": ("web_single_d.ini", "train", {
        "trainer": {"name": "irgan-pairwise", "learning_rate": "0.07",
                    "epochs_outer": "2", "baseline": "value-exact"},
    }),
    "compare": ("web_compare.ini", "compare", {
        "trainer": {"epochs_inner": "2"},
        "compare": {"seeds": "1,2", "budget_epochs": "8"},
    }),
    "variance": ("variance_study.ini", "variance", {
        "variance": {"num_queries": "4", "pool_size": "300", "train_epochs": "20",
                     "mc_samples": "3000"},
    }),
    "qa-dual-d": (None, "train", {
        "run": {"name": "qa-dual-d"},
        "dataset": {"source": "qa", "holdout_fraction": "0.25", "split_seed": "4"},
        "model": {"kind": "text", "embed_dim": "6", "init_scale": "0.1"},
        "trainer": {"name": "dual-d", "learning_rate": "0.05", "batch_size": "4",
                    "epochs_outer": "2", "epochs_inner": "2", "seed": "9"},
        "eval": {"metrics": "p@1,ndcg@3"},
    }),
    "interactions-dns": (None, "train", {
        "run": {"name": "interactions-dns"},
        "dataset": {"source": "interactions", "threshold": "4", "holdout_fraction": "0.3",
                    "split_seed": "2"},
        "model": {"kind": "matfac", "embed_dim": "4", "init_scale": "0.1"},
        "trainer": {"name": "dns", "learning_rate": "0.02", "batch_size": "3",
                    "dns_k": "20", "epochs_outer": "3", "seed": "9"},
        "eval": {"metrics": "p@5,ndcg@5"},
    }),
}

GOLDEN = {
    "compare": {
        "per_seed.csv":
            "629d1fe414872fbe03e7a404e2cb91b64075ac7ad02fc9772e4a03a5f49bf3dc",
        "results.csv":
            "97d5fcfc9fea4bfe94ec28e0136060745e62473084029bd7979e2c98454a99d8",
    },
    "dual-d": {
        "checkpoints/A.ckpt":
            "1ae9e493a654a6e201ae3bff985df75da5681f143f1dd95b90e40b0517a61113",
        "checkpoints/B.ckpt":
            "dd6b7b50214ad15529c601121924d293cbfd4fc39827a25b4236b70c336b9daf",
        "checkpoints/chosen":
            "06f961b802bc46ee168555f066d28f4f0e9afdf3f88174c1ee6f9de004fc30a0",
        "curves.csv":
            "548e5af3a417f160da0b495d2a6caf7cd986ec691da42efbdb83f2be1afec9f6",
        "results.csv":
            "cb14940301d92c013e5cbcdc08d8fa0e7435138e7ff7b978b4d822899444c8fc",
    },
    "interactions-dns": {
        "checkpoints/D.ckpt":
            "b748aefc6dc4b225091c7f1ae2cd416f4a3f45ee77c443f7f395ba3f71369f4b",
        "curves.csv":
            "e2c15257d554d73a0f91da9d30f695ea9221866bbd59acfd1ff20461d33d016d",
        "results.csv":
            "4d2fd1d83790de26471b0e38e3de82fa8f33467d48fdda2e687a688b7a347e57",
    },
    "irgan-pairwise": {
        "checkpoints/D.ckpt":
            "971b36302f2e093b9bb743e3749ea6bdbdf14b6346cffa18da11f15430da8285",
        "checkpoints/G.ckpt":
            "3b1167311ab2a2c6963196b8245e129057243718309738ee292fd06cee5d991e",
        "curves.csv":
            "5662c5ccc2f5e10cd3831f5b1651a4124b6df83c987ddaf4f45584b067dac998",
        "results.csv":
            "e28fef6a745d97c6a70cbef2c4d3b729b16624f901f2121d6f82ffbdf08c868d",
    },
    "irgan-pointwise": {
        "checkpoints/D.ckpt":
            "20e3b833224da965d984e8c584fb8ae9941a97b27d76a0e9fc4a31578bb07c3d",
        "checkpoints/G.ckpt":
            "16c13dcaa97c712eaef6ebfc8afd24402d242dcc80f436cf576d239502f746ce",
        "curves.csv":
            "bedc250c858657a5ed7b91de2d08c9a50b0f9c82a20fe364ae4b736e3158cc65",
        "results.csv":
            "7ff73d3da1c92876e9c4b0beecb827ec3f0c551ceecc5af1a9b9495b0da1a233",
    },
    "pretrain": {
        "checkpoints/G.ckpt":
            "177ef0d51def66aa9bba6dc46c1fdef9d54794b4ec4c243920999ededdce3daa",
        "curves.csv":
            "125fbbfa668f4b1d708aea3bc52ffb32de0ef96d34c259a469eaade255f5381c",
    },
    "qa-dual-d": {
        "checkpoints/A.ckpt":
            "4a1d1962989bae4718b446e8ba85d6a8c9f4f6b304791ac7156101fa9996be5e",
        "checkpoints/B.ckpt":
            "be7543c4b84f0c155baa4d4ea906e49b07b24dade7e3e254614e3384f9e15d83",
        "checkpoints/chosen":
            "06f961b802bc46ee168555f066d28f4f0e9afdf3f88174c1ee6f9de004fc30a0",
        "curves.csv":
            "53a105d1df0202c6ccc9d6e61c21935fb0f45322578756286f8ce0ea4009b230",
        "results.csv":
            "8ba882ab1c797cdcd586c14acf12ccff4671a51c6449df2d56dde24b26975a61",
    },
    "single-d": {
        "checkpoints/M.ckpt":
            "56a381bb386535a8ec7811118f466e7c638b52f2a5d9b794d784674aa084ed31",
        "curves.csv":
            "423ab2c2903bc1e66a72b976e7ffbadf004aaf107fa9de6c36171d6b78d99661",
        "results.csv":
            "ed763308f2a5dd267effda6f7afb1c4b1d20b880f2650c5b59613bb9ac89eb5e",
    },
    "variance": {
        "b_sweep.csv":
            "085a53db67823a57e7901088702b4f32cb71fc70079d91189c41d24f4e0d55c5",
        "bound_chain.csv":
            "fe6f004918c05d810c0d92a525151190f9e731bebb99a3ace70ad4de403545ce",
        "study.csv":
            "9901c60e07ba0f36a2f8f47cf4f7f3f5a5a93a917784e065a6acca6f6dbadca2",
    },
}


def run_case(tmp_path, case):
    name, command, overrides = CASES[case]
    parser = configparser.ConfigParser()
    if name is None:
        name = f"{case}.ini"
        overrides = {**overrides, "dataset": {**overrides["dataset"],
                                              **CASE_FILES[case](tmp_path)}}
    else:
        parser.read(CONFIG_DIR / name)
    for section, values in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in values.items():
            parser.set(section, key, value)
    config = tmp_path / name
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    return {
        path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file() and path.name != "config.copy"
    }


def numpy_environment():
    """numpy's version and, from numpy 1.26 on, the BLAS it was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26: show_config has no mode
        return f"numpy {np.__version__}"
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(tmp_path, case):
    assert run_case(tmp_path, case) == GOLDEN[case], (
        f"digests pinned with numpy 2.4.6 and scipy-openblas 0.3.31; "
        f"this run has {numpy_environment()}")
