"""Golden SHA-256 digests of the shipped configs' deterministic outputs.

Each case copies one ``configs/*.ini`` into a temporary directory, rewrites a
few keys to cut epochs, seeds and study size, and runs it through the CLI.
The digests of every CSV and checkpoint it writes are pinned, so a refactor
that changes any bit of a seeded result fails here, and not only against a
rerun of itself.  The irgan cases reuse the web configs with the trainer
swapped, because no shipped config trains the adversarial regimes.
"""

import configparser
import hashlib
from pathlib import Path

import pytest

from ranklab.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# case -> (shipped config, command, {section: {key: value}} overrides)
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(tmp_path, case):
    assert run_case(tmp_path, case) == GOLDEN[case]
