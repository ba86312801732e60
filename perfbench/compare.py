"""Paired comparison of a parent and a change checkout on one workload.

    python3 perfbench/compare.py --parent <checkout> --change <checkout> --workload <name>

Each of ten pairs runs ``perfbench/run.py`` once in each checkout on the
same seed, for the benchmark's ``run_seconds``, parent first in even pairs
and change first in odd pairs; pair ``i`` uses seed ``1000 + i``.  For every
end-to-end metric it reports each side's median and quartiles, the share of
pairs the change won (ties count for neither), and a verdict:

* ``unresolved`` when either side's spread (quartile distance over median)
  exceeds the metric's bound, unless every run of the change reads better
  than every run of the parent;
* ``improved`` when the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
* ``regressed`` when the change's median is worse than the parent's by more
  than the bound;
* ``no regression`` otherwise.

Bounds and directions come from the BENCHMARK.json next to this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
PAIRS = 10
FIRST_SEED = 1000


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    seconds = SPEC["run_seconds"]
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + 600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: benchmark exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: outputs failed their checks on seed {seed}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> dict:
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs) / len(pairs)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    worse_by = (c_med - p_med) / p_med * (1 if direction == "lower" else -1)
    if spread > bound and not all(better(c, p, direction) for c in change for p in parent):
        call = "unresolved"
    elif wins >= 0.9 and better(c_med, p_med, direction) and abs(c_med - p_med) > p_q3 - p_q1:
        call = "improved"
    elif worse_by > bound:
        call = "regressed"
    else:
        call = "no regression"
    return {"parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
            "change_won": wins, "spread": spread, "bound": bound, "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)

    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, FIRST_SEED + i))
    report = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        report[name] = verdict([r[name] for r in runs["parent"]],
                               [r[name] for r in runs["change"]],
                               metric["better"], metric["bound"])
        row = report[name]
        print(f"{name:>20}  parent {row['parent'][1]:.6g} [{row['parent'][0]:.6g}, "
              f"{row['parent'][2]:.6g}]  change {row['change'][1]:.6g} [{row['change'][0]:.6g}, "
              f"{row['change'][2]:.6g}]  won {row['change_won']:.0%}  {row['verdict']}")
    print(json.dumps({"workload": args.workload, "pairs": PAIRS, "metrics": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
