"""ranklab benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a ranklab checkout; the package is imported from its
``src/`` directory and nowhere else.  One single-threaded process drives the
workload: BLAS thread counts are pinned to 1 below, before numpy is imported.

With ``--trace 0`` the run measures end-to-end metrics: the median set-up
time over several fresh processes, then one untimed warm-up pass, then
timed passes for about ``--seconds`` (a pass that would end later is not
started once three have run).  With ``--trace 1`` it alternates untraced
and traced passes for ``--seconds`` and reports per-layer metrics.  Every
operation's output is checked on every pass.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it record the environment and a readable
summary.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS_FILE = BENCH_DIR / "digests.json"
WORKLOAD_NAMES = ("web-contrastive", "web-adversarial", "variance-qa")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
MIN_PASSES = 3


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no ranklab sources)."""


def import_program():
    """Import numpy and ranklab from this checkout's src/ only."""
    package = ROOT / "src" / "ranklab" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no ranklab sources at {package.parent}; run from a ranklab checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import ranklab

    if Path(ranklab.__file__).resolve() != package.resolve():
        raise BenchError(f"ranklab imported from {ranklab.__file__}, not {package}")


# -- passes -----------------------------------------------------------------------


class Tally:
    """Operations attempted, failed, and failed with a recorded known defect."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.known: dict[str, int] = {}


def run_pass(workload, tally: Tally, reference: dict | None = None, tracer=None):
    """Run one pass; time each operation's run, then check its result with
    tracing paused.  Outputs must match ``reference`` (the first pass)."""
    from report import PassResult
    from workloads import Outcome

    result = PassResult(0.0, 0.0, 0.0)
    for op in workload.ops():
        tally.attempted += 1
        error = None
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # the benchmark counts every failing operation
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        result.seconds += elapsed
        result.op_seconds[op.name] = elapsed
        if op.enumerates:
            result.enumeration_s += elapsed
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.user_s += after.ru_utime - before.ru_utime
        result.sys_s += after.ru_stime - before.ru_stime
        if error is not None:
            if error == op.known_defect:
                tally.known[f"{op.name}: {error}"] = tally.known.get(f"{op.name}: {error}", 0) + 1
            else:
                tally.failures.append(f"{op.name}: {error}")
            continue
        if tracer is not None:
            tracer.active = False
        try:
            outcome = op.check(value)
        except Exception as exc:
            outcome = Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"])
        finally:
            if tracer is not None:
                tracer.active = True
        if reference is not None:
            changed = sorted(k for k, v in outcome.digests.items() if reference.get(k) != v)
            if changed:
                outcome.problems.append(f"outputs differ from the first pass: {changed}")
        if outcome.problems:
            tally.failures.append(f"{op.name}: {'; '.join(outcome.problems)}")
        result.digests.update(outcome.digests)
        result.quality.extend(outcome.quality)
    if tracer is not None:
        result.spans = tracer.take()
    return result


def timed_passes(workload, tally, reference, seconds):
    """At least MIN_PASSES passes; then more while the next one, as long as
    the last, still ends within ``seconds``."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + passes[-1].seconds <= seconds):
        passes.append(run_pass(workload, tally, reference))
    return passes


# -- set-up -------------------------------------------------------------------------


def setup(args, tmp: Path):
    """Import the program and build the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tmp)
    return workload, time.perf_counter() - start


def setup_probe(args) -> float:
    """Set-up time of a fresh process (import included)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# -- environment and digests ------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed,
    }


def load_pins() -> dict:
    if DIGESTS_FILE.is_file():
        return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    return {"seed": DEFAULT_SEED, "workloads": {}}


def write_pins(workload: str, seed: int, digests: dict) -> None:
    pins = load_pins()
    if pins["seed"] != seed:
        raise BenchError(f"digests are pinned for seed {pins['seed']}, not {seed}")
    pins["workloads"][workload] = dict(sorted(digests.items()))
    DIGESTS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# -- main -------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true",
                        help="pin this run's output digests in perfbench/digests.json")
    return parser.parse_args(argv)


def measure(args, tmp: Path) -> tuple[dict, dict, Tally]:
    setup_samples = [] if args.trace or args.setup_only else [
        setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    workload, own_setup = setup(args, tmp)
    setup_samples.append(own_setup)
    if args.setup_only:
        return {"setup_s": own_setup}, {}, Tally()

    import report

    tally = Tally()
    warm = run_pass(workload, tally)
    reference = warm.digests
    pins = load_pins()
    pinned = pins["workloads"].get(args.workload) if args.seed == pins["seed"] else None
    summary = {
        "workload": args.workload, "seed": args.seed,
        "outputs_identical": (None if pinned is None else pinned == reference),
        "quality": report.quality(warm),
    }
    if pinned is not None and pinned != reference:
        summary["outputs_changed"] = sorted(
            k for k in set(pinned) | set(reference) if pinned.get(k) != reference.get(k))
    if args.write_digests:
        write_pins(args.workload, args.seed, reference)

    if not args.trace:
        passes = timed_passes(workload, tally, reference, args.seconds)
        run_s = statistics.median(p.seconds for p in passes)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "run_s": run_s,
            "model_epochs_per_s": workload.model_epochs / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary["run_s"] = report.tail([p.seconds for p in passes])
        summary["setup_s"] = {"samples": setup_samples}
        return metrics, summary, tally

    import spans
    import workloads

    # Untraced and traced passes alternate, so drift in machine speed does
    # not show up as tracing overhead.
    untraced, traced = [], []
    tracer = spans.Tracer()
    start = time.perf_counter()
    while (len(traced) < MIN_PASSES
           or time.perf_counter() - start + untraced[-1].seconds + traced[-1].seconds
           <= args.seconds):
        untraced.append(run_pass(workload, tally, reference))
        installed = spans.install(tracer)
        try:
            traced.append(run_pass(workload, tally, reference, tracer))
        finally:
            installed.uninstall()
    known = sum(tally.known.values())
    metrics = report.per_layer(traced, untraced, tally.attempted, len(tally.failures) + known)
    signatures = {json.dumps(report.count_signature(p)) for p in traced}
    summary["counts_repeat"] = len(signatures) == 1
    summary["traced_passes"] = len(traced)
    summary["roadmap"] = report.roadmap_rows(args.workload, metrics, traced, untraced,
                                             workloads.DUAL_D_INNER)
    return metrics, summary, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        metrics, summary, tally = measure(args, tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.setup_only:
        print(json.dumps(metrics))
        return 0

    import report

    units = {name: unit for name, unit, *_ in report.END_TO_END}
    units.update((name, unit) for name, unit, _ in report.per_layer_definitions())
    if tally.known:
        summary["known_failures"] = tally.known
    if tally.failures:
        summary["failures"] = tally.failures[:20]
    print("env " + json.dumps(environment(args.seed)))
    print("summary " + json.dumps(summary))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
