"""The benchmark's span tracer still installs on the package.

``perfbench/spans.py`` wraps named ranklab functions and methods in place and
fails to install when one of them is gone, so a refactor that deletes or
renames a traced binding fails here instead of in a traced benchmark run.
The tracer file is loaded from its path and used as it is.
"""

import importlib.util
import sys
from pathlib import Path

import ranklab
import ranklab._util  # noqa: F401  -- install() wraps bindings in every loaded module
import ranklab.cli  # noqa: F401

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def ranklab_bindings():
    """Every (owner, name, value) the tracer may replace: module attributes
    and the class attributes of Dataset and the scorer classes."""
    owners = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "ranklab" or n.startswith("ranklab."))]
    owners += [ranklab.Dataset, *ranklab.Scorer.__subclasses__()]
    return [(owner, name, value) for owner in owners
            for name, value in list(vars(owner).items()) if callable(value)]


def test_install_wraps_every_traced_binding_and_uninstall_restores_it(monkeypatch):
    spans = load_spans(monkeypatch)
    before = ranklab_bindings()
    for owner, name, value in before:  # undone at teardown even if install fails midway
        monkeypatch.setattr(owner, name, value)
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        dataset, _ = ranklab.synth_retrieval(ranklab.SyntheticSpec(
            num_queries=4, pool_size=5, relevant_fraction=0.2, feature_dim=2, seed=1))
        train, _ = ranklab.split_queries(dataset, 0.25, seed=0)
        train.positives(train.query_ids()[0])
    finally:
        installation.uninstall()
    assert all(getattr(owner, name) is value for owner, name, value in before)
    names = [span.name for span in tracer.take()]
    assert names.count("core.build_dataset") == 1  # the split builds nothing again
    assert {"dataio.synth_retrieval", "dataio.split_queries", "core.positives"} <= set(names)


def test_gradient_matrix_is_traced_on_linear_and_mlp1(monkeypatch):
    # The tracer wraps only kernels a scorer class defines itself, and the
    # benchmark's pgvar.policy_passes_per_state counts these spans: it would
    # read 0 if gradient_matrix moved to the Scorer base class.
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        for kind, dims in (("linear", {"feature_dim": 2}),
                           ("mlp1", {"feature_dim": 2, "hidden": 3})):
            scorer = ranklab.build_scorer(kind, dims, scale=0.1, seed=1)
            scorer.gradient_matrix(None, [ranklab.Document("d", [1.0, 2.0])])
    finally:
        installation.uninstall()
    names = [span.name for span in tracer.take()]
    assert names == ["scorers.linear.gradient_matrix", "scorers.mlp1.gradient_matrix"]
