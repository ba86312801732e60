"""Every public name in the package has a user.

The scan takes every public ``def`` and ``class`` in ``src/ranklab/*.py``
(``__init__.py`` aside, since re-exporting a name does not use it) and looks
for the name as a whole word in the package modules, the acceptance tests and
the benchmark harness, beyond its own definition.  Unit tests do not
count as users: a name only they call is surface without a purpose.

The scan is a floor, not a proof.  Any mention counts, in a docstring or a
comment too, so a name that is also a common word (``snapshot``,
``relevance``) slips past it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ranklab"

# Public names with no user in the package, the acceptance tests or the
# benchmark, kept on purpose.
KEPT = {
    "compute_metric": "the reference that evaluate_model's differential test compares with",
    "gradient_sample": "the only sampling check of exact_gradient_mean",
    "pairwise_accuracy": "a documented metric",
    "series": "reads a metric's curve back from the CLI's curves.csv",
    "from_csv": "reads the CLI's curves.csv back into a RunRecord",
}


def modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def public_names():
    """Every public def and class name in the package modules, methods included."""
    return {node.name for path in modules() for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def unused_names():
    """Public names that occur as a word only once (their definition) in the
    files a user may be in; a name defined twice counts the other definition
    as a use."""
    paths = [*modules(), ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    words = Counter(w for path in paths for w in re.findall(r"\w+", path.read_text()))
    return {name for name in public_names() if words[name] <= 1}


def test_every_public_name_has_a_user():
    unused = unused_names()
    assert unused - KEPT.keys() == set(), "public names without a user; delete them or " \
        "add each to KEPT with a reason"
    assert KEPT.keys() - unused == set(), "KEPT names that now have a user or are gone; " \
        "take them out of KEPT"
