"""Every public name in the package has a user.

The scan takes every public ``def`` and ``class`` in ``src/ranklab/*.py``
(``__init__.py`` aside, since re-exporting a name does not use it) and counts
the code references to it in the package modules, the acceptance tests and
the benchmark harness, beyond its own definition.  A reference is a name, an
attribute, an imported name or an identifier-like string constant (the
benchmark's tracer tables name the functions they wrap in strings); words in
docstrings and comments do not count.  A method or property is reached only
through an attribute or a string, so a bare name such as a local variable
does not count as its use.  Unit tests do not count as users: a name only
they call is surface without a purpose.

The scan is a floor, not a proof: a name is counted wherever it occurs as an
attribute, so a method named like another object's attribute slips past it.
"""

import ast
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
    "serialize_letor": "the LETOR writer that parse_letor round-trips",
}


def modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_names():
    """(every public def and class name in the package modules, methods
    included; the names among them defined only in a class body, which are
    methods and properties)."""
    members, others = set(), set()
    for path in modules():
        for parent in ast.walk(ast.parse(path.read_text())):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, DEFS) and not node.name.startswith("_"):
                    (members if isinstance(parent, ast.ClassDef) else others).add(node.name)
    return members | others, members - others


def references(tree):
    """Each definition and code reference in a module, as (the name it uses,
    whether it is a bare name).  Comments never reach the tree, and a
    docstring is prose, not an identifier-like constant."""
    for node in ast.walk(tree):
        if isinstance(node, DEFS):
            yield node.name, False
        elif isinstance(node, ast.Name):
            yield node.id, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, False
        elif isinstance(node, ast.alias):
            yield from ((name, False) for name in
                        filter(None, (node.name.rsplit(".", 1)[-1], node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, False


def unused_names():
    """Public names referenced only once (their definition) in the files a
    user may be in; a name defined twice counts the other definition as a
    use, and a bare name never counts as a use of a method or property."""
    paths = [*modules(), ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    refs = [ref for path in paths for ref in references(ast.parse(path.read_text()))]
    counts = Counter(name for name, _ in refs)
    member_counts = Counter(name for name, bare in refs if not bare)
    names, members = public_names()
    return {name for name in names
            if (member_counts if name in members else counts)[name] <= 1}


def test_every_public_name_has_a_user():
    unused = unused_names()
    assert unused - KEPT.keys() == set(), "public names without a user; delete them or " \
        "add each to KEPT with a reason"
    assert KEPT.keys() - unused == set(), "KEPT names that now have a user or are gone; " \
        "take them out of KEPT"
