"""Every public module-level function or class, and every public method or property of one, has a caller.

The library and the benchmark are parsed with ``ast``.  A public name
(one not starting with ``_``) defined at the top level of a module under
``src/cascadelab`` or ``bench``, or in the body of a class defined
there, must be referenced, as a name or as an attribute, somewhere
outside its own definition and the package's ``__init__.py``.  Tests do
not count as callers: a name that only tests reach is dead code that the
tests keep alive.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cascadelab").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# public names whose callers are planned (ROADMAP items 3 and 6), and the reader of simulate.csv words
ALLOWED = {
    "predict.restricted_image_dim",
    "predict.predicted_levelset_dim",
    "words.parse_word",
}


def references(node) -> Counter:
    """How often each name or attribute name is used under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def definitions(tree):
    """(qualified name, node) of each module-level function or class and each method or property of a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def unreferenced() -> set[str]:
    """The public names used nowhere outside their own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES if path.name != "__init__.py"}
    used = sum((references(tree) for tree in trees.values()), Counter())
    return {
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name, node in definitions(tree)
        if not node.name.startswith("_") and used[node.name] == references(node)[node.name]
    }


def test_every_public_name_has_a_caller_outside_tests():
    assert unreferenced() == ALLOWED
