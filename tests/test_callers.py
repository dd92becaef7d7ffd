"""No package code lacks a caller.

Every private function or method, and every module-level function that
``srgft.__all__`` does not export, must be referenced somewhere in the
package outside its own definition.  So must every exported function,
apart from the deliberate public API that the package itself never calls
(:data:`UNCALLED_EXPORTS`).  A reference is a name or an attribute read;
an import alone is not one.  Dunder methods are called by the language
and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

import srgft

PACKAGE = Path(srgft.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

#: the exported functions that no package code calls, each on purpose
UNCALLED_EXPORTS = {
    # library entry points, listed among the README's exported entry points
    "generate_caratheodory", "mobius", "quotient_transform", "star_reciprocal",
    # ROADMAP item 7 deletes it, with its tests and its ``__all__`` entry
    "is_one_slice",
}


def _references(node: ast.AST) -> Counter:
    """How often each name is read as a name or an attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _checked_definitions(tree: ast.Module, exported: bool):
    """The function definitions this test holds to: with ``exported``, the
    module-level functions in ``__all__``; else those outside it or
    private, and private methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            public = not node.name.startswith("_") and node.name in srgft.__all__
            if public == exported:
                yield node
        elif isinstance(node, ast.ClassDef) and not exported:
            for item in node.body:
                if isinstance(item, functions) and item.name.startswith("_") \
                        and not item.name.endswith("__"):
                    yield item


def _uncalled(exported: bool) -> list[tuple[str, int, str]]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return [(name, node.lineno, node.name)
            for name, tree in trees.items() for node in _checked_definitions(tree, exported)
            if everywhere[node.name] == _references(node)[node.name]]


def test_every_unexported_function_has_a_caller():
    uncalled = _uncalled(exported=False)
    assert not uncalled, uncalled


def test_every_exported_function_has_a_caller():
    """The list of uncalled exports is exact: a name leaves it once the
    package calls it or it is deleted."""
    assert {name for *_, name in _uncalled(exported=True)} == UNCALLED_EXPORTS


def test_uncalled_exports_are_documented():
    """Each deliberate public entry point appears in the README; ROADMAP
    item 7 deletes ``is_one_slice``, so it is not held to this."""
    text = README.read_text()
    assert [name for name in sorted(UNCALLED_EXPORTS - {"is_one_slice"})
            if f"`{name}`" not in text] == []
