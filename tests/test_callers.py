"""No package code lacks a caller.

Every private function or method, and every module-level function that
``srgft.__all__`` does not export, must be referenced somewhere in the
package outside its own definition.  A reference is a name or an
attribute read; an import alone is not one.  Dunder methods are called by
the language and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

import srgft

PACKAGE = Path(srgft.__file__).parent


def _references(node: ast.AST) -> Counter:
    """How often each name is read as a name or an attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _checked_definitions(tree: ast.Module):
    """The function definitions this test holds to: module-level functions
    outside ``__all__`` or private, and private methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            if node.name.startswith("_") or node.name not in srgft.__all__:
                yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and item.name.startswith("_") \
                        and not item.name.endswith("__"):
                    yield item


def test_every_unexported_function_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = [f"{name}:{node.lineno} {node.name}"
                for name, tree in trees.items() for node in _checked_definitions(tree)
                if everywhere[node.name] == _references(node)[node.name]]
    assert not uncalled, uncalled
