"""The shape of the package itself, read from its source."""

from __future__ import annotations

import ast
from pathlib import Path

import semiflrw

PACKAGE = Path(semiflrw.__file__).parent


def reads(node: ast.AST, name: str) -> bool:
    """Whether node reads name, as a bare name or an attribute."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.Attribute) and node.attr == name


def test_every_public_name_is_exported_or_read_by_the_package():
    # a public top-level function or class that __all__ does not export is
    # there for the package's own code, which must read it outside its own
    # definition; one that only tests read belongs with the tests
    paths = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    unread = []
    for path, tree in zip(paths, trees):
        for definition in tree.body:
            if (not isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                    or definition.name.startswith("_")
                    or definition.name in semiflrw.__all__):
                continue
            own = set(map(id, ast.walk(definition)))
            if not any(
                id(node) not in own and reads(node, definition.name)
                for other in trees for node in ast.walk(other)
            ):
                unread.append(f"{path.stem}.{definition.name}")
    assert unread == []
