"""The shape of the package itself, read from its source."""

from __future__ import annotations

import ast
import re
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


def test_readme_library_quick_start_runs(capsys):
    # README's library example runs as written: a run to 1e-3, then the
    # same run continued to 2e-3 from its final state alone
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    block = re.search(r"\n## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    first, longer = namespace["solution"], namespace["longer"]
    assert capsys.readouterr().out.splitlines() == [
        "TimeHorizon 0.0", f"TimeHorizon {len(longer.reports)} 0.0"
    ]
    assert longer.segment_bounds[: len(first.segment_bounds)] == first.segment_bounds
    assert len(longer.reports) == len(longer.segment_bounds) - 1 > len(first.reports)
