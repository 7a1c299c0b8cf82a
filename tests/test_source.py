"""Checks on the library source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "specsamp"


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_library_modules_use_every_import():
    # __init__.py imports only to re-export.
    unused = {path.name: found for path in sorted(SOURCE.glob("*.py"))
              if path.name != "__init__.py"
              and (found := _unused_imports(ast.parse(path.read_text())))}
    assert not unused, f"imported but never used (line, name): {unused}"
