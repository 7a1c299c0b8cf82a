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


def _private_definitions(tree):
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_library_private_helpers_have_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    orphaned = {name: found for name, tree in trees.items()
                if (found := sorted((line, helper) for helper, line
                                    in _private_definitions(tree).items()
                                    if helper not in referenced))}
    assert not orphaned, f"private helpers no library module references (line, name): {orphaned}"


PERFBENCH = SOURCE.parents[1] / "perfbench"


def _public_definitions(tree):
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            found.update((t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name))
    return {name: line for name, line in found.items() if not name.startswith("_")}


# Kept without a caller: the DS margin it reports is to join the Table 2
# diagnostics (ROADMAP item 3).
UNCALLED_PUBLIC = {"check_ds"}


def test_library_public_names_have_a_caller():
    # __init__.py re-exports every name, so it does not count as a caller;
    # the benchmark workloads do.
    library = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))
               if path.name != "__init__.py"}
    callers = [*library.values(),
               *(ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py")))]
    referenced = set().union(UNCALLED_PUBLIC, *map(_referenced_names, callers))
    orphaned = {name: found for name, tree in library.items()
                if (found := sorted((line, public) for public, line
                                    in _public_definitions(tree).items()
                                    if public not in referenced))}
    assert not orphaned, f"public names only the tests reference (line, name): {orphaned}"
