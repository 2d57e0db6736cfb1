"""Every module of the package uses each name it imports, and every private
module-level name is referenced outside its own definition.

``__init__.py`` is left out of the import check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acpp"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    # annotations are expressions in the tree, so their names count too
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in imported_names(tree).items()
        if name not in used
    ]
    assert not unused, "imported but never used: " + ", ".join(unused)


def private_definitions(tree: ast.Module):
    """``(name, statement)`` for each private function, class and assigned
    constant at module level; dunders are not private."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, stmt


def referenced_names(node: ast.AST) -> set[str]:
    """Names read, attributes accessed and names imported under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    # the names each top-level statement of the package references
    references = [
        (stmt, referenced_names(stmt)) for tree in trees.values() for stmt in tree.body
    ]
    dead = [
        f"{module}:{definition.lineno} {name}"
        for module, tree in trees.items()
        for name, definition in private_definitions(tree)
        # its own definition (a recursive call, say) does not count
        if not any(name in names for stmt, names in references if stmt is not definition)
    ]
    assert not dead, "private names never referenced: " + ", ".join(dead)


def test_guard_sees_modules():
    assert len(MODULES) > 5
    tree = ast.parse((PACKAGE / "constructors.py").read_text())
    assert {"_map_calls", "_check_cores"} <= {name for name, _ in private_definitions(tree)}
