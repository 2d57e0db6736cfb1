"""Every module of the package uses each name it imports.

``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acpp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_guard_sees_modules():
    assert len(MODULES) > 5
