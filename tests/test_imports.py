"""Every module of the package uses what it imports."""

import ast
from pathlib import Path

import nhchain

PACKAGE = Path(nhchain.__file__).parent


def unused_imports(path: Path) -> list:
    """Names a module imports and never refers to."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # __init__.py imports in order to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 6
    assert [u for p in modules for u in unused_imports(p)] == []
