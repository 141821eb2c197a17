"""Every module of the package uses what it imports, and every private
module-level helper is used somewhere in the package."""

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


def unused_private_definitions(paths: list) -> list:
    """Module-level private functions and classes that no module refers to."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    return [f"{path.name}:{node.lineno} {node.name}" for path, tree in trees.items()
            for node in tree.body if isinstance(node, defs)
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]


def test_no_unused_private_definitions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert unused_private_definitions(modules) == []


def test_unused_private_definition_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def _kept():\n    pass\n\n\ndef _orphan():\n    return _kept()\n")
    assert unused_private_definitions([module]) == ["m.py:5 _orphan"]


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport numpy as np\nfrom csv import writer, reader\n\n"
                      "def f():\n    return np.zeros(1), writer\n")
    assert unused_imports(module) == ["m.py:1 os", "m.py:3 reader"]
