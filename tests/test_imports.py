"""Every module of the package uses what it imports, only `model` imports
scipy.sparse, `dynamics` imports no scipy, every private module-level helper is used somewhere in the
package, and every public name and every optional parameter is used by
code outside the tests."""

import ast
from pathlib import Path

import nhchain

PACKAGE = Path(nhchain.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


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


def module_users(path: Path, module: str) -> list:
    """The lines of a module that import `module` (or one of its submodules),
    a name from it, or reach it as an attribute such as scipy.sparse."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:     # not the package's own
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(f"{name}.".startswith(f"{module}.") for name in names):
            lines.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_only_model_knows_the_sparse_storage():
    # model decides how a Hamiltonian is stored; every other module reads
    # the entries through HamiltonianMatrix.dense() or .csr()
    others = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "model.py"]
    assert len(others) >= 6 and module_users(PACKAGE / "model.py", "scipy.sparse")
    assert [u for p in others for u in module_users(p, "scipy.sparse")] == []


def test_sparse_user_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import scipy\nimport scipy.sparse.linalg\nfrom scipy import sparse, linalg\n"
                      "from scipy.sparse import csr_matrix\nfrom scipy import sparsetools\n"
                      "from . import sparse_like\n\nx = scipy.sparse.eye(2)\n")
    assert module_users(module, "scipy.sparse") == ["m.py:2", "m.py:3", "m.py:4", "m.py:8"]


def test_the_krylov_step_imports_no_scipy():
    # a BLAS call through scipy's own OpenBLAS pool made a Krylov step 5-18x
    # slower at default threads (ROADMAP, Parked): dynamics uses numpy alone
    assert module_users(PACKAGE / "spectral.py", "scipy")
    assert module_users(PACKAGE / "dynamics.py", "scipy") == []


def test_scipy_user_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import scipy_like\nimport scipy.linalg as sl\nfrom scipy import linalg\n"
                      "from .scipy import x\nimport numpy\n\ny = scipy.linalg.expm(1)\n")
    assert module_users(module, "scipy") == ["m.py:2", "m.py:3", "m.py:7"]


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


def unreferenced_names(names, paths: list) -> list:
    """The names that no top-level statement of `paths` refers to, other
    than the statement defining the name itself.  A reference is a name,
    an attribute, an imported name or a component of an imported module."""
    referenced = set()
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.Import):
                    refs.update(part for alias in node.names for part in alias.name.split("."))
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
                    refs.update((node.module or "").split("."))
            refs.discard(getattr(stmt, "name", None))
            referenced |= refs
    return sorted(set(names) - referenced)


def test_every_public_name_is_used_outside_the_tests():
    # __init__.py only re-exports; the program, the benchmark and the demos must use each name
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert len(paths) > len(list(PACKAGE.glob("*.py")))
    assert unreferenced_names(nhchain.__all__, paths) == []


def test_unreferenced_name_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from pkg import imported\nimport pkg.sub\n\n\n"
                      "def recursive(n):\n    return recursive(n - 1) if n else pkg.attr\n")
    names = ["imported", "sub", "attr", "recursive", "absent"]
    assert unreferenced_names(names, [module]) == ["absent", "recursive"]


def unpassed_parameters(defined_in: list, called_in: list) -> list:
    """The optional parameters of functions defined in `defined_in` that
    no call in `called_in` passes, by keyword or by position.  A call
    `f(...)` or `x.f(...)` counts for every function named f; a method's
    position skips self, a `*args` passes every positional parameter and
    a `**kwargs` every keyword."""
    positional, keywords = {}, {}      # function name -> largest positional count, names passed
    for path in called_in:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                n = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                positional[name] = max(positional.get(name, 0), n)
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    unpassed = []
    for path in defined_in:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args
            skip = 1 if params and params[0].arg in ("self", "cls") else 0
            first = len(params) - len(a.defaults)
            optional = [(i - skip, p.arg) for i, p in enumerate(params) if i >= first]
            optional += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            passed = keywords.get(node.name, set())
            unpassed += [f"{path.name}:{node.lineno} {node.name}({p}=)" for i, p in optional
                         if p not in passed and None not in passed
                         and (i is None or positional.get(node.name, 0) <= i)]
    return unpassed


def test_every_optional_parameter_is_passed_outside_the_tests():
    # a default that only tests override is a setting the program never uses
    modules = sorted(PACKAGE.glob("*.py"))
    callers = modules + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert unpassed_parameters(modules, callers) == []


def test_unpassed_parameter_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
        "def g(x=0, y=0):\n    pass\n\n\n"
        "class K:\n    def m(self, z=0, w=0):\n        pass\n\n\n"
        "def h(s=0, t=0):\n    pass\n\n\n"
        "f(0, 1, e=5)\ng(*[1, 2])\nK().m(1)\nh(**{})\n")
    assert unpassed_parameters([module], [module]) == ["m.py:1 f(c=)", "m.py:1 f(d=)", "m.py:10 m(w=)"]
