"""Runtime dependencies stay at numpy: every import in the package is cdgl,
numpy or the standard library."""

import ast
import sys
from pathlib import Path

import cdgl

ALLOWED = {"cdgl", "numpy"} | set(sys.stdlib_module_names)


def imported_roots(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module; relative imports
    (``from . import x``) stay inside the package."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(Path(cdgl.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    outside = {f"{path.name}: {root}" for path in modules
               for root in imported_roots(path) - ALLOWED}
    assert not outside, sorted(outside)


def test_no_module_imports_ctypes():
    """The package sets no allocator or other C-library state: the fused ops'
    buffer pool is its one memory rule, for the CLI and library callers alike."""
    modules = sorted(Path(cdgl.__file__).parent.glob("*.py"))
    assert not [path.name for path in modules if "ctypes" in imported_roots(path)]


def diffcore_aliases(tree: ast.Module) -> set[str]:
    """Names under which a package module imports ``diffcore``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names if alias.name == "diffcore"}


def test_every_diffcore_op_has_a_caller_in_the_package():
    """No primitive lives in ``diffcore`` for tests alone.

    An op is a module-level function that builds a node through ``_make``.
    It needs a caller in another module of the package, or in a ``diffcore``
    function that has one. Primitives that only tests use belong in
    ``tests/composite_layers.py``.
    """
    package = Path(cdgl.__file__).parent
    core = ast.parse((package / "diffcore.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in core.body if isinstance(node, ast.FunctionDef)}

    def names_in(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    ops = {name for name, node in functions.items() if "_make" in names_in(node)}
    assert {"add", "lstm"} <= ops
    used = set()
    for path in package.glob("*.py"):
        if path.name == "diffcore.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        aliases = diffcore_aliases(tree)
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id in aliases}
    pending = [name for name in used if name in functions]
    while pending:  # what a used diffcore function calls is used too
        for name in names_in(functions[pending.pop()]) & functions.keys() - used:
            used.add(name)
            pending.append(name)
    assert not ops - used, sorted(ops - used)
