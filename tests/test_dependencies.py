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
