"""The package imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []`` and the benchmark runs
``src/`` uninstalled, so a third-party import would break both.
"""

import ast
import sys
from pathlib import Path

import oddramsey

PACKAGE = Path(oddramsey.__file__).parent


def _top_level_imports(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    allowed = set(sys.stdlib_module_names) | {"oddramsey"}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        foreign = _top_level_imports(tree) - allowed
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_import_scan_sees_absolute_and_nested_imports():
    tree = ast.parse(
        "import numpy.linalg as la\n"
        "from . import hamilton\n"
        "def f():\n"
        "    from scipy import sparse\n"
    )
    assert _top_level_imports(tree) == {"numpy", "scipy"}
