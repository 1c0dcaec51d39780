"""The package imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []`` and the benchmark runs
``src/`` uninstalled, so a third-party import would break both.  Nor does
it import the heavy introspection modules of the standard library.
"""

import ast
import os
import subprocess
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


def test_no_module_pulls_in_dataclasses_or_inspect():
    # Every CLI run is a fresh process, so these two (and ast, dis and
    # tokenize behind inspect) would cost each run their import time.  -S
    # keeps site-packages .pth hooks, which may import anything, out of it.
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert len(names) >= 8
    code = (
        "import importlib, sys\n"
        f"for m in {names!r}: importlib.import_module('oddramsey.' + m)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
