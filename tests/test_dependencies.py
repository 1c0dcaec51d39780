"""The package imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []`` and the benchmark runs
``src/`` uninstalled, so a third-party import would break both.  Nor does
it import the heavy introspection modules of the standard library.
"""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import oddramsey

from conftest import readme_usage_lines

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


def test_package_parses_as_python_3_10():
    # requires-python is >=3.10: no module may use later syntax.
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


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
    # tokenize behind inspect) would cost each run their import time, as
    # would argparse and the gettext and locale it loads to build a parser.
    # -S keeps site-packages .pth hooks, which may import anything, out of it.
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert len(names) >= 8
    commands = [
        shlex.split(re.sub(r"[][]", "", line).split(">")[0], comments=True)[1:]
        for line in readme_usage_lines()
    ]
    assert len(commands) == 8
    heavy = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    code = (
        "import importlib, sys\n"
        f"for m in {names!r}: importlib.import_module('oddramsey.' + m)\n"
        f"for argv in {commands!r}: sys.modules['oddramsey.cli'].parse_args(argv)\n"
        f"print(sorted({heavy!r} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def _loads_hamilton(argv: list[str]) -> bool:
    """Run one CLI command in a fresh -S child; whether it imported hamilton."""
    code = (
        "import contextlib, io, sys\n"
        "from oddramsey import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({argv!r})\n"
        "print(status, 'oddramsey.hamilton' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    status, loaded = out.stdout.split()
    assert status == "0", (argv, out.stdout)
    return loaded == "True"


def test_verify_and_generators_do_not_load_hamilton(tmp_path):
    # verify cycles walks its own table, and the generators build colorings
    # only: none of them may pay for compiling and importing hamilton.
    from oddramsey.colored_graph import instance_to_json
    from oddramsey.constructions import random_coloring

    inst = tmp_path / "k9.json"
    inst.write_text(instance_to_json(random_coloring(9, 2, 1)), encoding="utf-8")
    commands = [
        ["gen", "random", "--n", "9", "--r", "2", "--seed", "1"],
        ["construct", "unique-upper", "--n", "10"],
    ] + [
        ["verify", "cycles", "--input", str(inst), "--predicate", predicate]
        for predicate in ("odd-chromatic", "even-chromatic", "has-unique-color")
    ]
    for argv in commands:
        assert not _loads_hamilton(argv), argv
    # the exact oracle lists Hamilton cycles, so it still imports it
    assert _loads_hamilton(["oracle", "exact", "--n", "5", "--mode", "unique", "--r", "2"])
