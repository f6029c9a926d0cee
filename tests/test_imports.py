"""The package runs on the standard library alone."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semistrong"


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of every non-relative import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_of_the_package_is_relative_or_from_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    imported = {name: path.name for path in sources for name in _absolute_imports(path)}
    outside = {name: where for name, where in imported.items() if name not in sys.stdlib_module_names}
    assert outside == {}
    assert {"json", "heapq", "argparse"} <= set(imported)


def test_importing_the_cli_loads_neither_dataclasses_nor_fractions():
    # a fresh interpreter, as every command starts: the two modules and what
    # they import (inspect, ast, decimal, ...) cost more than the package
    code = "import sys; sys.path.insert(0, sys.argv[1]); import semistrong.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "semistrong.cli" in loaded
    assert {"dataclasses", "fractions"} & loaded == set()
