"""The README's references to tests name tests that exist."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# `tests/<file>.py::<name>`, or a bare `::<name>` that refers to the last
# file named before it in the same table cell
_REFERENCE = re.compile(r"`(tests/\w+\.py)?::(\w+)`")


def _readme_references() -> list[tuple[str, str]]:
    found = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        for cell in line.split("|"):
            path = None
            for named, test in _REFERENCE.findall(cell):
                path = named or path
                assert path, f"bare ::{test} with no file before it in: {cell.strip()}"
                found.append((path, test))
    return found


def _defs(path: str) -> set[str]:
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"), filename=path)
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_every_test_the_readme_cites_is_defined_in_its_file():
    references = _readme_references()
    assert len(references) >= 11
    missing = [f"{path}::{test}" for path, test in references if test not in _defs(path)]
    assert missing == []
