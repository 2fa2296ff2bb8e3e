"""The runtime depends on the standard library and numpy only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "playtrace").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = sorted({name for name in imported if name.split(".")[0] not in ALLOWED})
    assert not outside, f"{path.name} imports {outside}"


def test_sources_found():
    assert len(SOURCES) >= 10


def test_every_exported_name_imports():
    import playtrace

    namespace: dict = {}
    exec("from playtrace import *", namespace)  # an __all__ name that is missing raises here
    assert set(playtrace.__all__) <= set(namespace)
