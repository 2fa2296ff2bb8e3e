"""The runtime depends on the standard library and numpy only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "playtrace").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
# module-level definitions that src/ itself need not use: public API for bench/ and the tests
UNUSED_IN_SRC = {"scenes.benchmark_scene"}
# the names through which JSON text can be decoded, besides json.load and json.loads
_DECODER_NAMES = {"JSONDecoder", "raw_decode", "scan_once", "make_scanner", "py_make_scanner",
                  "c_make_scanner"}
_JSON_MODULES = {"json", "json.decoder", "json.scanner", "_json"}


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


def test_every_src_definition_is_used_in_src():
    """Each module-level def or class is named in src/ code outside its own definition.

    Names count in code only (a Name, an attribute or an imported name), so a
    docstring or a comment that mentions a definition does not keep it alive.
    """
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined: set[str] = set()
    uses: set[tuple[str, str | None]] = set()   # (name, the definition it appears in, if any)
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            inside = None
            if isinstance(top, definitions):
                inside = f"{path.stem}.{top.name}"
                defined.add(inside)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.add((node.id, inside))
                elif isinstance(node, ast.Attribute):
                    uses.add((node.attr, inside))
                elif isinstance(node, ast.alias):
                    uses.add((node.name, inside))
    unused = {
        qualified for qualified in defined
        if not any(name == qualified.rsplit(".", 1)[1] and inside != qualified
                   for name, inside in uses)
    }
    assert unused <= UNUSED_IN_SRC, sorted(unused - UNUSED_IN_SRC)


def test_json_is_decoded_only_in_jsonin_and_the_trace_line_reader():
    """One entry point for JSON input: jsonin, and the trace reader's line decoder.

    A decoder is json.load or json.loads, the JSONDecoder class, or its
    raw_decode or scan_once, by any name, or an import from a json module.
    """
    decoders = []   # (module, top-level definition, what) of each decoder used
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                        and isinstance(node.value, ast.Name) and node.value.id == "json"):
                    what = f"json.{node.attr}"
                elif isinstance(node, ast.Attribute) and node.attr in _DECODER_NAMES:
                    what = node.attr
                elif isinstance(node, ast.Name) and node.id in _DECODER_NAMES:
                    what = node.id
                elif isinstance(node, ast.ImportFrom) and node.module in _JSON_MODULES:
                    what = f"from {node.module}"
                elif isinstance(node, ast.Import) and _JSON_MODULES.intersection(
                        alias.name for alias in node.names) - {"json"}:
                    what = "import"
                else:
                    continue
                decoders.append((path.stem, getattr(top, "name", None), what))
    assert sorted(d for d in decoders if d[0] != "jsonin") == [
        ("trace", "_trace_objects", "JSONDecoder"),
        ("trace", "_trace_objects", "json.loads"),
        ("trace", "_trace_objects", "raw_decode"),
    ]
    assert ("jsonin", "load_json", "json.loads") in decoders
