"""The engine is exact: no module of ``prolong`` holds a float literal,
calls ``float`` or ``complex``, or reads ``math.e`` or ``cmath``."""

from __future__ import annotations

import ast
from pathlib import Path

import prolong

SOURCE = Path(prolong.__file__).resolve().parent


def _inexact(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("float", "complex")
    if isinstance(node, ast.Attribute):
        return node.attr == "e" and isinstance(node.value, ast.Name) and node.value.id == "math"
    if isinstance(node, ast.Import):
        return any(alias.name == "cmath" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "cmath" or (
            node.module == "math" and any(alias.name == "e" for alias in node.names))
    return False


def test_no_module_uses_floating_point():
    modules = sorted(SOURCE.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}: {ast.unparse(node)}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _inexact(node)
    ]
    assert found == []
