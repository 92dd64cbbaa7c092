"""The engine is exact: no module of ``prolong`` holds a float literal,
calls ``float`` or ``complex``, or reads ``math.e`` or ``cmath``.  And
sympy stays behind the scalar core: only ``coeff`` imports it."""

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


def _imports_sympy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "sympy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "sympy"
    return False


def _offending(test, skip: str = "") -> list:
    modules = sorted(SOURCE.rglob("*.py"))
    assert len(modules) >= 10
    return [
        f"{path.relative_to(SOURCE)}:{node.lineno}: {ast.unparse(node)}"
        for path in modules if path.name != skip
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if test(node)
    ]


def test_no_module_uses_floating_point():
    assert _offending(_inexact) == []


def test_only_the_scalar_core_imports_sympy():
    assert _offending(_imports_sympy, skip="coeff.py") == []
