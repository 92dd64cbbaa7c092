"""The engine is exact: no module of ``prolong`` holds a float literal,
calls ``float`` or ``complex``, or reads ``math.e`` or ``cmath``.  And
sympy stays at the scalar core's boundary: only functions of ``coeff``
import it, on first use.  No module imports another module's private
(``_``-prefixed) names.  The README's library sketch runs as printed."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import prolong

SOURCE = Path(prolong.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


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


def _imports_a_private_name(node: ast.AST) -> bool:
    return (isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "prolong")
            and any(alias.name.startswith("_") for alias in node.names))


def test_no_module_imports_a_private_name_of_another():
    assert _offending(_imports_a_private_name) == []


def _at_import(tree: ast.AST):
    """The nodes of tree that run when the module is imported: all but
    the bodies of functions."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _at_import(node)


def test_only_the_scalar_core_imports_sympy():
    assert _offending(_imports_sympy, skip="coeff.py") == []
    core = ast.parse((SOURCE / "coeff.py").read_text(encoding="utf-8"))
    assert [ast.unparse(node) for node in _at_import(core) if _imports_sympy(node)] == []


# prolong is imported before sympy, so the boundary finds sympy only once
# the caller has imported it.
_BOUNDARY = """
import sys

from prolong import Scalar, exp_atom
from prolong.coeff import sym

assert "sympy" not in sys.modules
import sympy as sp

assert Scalar(sp.Symbol("x") + sp.E) == sym("x") + exp_atom(1)
assert Scalar.of(2) * sp.Integer(3) == Scalar.of(6) == sp.Integer(3) * Scalar.of(2)
value = (sym("x") + 2 * exp_atom(sym("y") / 3)) / (sym("x") ** 2 - sym("z"))
assert Scalar(value.expr) == value
assert value.expr == (sp.Symbol("x") + 2 * sp.exp(sp.Symbol("y") / 3)) / (
    sp.Symbol("x") ** 2 - sp.Symbol("z"))
"""


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter, from the repository root, that finds
    this prolong first on its path, and require it to exit cleanly."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SOURCE.parent), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_the_boundary_imports_sympy_on_first_use():
    _run_fresh(_BOUNDARY)


def test_scalar_of_an_int_or_a_scalar_needs_no_sympy():
    _run_fresh("""
import sys

from prolong.coeff import Scalar, sym

x = sym("x")
assert Scalar(3) == Scalar.of(3) and Scalar(x) == x and Scalar(1 / (x + 1)) == 1 / (x + 1)
assert "sympy" not in sys.modules
""")


def test_the_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    _run_fresh(blocks[0])
