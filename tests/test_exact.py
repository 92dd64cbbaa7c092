"""The engine is exact: no module of ``prolong`` holds a float literal,
calls ``float`` or ``complex``, or reads ``math.e`` or ``cmath``.  No
module imports sympy, which only the tests use, as their oracle.  No
module imports another module's private (``_``-prefixed) names, or
``dataclasses``, whose decorators cost the command line's start-up.  The
README's library sketch runs as printed where sympy cannot be
imported."""

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


def _offending(test) -> list:
    modules = sorted(SOURCE.rglob("*.py"))
    assert len(modules) >= 10
    return [
        f"{path.relative_to(SOURCE)}:{node.lineno}: {ast.unparse(node)}"
        for path in modules
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


def _imports_dataclasses(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "dataclasses"


def test_no_module_imports_dataclasses():
    # its decorators generate each class's methods with exec at import time
    assert _offending(_imports_dataclasses) == []


def test_no_module_imports_sympy():
    assert _offending(_imports_sympy) == []


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter, from the repository root, that finds
    this prolong first on its path, and require it to exit cleanly."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SOURCE.parent), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_scalar_of_an_int_or_a_scalar_needs_no_sympy():
    _run_fresh("""
import sys

from prolong.coeff import Scalar, sym

x = sym("x")
assert Scalar(3) == 3 and Scalar(x) is x and Scalar(1 / (x + 1)) == 1 / (x + 1)
assert "sympy" not in sys.modules
""")


def test_the_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    # sympy cannot be imported: the library runs without it
    _run_fresh('import sys\nsys.modules["sympy"] = None\n' + blocks[0])
