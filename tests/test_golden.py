"""Golden reports: every verb run of the benchmark workloads, plus the red
``conserve --order 5`` control and the failing ``laxcheck --fixture ch``,
must reproduce its stored JSON report byte for byte, apart from the
``wall_ms`` timing field.

A change that alters any golden byte changes behaviour.  Rewrite the files
with ``python tests/golden/update.py`` and declare the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import difflib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from prolong.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# The ch ideal with its xi2 generator left out: the negative control of
# closure.  It is written to a temporary directory and named by a relative
# path, so the report's command is the same on every machine.
CH_WITHOUT_XI2 = "ch-without-xi2.eds"

CASES = (
    ("verify-su2", "--all", "--fixture", "su2_dga"),
    ("gauge",),
    ("theta", "--fixture", "kdv"),
    ("theta", "--fixture", "akns_generic"),
    ("densities", "--fixture", "akns_generic", "--order", "7"),
    ("conserve", "--fixture", "kdv", "--order", "7"),
    ("conserve", "--fixture", "kdv", "--order", "5"),
    ("laxcheck", "--fixture", "kdv"),
    ("surface", "--fixture", "kdv"),
    ("closure", "--fixture", "ch"),
    ("closure", "--fixture", "kdv_ideal"),
    ("closure", CH_WITHOUT_XI2),
    ("section", "--fixture", "ch"),
    ("section", "--fixture", "kdv_ideal"),
    ("prolong", "--fixture", "ch"),
    ("prolong", "--fixture", "kdv_ideal"),
    ("laxcheck", "--fixture", "kdv_ideal"),
    ("laxcheck", "--fixture", "ch"),
    ("section", "--fixture", "ch", "--beta", "2"),
    ("prolong", "--fixture", "ch", "--beta", "2"),
    ("section", "--fixture", "ch", "--beta", "4/9"),
    ("prolong", "--fixture", "ch", "--beta", "4/9"),
)


def golden_path(argv: tuple) -> Path:
    slug = re.sub(r"[^A-Za-z0-9_.]+", "-", " ".join(argv)).strip("-")
    return GOLDEN / f"{slug}.json"


def _write_ch_without_xi2(directory: Path) -> None:
    text = resources.files("prolong").joinpath("fixtures/ch.eds").read_text(encoding="utf-8")
    lines = text.splitlines()
    kept = [line for line in lines if not line.strip().startswith("xi2 =")]
    assert len(kept) == len(lines) - 1, "ch.eds has no single line defining xi2"
    (directory / CH_WITHOUT_XI2).write_text("\n".join(kept) + "\n", encoding="utf-8")


def render(argv: tuple) -> str:
    """The JSON report of one CLI run without ``wall_ms``, as stored."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_ch_without_xi2(directory)
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                main([*argv, "--json", "report.json"])
            report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
        finally:
            os.chdir(cwd)
    del report["wall_ms"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: golden_path(argv).stem)
def test_report_matches_golden(argv):
    path = golden_path(argv)
    expected = path.read_text(encoding="utf-8")
    actual = render(argv)
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"{path.name} (golden)",
                tofile=f"{path.name} (current)",
            )
        )
        pytest.fail(
            f"report of `prolong {' '.join(argv)}` differs from its golden file; "
            f"if the change is intended, run `python tests/golden/update.py` and "
            f"declare it in CHANGES.md\n{diff}"
        )


def test_every_golden_file_has_a_case():
    assert sorted(GOLDEN.glob("*.json")) == sorted(golden_path(argv) for argv in CASES)


def test_update_check_compares_without_writing(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("golden_update", GOLDEN / "update.py")
    update = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(update)
    case = ("gauge",)
    path = tmp_path / golden_path(case).name
    monkeypatch.setattr(update, "CASES", (case,))
    monkeypatch.setattr(update, "GOLDEN", tmp_path)
    monkeypatch.setattr(update, "golden_path", lambda argv: tmp_path / golden_path(argv).name)
    path.write_text("{}\n", encoding="utf-8")
    assert update.main(["--check"]) == 1
    assert capsys.readouterr().out == f"changed {path.name}\n"
    assert path.read_text(encoding="utf-8") == "{}\n"
    path.write_text(render(case), encoding="utf-8")
    assert update.main(["--check"]) == 0
    assert capsys.readouterr().out == f"same    {path.name}\n"
    (tmp_path / "stale.json").write_text("{}\n", encoding="utf-8")
    assert update.main(["--check"]) == 1
    assert capsys.readouterr().out.startswith("changed stale.json\n")
    assert (tmp_path / "stale.json").exists()


def test_conserve_order_5_golden_stays_red():
    report = json.loads(golden_path(("conserve", "--fixture", "kdv", "--order", "5")).read_text())
    assert report["ok"] is False
    (failed,) = [item for item in report["items"] if item["status"] == "failed"]
    assert failed["name"] == "n=5"
    assert failed["witness"] == {"q": "-9*q_x*q_xx/2"}


# Run in a fresh interpreter: a module imported by an earlier test (sympy
# itself, for one) would hide what a verb imports on its own.
_WITHOUT_SYMPY = """
import sys

import prolong.cli

assert "sympy" not in sys.modules, "import prolong.cli imports sympy"
from test_golden import CASES, golden_path, render

for argv in CASES:
    try:
        if render(argv) != golden_path(argv).read_text(encoding="utf-8"):
            print(f"{golden_path(argv).stem}: report differs from its golden file")
        elif "sympy" in sys.modules:
            print(f"{golden_path(argv).stem}: sympy is imported after this verb")
    except Exception as exc:
        print(f"{golden_path(argv).stem}: {type(exc).__name__}: {exc}")
assert "sympy" not in sys.modules
"""


@pytest.fixture(scope="module")
def problems_without_sympy() -> dict:
    """{case: what went wrong} over every case, run in one fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", _WITHOUT_SYMPY], cwd=Path(__file__).parent,
                            env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    return dict(line.split(": ", 1) for line in result.stdout.splitlines())


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: golden_path(argv).stem)
def test_golden_without_cancel_or_powsimp(argv, problems_without_sympy):
    """The engine reduces, solves, takes gcds and prints on its own stored
    polynomial pairs, so a verb run reproduces its golden report with
    sympy never imported: not by ``import prolong.cli``, not by any verb
    (which leaves no room for sympy's cancel, powsimp or printer)."""
    assert golden_path(argv).stem not in problems_without_sympy, (
        problems_without_sympy[golden_path(argv).stem])
