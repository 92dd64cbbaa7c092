"""A catalogue of mutants: each check of the engine must be able to fail.

A mutant is one exact text replacement in ``src/prolong``: its anchor
text, which must occur there exactly once, and what replaces it.  Each
lists the tests expected to kill it, and a mutant known to survive says
why.  A survivor stays listed with its cause; it is never deleted to make
a run clean.

Run as a script, it copies the repository to a temporary directory, runs
the whole suite there once unmutated, then once per mutant with the
replacement applied, and prints ``killed`` (with the tests that newly
fail) or ``survived``.  The whole suite runs every time, because targeted
subsets have missed mutants.  A run takes about half a minute per mutant
on two cores::

    python tests/mutants.py                 # every mutant
    python tests/mutants.py NAME [NAME...]  # the named mutants only

It needs only the standard library, pytest and the test dependencies.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prolong"

# name -> (module under src/prolong, anchor, replacement, expected killers, cause of survival)
MUTANTS = {
    "surface-res3-zero": (
        "su2.py",
        "res3 = d_omega + curvature * area",
        "res3 = d_omega * 0",
        (),
        "res3 = d_omega - (d_omega/area)*area is zero by construction, so no test can tell "
        "it from 0: surface decides ok from structure-3 alone (ROADMAP item 1)",
    ),
    "reduce-skips-high-x-order": (
        "jets.py",
        "if rule is None or nx < rule[0] or nt < rule[1]:",
        "if rule is None or nx < rule[0] or nt < rule[1] or nx > 2:",
        ("tests/test_golden.py::test_report_matches_golden[conserve-fixture-kdv-order-7]",),
        None,
    ),
    "reduce-skips-re-reducing-a-t-step": (
        "jets.py",
        'cache[key] = normal(total_derivative(image(var, nx, nt - 1), "t", deps))',
        'cache[key] = total_derivative(image(var, nx, nt - 1), "t", deps)',
        ("tests/test_jets.py::test_reduce_second_t_derivative",),
        None,
    ),
    "reduce-skips-re-reducing-an-x-step": (
        "jets.py",
        'cache[key] = normal(total_derivative(image(var, nx - 1, nt), "x", deps))',
        'cache[key] = total_derivative(image(var, nx - 1, nt), "x", deps)',
        ("tests/test_jets.py::test_reduce_modulo_a_leader_above_the_first_t_derivative",),
        None,
    ),
    "solve-drops-the-same-variable-guard": (
        "jets.py",
        "all(v == var for v, _, nt in jets.values() if nt)\n                and ",
        "",
        ("tests/test_jets.py::test_solve_evolution_refuses_a_t_derivative_of_another_variable",),
        None,
    ),
}


def anchor_count(anchor: str, package: Path = PACKAGE) -> int:
    """How often the anchor occurs in src/prolong, over all of its modules."""
    return sum(path.read_text(encoding="utf-8").count(anchor) for path in package.glob("*.py"))


def failures(copy: Path) -> set:
    """The ids of the tests that fail in the copy, apart from the anchor
    test of this catalogue, which every mutant fails by construction."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           "--ignore", "tests/test_mutants.py"],
                          cwd=copy, env=env, capture_output=True, text=True)
    return set(re.findall(r"^FAILED (\S+)", done.stdout, re.MULTILINE))


def main(argv: list) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", "__pycache__", ".pytest_cache", ".bench_out"))
        baseline = failures(copy)
        print(f"unmutated: {len(baseline)} failing: {', '.join(sorted(baseline)) or '-'}",
              flush=True)
        for name in argv or MUTANTS:
            module, anchor, replacement, killers, cause = MUTANTS[name]
            target = copy / "src" / "prolong" / module
            original = target.read_text(encoding="utf-8")
            if anchor_count(anchor) != 1 or anchor not in original:
                print(f"{name}: anchor does not occur exactly once, in {module}", flush=True)
                continue
            target.write_text(original.replace(anchor, replacement), encoding="utf-8")
            try:
                killed = failures(copy) - baseline
            finally:
                target.write_text(original, encoding="utf-8")
            if killed:
                missed = [k for k in killers if k not in killed]
                note = f"; expected killers that passed: {', '.join(missed)}" if missed else ""
                print(f"{name}: killed by {len(killed)}: {', '.join(sorted(killed)[:4])}{note}",
                      flush=True)
            else:
                print(f"{name}: survived ({cause or 'no recorded cause'})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
