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
subsets have missed mutants.  A run takes about a minute per mutant on
two cores::

    python tests/mutants.py                 # every mutant
    python tests/mutants.py NAME [NAME...]  # the named mutants only

It exits 1 when an anchor is missing, a listed killer passes, or a
mutant survives that lists killers or has no recorded cause; 0 when every
survivor is one with a recorded cause; 2 on an unknown name.

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
        ("tests/test_jets.py::test_reduce_modulo_a_leader_above_the_first_t_derivative",
         "tests/test_jets.py::test_derivatives_of_an_equation_reduce_to_zero_modulo_its_own_rule"
         "[peakon]"),
        None,
    ),
    "solve-drops-the-same-variable-guard": (
        "jets.py",
        "all(v == var for v, _, nt in jets.values() if nt)\n                and ",
        "",
        ("tests/test_jets.py::test_solve_evolution_refuses_a_t_derivative_of_another_variable",
         "tests/test_cli.py::test_laxcheck_on_a_section_without_a_rule_is_unsupported"
         "[t-derivatives-of-two-fields]"),
        None,
    ),
    "solve-drops-the-solved-variable-test": (
        "jets.py",
        "\n                and all(split_jet(k)[0] != var for k in rules)",
        "",
        ("tests/test_jets.py::test_solve_evolution_leaves_a_second_equation_for_a_solved_variable",),
        None,
    ),
    "solve-ignores-fields": (
        "jets.py",
        "all(jets[s][0] not in fields for s in slope.free_symbols() if s in jets)",
        "all(jets[s][0] not in () for s in slope.free_symbols() if s in jets)",
        ("tests/test_jets.py::test_solve_evolution_leaves_an_equation_whose_slope_holds_a_field",
         "tests/test_jets.py::test_solve_evolution_refuses_a_leader_with_a_jet_in_its_coefficient",
         "tests/test_cli.py::test_laxcheck_on_a_section_without_a_rule_is_unsupported"
         "[slope-holds-a-field]"),
        None,
    ),
    "stage-skips-earlier-rules": (
        "jets.py",
        "rhs = reduce_mod_evolution(rhs, self)",
        "rhs = Scalar(rhs)",
        ("tests/test_jets.py::test_the_constructor_stages_each_right_side_modulo_the_rules_before_it",
         "tests/test_jets.py::test_a_cycle_of_rules_is_refused_at_the_rule_that_closes_it",
         "tests/test_we.py::test_section_cyclic_elimination_rejected"),
        None,
    ),
    "euler-drops-the-t-derivative-check": (
        "jets.py",
        "if parts[2] > 0:\n                raise ValueError",
        "if False:\n                raise ValueError",
        ("tests/test_jets.py::test_euler_rejects_t_derivatives_of_deps_only",
         "tests/test_jets.py::test_a_total_derivative_certificate_refuses_t_derivatives_of_deps"),
        None,
    ),
    "d-drops-the-direction-skip": (
        "forms.py",
        "if idx not in mono:  # else its wedge with mono vanishes",
        "if True:",
        ("tests/test_forms.py::test_d_skips_the_directions_already_in_a_monomial",
         "tests/test_forms.py::test_d_on_the_free_dga_skips_the_direction_already_in_a_monomial"),
        None,
    ),
    "stated-ok-ignores-reexpansions": (
        "su2.py",
        "return all(f.is_zero for f in (*self.residuals, *self.reexpansions))",
        "return all(f.is_zero for f in self.residuals)",
        ("tests/test_su2.py::test_an_identity_whose_decomposition_does_not_reexpand_fails[xi1]",
         "tests/test_su2.py::test_an_identity_whose_decomposition_does_not_reexpand_fails[xi7]"),
        None,
    ),
    "tokenize-skips-unexpected-characters": (
        "dsl.py",
        'raise DslError(f"unexpected character {m.group()!r}", line, col)',
        "continue",
        ("tests/test_dsl.py::test_a_character_outside_the_language_is_refused_at_its_position"
         "[dollar]",
         "tests/test_dsl.py::test_a_character_outside_the_language_is_refused_at_its_position"
         "[e-acute-after-a-comment-line]"),
        None,
    ),
    "back-substitution-drops-solved-unknowns": (
        "linsolve.py",
        "value = value - row[j] * solved[j]",
        "value = value",
        ("tests/test_linsolve.py::test_unique_solution",
         "tests/test_linsolve.py::test_each_right_hand_side_solves_as_if_alone",
         "tests/test_golden.py::test_report_matches_golden[closure-fixture-ch]",
         "tests/test_acceptance.py::test_criterion_6_closure_with_witnesses"),
        None,
    ),
    "heugcd-point-fixed-at-3": (
        "coeff.py",
        "x = max(min(bound, 99 * isqrt(bound)), 4 * min(root_bound(f), root_bound(g)) + 4)",
        "x = 3",
        ("tests/test_coeff.py::test_cofactors_of_real_polynomials_as_sympys",),
        None,
    ),
    "prs-skips-the-last-primitive-part": (
        "coeff.py",
        "return _times(common, _poly_quotient(g, _content(g, j)), _add_exponents)",
        "return _times(common, g, _add_exponents)",
        ("tests/test_coeff.py::test_prs_fallback_cofactors_as_sympys[real]",
         "tests/test_coeff.py::test_prs_fallback_cofactors_as_sympys[gaussian]"),
        None,
    ),
}


def anchor_count(anchor: str, package: Path = PACKAGE) -> int:
    """How often the anchor occurs in src/prolong, over all of its modules."""
    return sum(path.read_text(encoding="utf-8").count(anchor) for path in package.glob("*.py"))


def anchored(name: str) -> bool:
    """Whether the mutant's anchor occurs exactly once in src/prolong, in
    the module it names."""
    module, anchor = MUTANTS[name][:2]
    return anchor_count(anchor) == 1 and anchor in (PACKAGE / module).read_text(encoding="utf-8")


def failures(copy: Path) -> set:
    """The ids of the tests that fail in the copy, apart from the anchor
    test of this catalogue, which every mutant fails by construction."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           "--ignore", "tests/test_mutants.py"],
                          cwd=copy, env=env, capture_output=True, text=True)
    return set(re.findall(r"^FAILED (\S+)", done.stdout, re.MULTILINE))


def verdict(name: str, killed: set) -> tuple:
    """(the line to print, whether the result is as catalogued) for a
    mutant whose run newly failed the tests killed."""
    _, _, _, killers, cause = MUTANTS[name]
    if not killed:
        return f"{name}: survived ({cause or 'no recorded cause'})", bool(cause) and not killers
    missed = [k for k in killers if k not in killed]
    note = f"; expected killers that passed: {', '.join(missed)}" if missed else ""
    return f"{name}: killed by {len(killed)}: {', '.join(sorted(killed)[:4])}{note}", not missed


def main(argv: list) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
        return 2
    names, status = [], 0
    for name in argv or MUTANTS:
        if anchored(name):
            names.append(name)
        else:
            print(f"{name}: anchor does not occur exactly once, in {MUTANTS[name][0]}", flush=True)
            status = 1
    if not names:
        return status
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", "__pycache__", ".pytest_cache", ".bench_out"))
        baseline = failures(copy)
        print(f"unmutated: {len(baseline)} failing: {', '.join(sorted(baseline)) or '-'}",
              flush=True)
        for name in names:
            module, anchor, replacement, _, _ = MUTANTS[name]
            target = copy / "src" / "prolong" / module
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(anchor, replacement), encoding="utf-8")
            try:
                killed = failures(copy) - baseline
            finally:
                target.write_text(original, encoding="utf-8")
            line, as_catalogued = verdict(name, killed)
            print(line, flush=True)
            status = status if as_catalogued else 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
