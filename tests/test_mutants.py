"""The mutant catalogue of ``tests/mutants.py`` stays applicable: a
refactor cannot orphan a mutant silently, and a run's exit status says
whether every mutant fared as catalogued."""

from __future__ import annotations

import pytest

import mutants
from mutants import MUTANTS, anchored, verdict


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_anchor_occurs_exactly_once(name):
    _, anchor, replacement, _, _ = MUTANTS[name]
    assert anchored(name)
    assert replacement != anchor


def test_a_survivor_is_as_catalogued_only_with_a_cause_and_no_killers(monkeypatch):
    monkeypatch.setitem(MUTANTS, "uncaused", ("jets.py", "a", "b", (), None))
    assert verdict("surface-res3-zero", set()) == (
        f"surface-res3-zero: survived ({MUTANTS['surface-res3-zero'][4]})", True)
    assert verdict("uncaused", set()) == ("uncaused: survived (no recorded cause)", False)
    assert verdict("reduce-skips-high-x-order", set())[1] is False


def test_a_kill_is_as_catalogued_only_when_every_listed_killer_fails():
    killers = set(MUTANTS["solve-ignores-fields"][3])
    assert verdict("solve-ignores-fields", killers | {"tests/x.py::y"})[1] is True
    line, ok = verdict("solve-ignores-fields", killers - {min(killers)})
    assert not ok and line.endswith(f"expected killers that passed: {min(killers)}")


def test_a_missing_anchor_exits_1_before_any_run(monkeypatch, capsys):
    monkeypatch.setitem(MUTANTS, "orphan", ("jets.py", "no such text", "", (), None))
    monkeypatch.setattr(mutants, "failures", lambda copy: pytest.fail("the suite ran"))
    assert mutants.main(["orphan"]) == 1
    assert capsys.readouterr().out == "orphan: anchor does not occur exactly once, in jets.py\n"
    assert mutants.main(["no-such-mutant"]) == 2
