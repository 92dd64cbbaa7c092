"""The mutant catalogue of ``tests/mutants.py`` stays applicable: a
refactor cannot orphan a mutant silently."""

from __future__ import annotations

import pytest

from mutants import MUTANTS, PACKAGE, anchor_count


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_anchor_occurs_exactly_once(name):
    module, anchor, replacement, _, _ = MUTANTS[name]
    assert anchor_count(anchor) == 1
    assert anchor in (PACKAGE / module).read_text(encoding="utf-8")
    assert replacement != anchor
