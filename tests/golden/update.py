"""Rewrite the golden reports from the current code.

    python tests/golden/update.py

Run it only for an intended behaviour change, and declare every changed
golden byte in CHANGES.md.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS.parent / "src"))
sys.path.insert(0, str(TESTS))

from test_golden import CASES, GOLDEN, golden_path, render  # noqa: E402


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for stale in set(GOLDEN.glob("*.json")) - {golden_path(argv) for argv in CASES}:
        stale.unlink()
    for argv in CASES:
        path = golden_path(argv)
        text = render(argv)
        changed = not path.exists() or path.read_text(encoding="utf-8") != text
        path.write_text(text, encoding="utf-8")
        print(f"{'wrote ' if changed else 'same  '} {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
