"""Rewrite the golden reports from the current code, or compare them.

    python tests/golden/update.py            # rewrite every report
    python tests/golden/update.py --check    # compare only, write nothing

Run it without ``--check`` only for an intended behaviour change, and
declare every changed golden byte in CHANGES.md.  ``--check`` prints
``same`` or ``changed`` for each file (a stale file, which no case writes,
counts as changed) and exits 1 on any change.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS.parent / "src"))
sys.path.insert(0, str(TESTS))

from test_golden import CASES, GOLDEN, golden_path, render  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="print same or changed per file, write nothing, exit 1 on any change")
    check = parser.parse_args(argv).check
    stale = set(GOLDEN.glob("*.json")) - {golden_path(argv) for argv in CASES}
    for path in sorted(stale):
        print(f"changed {path.name}" if check else f"removed {path.name}")
        if not check:
            path.unlink()
    any_changed = bool(stale)
    for argv in CASES:
        path = golden_path(argv)
        text = render(argv)
        changed = not path.exists() or path.read_text(encoding="utf-8") != text
        any_changed |= changed
        if check:
            print(f"{'changed' if changed else 'same   '} {path.name}")
        else:
            GOLDEN.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"{'wrote ' if changed else 'same  '} {path.name}")
    return 1 if check and any_changed else 0


if __name__ == "__main__":
    sys.exit(main())
