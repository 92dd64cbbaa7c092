"""The benchmark's layer tracing still reaches every function it must.

``bench/check_tracing.py`` replaces engine functions with wrappers, so the
check runs in a fresh interpreter and leaves this process untouched.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracing_wraps_every_layer_function():
    result = subprocess.run(
        [sys.executable, "-c",
         "import check_tracing; print(check_tracing.completeness_problems())"],
        cwd=BENCH, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
