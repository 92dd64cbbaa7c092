"""One round of a workload in a fresh process.

Reads a job from standard input: {"verbs": [argv, ...], "reports": [path,
...], "trace": bool}.  Times ``import prolong.cli``, then runs each verb
through ``prolong.cli.main`` in order, writing its JSON report to the
matching path.  Prints one JSON line with the timings, the peak resident
memory and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import prolong.cli

    setup_s = time.perf_counter() - started
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    verbs = []
    began = time.perf_counter()
    for argv, report in zip(job["verbs"], job["reports"]):
        sink = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = prolong.cli.main(list(argv) + ["--json", report])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # an engine crash is one failed operation; the round goes on
            code = None
            error = traceback.format_exc()
        verbs.append(
            {"seconds": time.perf_counter() - t0, "exit": code, "error": error, "output": sink.getvalue()}
        )
    wall_s = time.perf_counter() - began
    # ru_maxrss is in kilobytes on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_mb": peak_rss_mb,
                "verbs": verbs,
                "layers": tracer.summary() if tracer else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
